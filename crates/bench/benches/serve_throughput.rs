//! Serving-engine throughput versus shard count: how many points/second
//! the sharded pipeline sustains end-to-end (submit → score → drain),
//! with 1 / 2 / 4 / 8 shards. The `serve_bench` binary records the same
//! sweep (plus latency quantiles) as `results/BENCH_serve.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sketchad_core::{DetectorConfig, StreamingDetector};
use sketchad_serve::{ServeConfig, ServeEngine};
use sketchad_streams::{generate_low_rank_stream, AnomalyKind, LowRankStreamConfig};

fn bench_serve_throughput(c: &mut Criterion) {
    let n = 20_000usize;
    let d = 48;
    let stream = generate_low_rank_stream(LowRankStreamConfig {
        n,
        d,
        k: 4,
        anomaly_rate: 0.01,
        seed: 42,
        anomaly_kind: AnomalyKind::OffSubspace,
        ..Default::default()
    });
    let points: Vec<Vec<f64>> = stream.points.iter().map(|p| p.values.clone()).collect();

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(n as u64));

    for shards in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("shards", shards), |b| {
            b.iter(|| {
                let config = ServeConfig::new(shards).with_queue_capacity(512);
                let mut engine = ServeEngine::start(config, move |_| {
                    Box::new(
                        DetectorConfig::new(4, 32)
                            .with_warmup(200)
                            .with_seed(7)
                            .build_fd(d),
                    ) as Box<dyn StreamingDetector + Send>
                })
                .expect("start");
                engine.submit_batch_rows(&points).expect("submit");
                let report = engine.finish().expect("drain");
                black_box(report.stats.total_processed)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);

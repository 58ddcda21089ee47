//! Serving-engine throughput benchmark, two legs:
//!
//! 1. **Compute-bound sweep** — the historical baseline: FD at `d = 48`,
//!    points/second and latency quantiles versus shard count.
//! 2. **Ingest-bound dispatch comparison** — a deliberately cheap detector
//!    (CountSketch at `d = 8`) so the submit path itself is the bottleneck,
//!    crossed over dispatch mode: per-point `submit` (a batch of one, with
//!    the worker scoring point by point) vs `submit_batch_rows` over
//!    chunks with micro-batched scoring. The headline `batch_speedup_ring`
//!    ratio is batch-vs-per-point.
//!
//! Both legs land in `results/BENCH_serve.json`. A third leg — the
//! **producer-scaling matrix** — crosses producer-lane count
//! (`submit_batch_rows_parallel`) with shard count on the ingest-bound
//! configuration and lands separately in
//! `results/BENCH_scaling.json`. A final instrumented pass re-runs the
//! 4-shard compute-bound configuration with per-shard `MetricsRecorder`s
//! and exports the merged per-stage span timings and refresh/snapshot
//! events as `results/OBS_serve.json`, plus a live telemetry flight
//! recording (`sketchad-telemetry/v1` JSONL) as
//! `results/TELEMETRY_serve.jsonl`.
//!
//! ```text
//! cargo run -p sketchad-bench --release --bin serve_bench -- [--small] [--smoke]
//!     [--dim D] [--producers LIST] [--out FILE] [--scaling-out FILE]
//!     [--metrics-out FILE] [--telemetry-out FILE]
//! ```
//!
//! `--dim D` sets the ingest-leg dimensionality (default 8); `--producers
//! LIST` is a comma-separated set of producer-lane counts for the scaling
//! matrix (default `1,2,4`).
//!
//! `--smoke` runs no timing sweep and writes no artifacts: it asserts the
//! engine's bitwise contract — batch submission produces exactly the same
//! scores as per-point submission, at one producer lane and at four — and
//! exits non-zero on any divergence.
//! CI runs this on every push.
//!
//! Numbers are measured on whatever hardware runs this — every artifact
//! embeds a `host` block (`available_parallelism`, arch, OS, SIMD dispatch
//! tier) so readers can judge whether thread scaling was even possible (on
//! a single-core container the sharded configurations mostly measure
//! coordination overhead, not speedup).

use serde::Serialize;
use sketchad_bench::HostMeta;
use sketchad_core::{DetectorConfig, StreamingDetector};
use sketchad_obs::{ObsArtifact, RecorderHandle};
use sketchad_serve::{ServeConfig, ServeEngine, TelemetryConfig};
use sketchad_streams::{generate_low_rank_stream, AnomalyKind, LowRankStreamConfig};
use std::time::Instant;

/// Ring capacity and micro-batch ceiling for the ingest-bound leg: large
/// enough that the producer can run far ahead of the worker between
/// scheduler hand-offs.
const INGEST_RING_CAPACITY: usize = 4096;
const INGEST_MAX_BATCH: usize = 512;
/// Caller-side chunk size for `submit_batch_rows` — models a network
/// receive buffer's worth of rows arriving at once.
const INGEST_CHUNK: usize = 8192;
/// Caller-side chunk for the producer-scaling matrix: large enough that
/// one `submit_batch_rows_parallel` call (one lane spawn/join) covers many
/// ring laps, so the matrix measures lane throughput rather than
/// thread-spawn overhead.
const SCALING_CHUNK: usize = 65536;
/// Timing samples per scaling cell; the best is reported (same
/// best-of-samples discipline as `kernel_bench`).
const SCALING_SAMPLES: usize = 2;
/// Default ingest-leg dimensionality; override with `--dim`.
const INGEST_D: usize = 8;

#[derive(Serialize)]
struct ShardRun {
    shards: usize,
    seconds: f64,
    points_per_sec: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    queue_high_water_max: usize,
    speedup_vs_one_shard: f64,
}

#[derive(Serialize)]
struct IngestRun {
    shards: usize,
    /// `"per_point"` (`submit` in a loop, worker scoring point by point)
    /// or `"batch"` (`submit_batch_rows` over `chunk`-row slices, worker
    /// scoring micro-batches).
    dispatch: String,
    /// Worker micro-batch ceiling: 1 on the per-point legs,
    /// `max_batch` on the batched legs.
    max_batch: usize,
    seconds: f64,
    points_per_sec: f64,
}

#[derive(Serialize)]
struct IngestSection {
    description: String,
    n: usize,
    d: usize,
    sketch: String,
    ring_capacity: usize,
    max_batch: usize,
    chunk: usize,
    runs: Vec<IngestRun>,
    /// Batch vs per-point dispatch, 1 shard.
    batch_speedup_ring: f64,
}

#[derive(Serialize)]
struct BenchReport {
    id: String,
    description: String,
    n: usize,
    d: usize,
    queue_capacity: usize,
    host: HostMeta,
    available_parallelism: usize,
    direct_baseline_points_per_sec: f64,
    runs: Vec<ShardRun>,
    ingest: IngestSection,
    note: String,
}

#[derive(Serialize)]
struct ScalingRun {
    producers: usize,
    shards: usize,
    /// Always `"ring"`: the engine's one channel (SPSC ring per shard).
    channel: String,
    seconds: f64,
    points_per_sec: f64,
    /// Rate relative to the 1-producer run of the same shard count — the headline multi-producer scaling number.
    speedup_vs_one_producer: f64,
}

/// `results/BENCH_scaling.json`: the producer-lane scaling matrix. All runs
/// use batch dispatch (`submit_batch_rows_parallel`) on the ingest-bound
/// detector; producer counts above the shard count clamp down inside the
/// engine, so the matrix only crosses `producers <= shards` cells.
#[derive(Serialize)]
struct ScalingReport {
    id: String,
    description: String,
    n: usize,
    d: usize,
    ring_capacity: usize,
    max_batch: usize,
    chunk: usize,
    host: HostMeta,
    producers: Vec<usize>,
    runs: Vec<ScalingRun>,
    note: String,
}

fn build_detector(d: usize) -> Box<dyn StreamingDetector + Send> {
    Box::new(
        DetectorConfig::new(4, 32)
            .with_warmup(200)
            .with_seed(7)
            .build_fd(d),
    )
}

fn build_instrumented(d: usize, recorder: RecorderHandle) -> Box<dyn StreamingDetector + Send> {
    Box::new(
        DetectorConfig::new(4, 32)
            .with_warmup(200)
            .with_seed(7)
            .build_fd(d)
            .with_recorder(recorder),
    )
}

/// The ingest leg's detector: cheap on purpose, so the measured cost is the
/// submit path, not the linear algebra.
fn build_cheap(d: usize) -> Box<dyn StreamingDetector + Send> {
    Box::new(
        DetectorConfig::new(2, 8)
            .with_warmup(256)
            .with_seed(7)
            .build_rs(d),
    )
}

/// One ingest-leg run; returns elapsed seconds and the bitwise score
/// sequence (for the smoke-mode equality assertions). `batch` switches the
/// whole pipeline between its two ends: per-point (`submit` in a loop, the
/// worker scoring strictly point by point with `max_batch = 1`) and batched
/// (`submit_batch_rows` staging plus micro-batched drain/scoring). The
/// micro-batch setting is part of the ingest path under test — scores are
/// bitwise identical either way, which `--smoke` asserts. `d` is the point
/// dimensionality (`--dim`); `producers` the lane count handed to
/// `submit_batch_rows_parallel` on the batched path (per-point submission
/// is inherently single-producer).
fn run_ingest_with(
    points: &[Vec<f64>],
    d: usize,
    shards: usize,
    batch: bool,
    producers: usize,
) -> (f64, Vec<u64>) {
    run_ingest_chunked(points, d, shards, batch, producers, INGEST_CHUNK)
}

fn run_ingest_chunked(
    points: &[Vec<f64>],
    d: usize,
    shards: usize,
    batch: bool,
    producers: usize,
    chunk_rows: usize,
) -> (f64, Vec<u64>) {
    let config = ServeConfig::new(shards)
        .with_queue_capacity(INGEST_RING_CAPACITY)
        .with_max_batch(if batch { INGEST_MAX_BATCH } else { 1 })
        .with_snapshot_every(8192);
    let mut engine = ServeEngine::start(config, move |_| build_cheap(d)).expect("engine start");
    let started = Instant::now();
    if batch {
        for chunk in points.chunks(chunk_rows) {
            engine
                .submit_batch_rows_parallel(chunk, producers)
                .expect("submit");
        }
    } else {
        for p in points {
            engine.submit(p.clone()).expect("submit");
        }
    }
    let report = engine.finish().expect("drain");
    let seconds = started.elapsed().as_secs_f64();
    assert_eq!(
        report.stats.total_processed as usize,
        points.len(),
        "Block backpressure admits every point"
    );
    let bits = report
        .scores_in_order()
        .iter()
        .map(|s| s.to_bits())
        .collect();
    (seconds, bits)
}

fn ingest_points(n: usize, d: usize) -> Vec<Vec<f64>> {
    let stream = generate_low_rank_stream(LowRankStreamConfig {
        n,
        d,
        k: 2,
        anomaly_rate: 0.01,
        seed: 1_001,
        anomaly_kind: AnomalyKind::OffSubspace,
        ..Default::default()
    });
    stream.points.iter().map(|p| p.values.clone()).collect()
}

/// `--smoke`: assert batch-vs-per-point bitwise score equality — at one
/// producer lane and at four — then exit without timing anything or
/// writing artifacts.
fn smoke(d: usize) {
    let points = ingest_points(20_000, d);
    let (_, per_point) = run_ingest_with(&points, d, 2, false, 1);
    let (_, batch) = run_ingest_with(&points, d, 2, true, 1);
    let (_, batch_lanes) = run_ingest_with(&points, d, 2, true, 4);
    assert_eq!(per_point, batch, "batch dispatch diverged from per-point");
    assert_eq!(batch, batch_lanes, "4 producer lanes diverged from 1");
    println!(
        "smoke: batch (1 and 4 lanes) == per-point bitwise over {} scores",
        batch.len()
    );
    println!("smoke: OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let ingest_d = args
        .iter()
        .position(|a| a == "--dim")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--dim takes a positive integer"))
        .unwrap_or(INGEST_D);
    assert!(ingest_d >= 1, "--dim must be at least 1");
    if args.iter().any(|a| a == "--smoke") {
        smoke(ingest_d);
        return;
    }
    let producer_counts: Vec<usize> = args
        .iter()
        .position(|a| a == "--producers")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|p| {
                    p.trim()
                        .parse::<usize>()
                        .expect("--producers takes a comma-separated list of positive integers")
                })
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);
    assert!(
        producer_counts.contains(&1),
        "--producers must include 1: every speedup is anchored to the single-producer run"
    );
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::to_string)
        .unwrap_or_else(|| "results/BENCH_serve.json".to_string());
    let scaling_path = args
        .iter()
        .position(|a| a == "--scaling-out")
        .and_then(|i| args.get(i + 1))
        .map(String::to_string)
        .unwrap_or_else(|| "results/BENCH_scaling.json".to_string());
    let metrics_path = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .map(String::to_string)
        .unwrap_or_else(|| "results/OBS_serve.json".to_string());
    let telemetry_path = args
        .iter()
        .position(|a| a == "--telemetry-out")
        .and_then(|i| args.get(i + 1))
        .map(String::to_string)
        .unwrap_or_else(|| "results/TELEMETRY_serve.jsonl".to_string());

    let n = if small { 20_000 } else { 100_000 };
    let d = 48;
    let queue_capacity = 512;
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
    let host = HostMeta::capture();
    let parallelism = host.available_parallelism;

    // Direct (no engine, no threads) baseline.
    let mut direct = build_detector(d);
    let started = Instant::now();
    for p in &points {
        std::hint::black_box(direct.process(p));
    }
    let direct_secs = started.elapsed().as_secs_f64();
    let direct_rate = n as f64 / direct_secs;
    println!("direct baseline: {n} points in {direct_secs:.2}s — {direct_rate:.0} points/s");

    let mut runs = Vec::new();
    let mut one_shard_rate = None;
    for shards in [1usize, 2, 4, 8] {
        let config = ServeConfig::new(shards).with_queue_capacity(queue_capacity);
        let mut engine =
            ServeEngine::start(config, move |_| build_detector(d)).expect("engine start");
        let started = Instant::now();
        for chunk in points.chunks(INGEST_CHUNK) {
            engine.submit_batch_rows(chunk).expect("submit");
        }
        let report = engine.finish().expect("drain");
        let seconds = started.elapsed().as_secs_f64();
        assert_eq!(report.stats.total_processed as usize, n, "no loss allowed");
        let rate = n as f64 / seconds;
        let base = *one_shard_rate.get_or_insert(rate);
        let run = ShardRun {
            shards,
            seconds,
            points_per_sec: rate,
            latency_p50_us: report.stats.latency_p50_us,
            latency_p99_us: report.stats.latency_p99_us,
            queue_high_water_max: report
                .stats
                .shards
                .iter()
                .map(|s| s.queue_high_water)
                .max()
                .unwrap_or(0),
            speedup_vs_one_shard: rate / base,
        };
        println!(
            "shards {}: {:.2}s — {:.0} points/s ({:.2}x vs 1 shard), p50 {:.1} µs, p99 {:.1} µs",
            run.shards,
            run.seconds,
            run.points_per_sec,
            run.speedup_vs_one_shard,
            run.latency_p50_us,
            run.latency_p99_us
        );
        runs.push(run);
    }

    // Ingest-bound leg: dispatch mode, cheap detector.
    let ingest_n = if small { 200_000 } else { 1_000_000 };
    let ingest = ingest_points(ingest_n, ingest_d);
    let mut ingest_runs = Vec::new();
    for shards in [1usize, 2] {
        for batch in [false, true] {
            let (seconds, _) = run_ingest_with(&ingest, ingest_d, shards, batch, 1);
            let run = IngestRun {
                shards,
                dispatch: if batch { "batch" } else { "per_point" }.to_string(),
                max_batch: if batch { INGEST_MAX_BATCH } else { 1 },
                seconds,
                points_per_sec: ingest_n as f64 / seconds,
            };
            println!(
                "ingest shards {} {:>9}: {:.2}s — {:.0} points/s",
                run.shards, run.dispatch, run.seconds, run.points_per_sec
            );
            ingest_runs.push(run);
        }
    }
    let rate_of = |dispatch: &str| {
        ingest_runs
            .iter()
            .find(|r| r.shards == 1 && r.dispatch == dispatch)
            .map(|r| r.points_per_sec)
            .unwrap_or(f64::NAN)
    };
    let batch_speedup_ring = rate_of("batch") / rate_of("per_point");
    println!("ingest: batch vs per-point {batch_speedup_ring:.2}x");
    let ingest_section = IngestSection {
        description: "dispatch-mode comparison with an ingest-bound \
                      (deliberately cheap) detector; per_point legs run the \
                      whole pipeline point-at-a-time (max_batch 1), batch legs \
                      fully batched. On a single-core host producer and \
                      consumer serialize, so the shared scoring cost dilutes \
                      submit-side savings and caps the batch-vs-per-point \
                      ratio well below what multi-core hosts see"
            .to_string(),
        n: ingest_n,
        d: ingest_d,
        sketch: "rs".to_string(),
        ring_capacity: INGEST_RING_CAPACITY,
        max_batch: INGEST_MAX_BATCH,
        chunk: INGEST_CHUNK,
        runs: ingest_runs,
        batch_speedup_ring,
    };

    // Producer-scaling matrix: producers × shards, batch dispatch
    // throughout. Producer counts above the shard count clamp inside the
    // engine, so skip those cells rather than re-measure the clamped run.
    let mut scaling_runs = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut one_producer_rate = None;
        for &producers in &producer_counts {
            if producers > shards {
                continue;
            }
            let seconds = (0..SCALING_SAMPLES)
                .map(|_| {
                    run_ingest_chunked(&ingest, ingest_d, shards, true, producers, SCALING_CHUNK).0
                })
                .fold(f64::INFINITY, f64::min);
            let rate = ingest_n as f64 / seconds;
            let base = *one_producer_rate.get_or_insert(rate);
            let run = ScalingRun {
                producers,
                shards,
                channel: "ring".to_string(),
                seconds,
                points_per_sec: rate,
                speedup_vs_one_producer: rate / base,
            };
            println!(
                "scaling {} producers x {} shards: {:.2}s — {:.0} points/s \
                 ({:.2}x vs 1 producer)",
                run.producers,
                run.shards,
                run.seconds,
                run.points_per_sec,
                run.speedup_vs_one_producer
            );
            scaling_runs.push(run);
        }
    }
    let scaling_note = if parallelism <= 1 {
        "measured on a single available core: producer lanes and shard workers \
         time-slice one CPU, so multi-producer cells measure lane coordination \
         overhead rather than parallel submit speedup"
            .to_string()
    } else {
        format!(
            "measured with {parallelism} cores available; lanes partition shards by \
             ownership (shard % producers), so scores are identical across every cell"
        )
    };
    let scaling_report = ScalingReport {
        id: "BENCH_scaling".to_string(),
        description: "producer-lane scaling matrix: submit_batch_rows_parallel \
                      throughput across producers x shards on the \
                      ingest-bound detector"
            .to_string(),
        n: ingest_n,
        d: ingest_d,
        ring_capacity: INGEST_RING_CAPACITY,
        max_batch: INGEST_MAX_BATCH,
        chunk: SCALING_CHUNK,
        host: host.clone(),
        producers: producer_counts.clone(),
        runs: scaling_runs,
        note: scaling_note,
    };
    if let Some(parent) = std::path::Path::new(&scaling_path).parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    let json = serde_json::to_string_pretty(&scaling_report).expect("serialize scaling report");
    std::fs::write(&scaling_path, json).expect("write scaling report");
    println!("wrote {scaling_path}");

    let note = if parallelism <= 1 {
        "measured on a single available core: shard workers time-slice one CPU, so \
         multi-shard runs measure coordination overhead rather than parallel speedup; \
         re-run on a multi-core host for scaling numbers"
            .to_string()
    } else {
        format!("measured with {parallelism} cores available")
    };
    let report = BenchReport {
        id: "BENCH_serve".to_string(),
        description: "serving-engine throughput and latency vs shard count, plus \
                      ingest-bound dispatch comparison"
            .to_string(),
        n,
        d,
        queue_capacity,
        host: host.clone(),
        available_parallelism: parallelism,
        direct_baseline_points_per_sec: direct_rate,
        runs,
        ingest: ingest_section,
        note,
    };
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json).expect("write report");
    println!("wrote {out_path}");

    // Instrumented pass: the 4-shard configuration again, this time with
    // per-shard recorders, exported as a versioned OBS artifact. Run last so
    // the throughput sweep above stays free of observation overhead.
    let obs_shards = 4usize;
    let config = ServeConfig::new(obs_shards)
        .with_queue_capacity(queue_capacity)
        .with_snapshot_every(512);
    let mut engine = ServeEngine::start_instrumented(config, move |_shard, recorder| {
        build_instrumented(d, recorder)
    })
    .expect("engine start");
    // Live telemetry rides along: a fast sampler flight-records the whole
    // instrumented pass (committed as the reference telemetry artifact).
    let telemetry = engine
        .start_telemetry(
            &TelemetryConfig::new()
                .with_sample_every(std::time::Duration::from_millis(25))
                .with_flight_recorder(&telemetry_path),
        )
        .expect("start telemetry");
    for chunk in points.chunks(INGEST_CHUNK) {
        engine.submit_batch_rows(chunk).expect("submit");
    }
    let report = engine.finish().expect("drain");
    drop(telemetry);
    println!("wrote {telemetry_path}");
    let obs = report
        .stats
        .obs
        .clone()
        .expect("instrumented stats carry an obs report");
    println!("{}", obs.render_table());
    let artifact = ObsArtifact::new("serve_bench", obs)
        .with_context("n", n.to_string())
        .with_context("d", d.to_string())
        .with_context("shards", obs_shards.to_string())
        .with_context("queue_capacity", queue_capacity.to_string())
        .with_context("snapshot_every", "512")
        .with_context("sketch", "fd")
        .with_context("available_parallelism", parallelism.to_string());
    artifact
        .write(std::path::Path::new(&metrics_path))
        .expect("write metrics artifact");
    println!("wrote {metrics_path}");
}

//! The three benchmark workloads and the detectors each one serves.
//!
//! Every workload runs the CLI's `pipeline` defaults (queue 1024, max-batch
//! 64, snapshot-every 256, periodic refresh every 64 points, warmup 256,
//! relative-projection score, Block backpressure, one shard) and overrides
//! only the parameters listed in its [`Workload`] entry.

use crate::traced::{LedgerSink, TracedDetector, TracedSketch};
use sketchad_core::{DetectorConfig, RefreshPolicy, ScoreKind, SketchDetector, StreamingDetector};
use sketchad_obs::RecorderHandle;
use sketchad_serve::FsyncPolicy;
use sketchad_sketch::{FrequentDirections, RowSampling};
use sketchad_streams::LowRankStreamConfig;

/// CLI `pipeline` default: points before the first model is built.
pub const WARMUP: usize = 256;
/// CLI `pipeline` default: `RefreshPolicy::Periodic { period }`.
pub const REFRESH_PERIOD: usize = 64;
/// CLI `pipeline` default queue capacity.
pub const QUEUE: usize = 1024;
/// CLI `pipeline` default micro-batch size; also the producer's chunk size.
pub const MAX_BATCH: usize = 64;
/// CLI `pipeline` default snapshot period.
pub const SNAPSHOT_EVERY: u64 = 256;
/// CLI `pipeline` default restart budget.
pub const MAX_RESTARTS: u32 = 2;

/// Which sketch backs the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchKind {
    /// Frequent Directions: the paper's deterministic sketch.
    Fd,
    /// Row sampling: the cheap randomized sketch (`--sketch rs`).
    Rs,
}

/// How the producer offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Replay: the next chunk is submitted as soon as the previous submit
    /// returns (Block backpressure throttles the producer).
    Closed,
    /// Live stream: row `i` is due at `i / rate` seconds after the start,
    /// whether or not the engine has kept up.
    Open {
        /// Offered load in points per second.
        rate: f64,
    },
}

/// The CLI's durability defaults with `--state-dir`.
pub const CLI_DURABILITY: Durability = Durability {
    checkpoint_every: 4096,
    fsync: FsyncPolicy::EveryN(64),
};

/// The live workload's durability: the CLI's checkpoint period, with the
/// WAL and the checkpoints written to the page cache but never fsynced
/// (`--fsync never`). An fsync waits on the disk, and on a shared virtual
/// disk that wait belongs to the host: with `every:64`, a second process
/// writing and fsyncing on the same disk raised the live p99 by 50-60%
/// while CPU per point rose 8%; with `never` the p99 moved by under 2%.
pub const LIVE_DURABILITY: Durability = Durability {
    checkpoint_every: 4096,
    fsync: FsyncPolicy::Never,
};

/// Durable-state settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Durability {
    /// `--checkpoint-every`.
    pub checkpoint_every: u64,
    /// `--fsync`.
    pub fsync: FsyncPolicy,
}

/// One workload: detector shape, offered load and session length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Ambient dimension d.
    pub d: usize,
    /// Sketch size ℓ.
    pub ell: usize,
    /// Model rank k (also the planted rank of the generated stream).
    pub k: usize,
    /// Sketch family.
    pub sketch: SketchKind,
    /// Closed or open loop.
    pub pacing: Pacing,
    /// WAL + checkpoints, when the workload is durable.
    pub durability: Option<Durability>,
    /// Rows in the input file and in one session. A run repeats sessions
    /// until its measuring time is used up, so every per-session count is
    /// fixed.
    pub session_rows: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    // The paper's shape at the CLI defaults: shrink and refresh dominate;
    // the 2ℓ = 128 Gram takes eigen_sym's tridiagonal+QL branch.
    Workload {
        name: "fd-replay-d200",
        d: 200,
        ell: 64,
        k: 10,
        sketch: SketchKind::Fd,
        pacing: Pacing::Closed,
        durability: None,
        session_rows: 6_000,
    },
    // Control: no FD shrink, so ingest, ring, decode and the batched score
    // loop dominate. Not in BENCHMARK.json: on a 2-vCPU guest its figures
    // swing with how the two threads share cores (see README.md).
    Workload {
        name: "ingest-d8",
        d: 8,
        ell: 8,
        k: 2,
        sketch: SketchKind::Rs,
        pacing: Pacing::Closed,
        durability: None,
        session_rows: 2_000_000,
    },
    // Live stream well below saturation with a WAL; the 48 × 48 Gram takes
    // eigen_sym's Jacobi branch. On a 2-vCPU KVM guest the worker is ~60%
    // busy at 4000 pts/s and the latency quartiles spread by 30-150% of the
    // median; at 2000 pts/s they stay within a few percent. The WAL is not
    // fsynced (see LIVE_DURABILITY).
    Workload {
        name: "fd-live-d48",
        d: 48,
        ell: 32,
        k: 4,
        sketch: SketchKind::Fd,
        pacing: Pacing::Open { rate: 2_000.0 },
        durability: Some(LIVE_DURABILITY),
        session_rows: 5_000,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The detector hyper-parameters, exactly as `sketchad pipeline` sets
    /// them.
    pub fn detector_config(&self) -> DetectorConfig {
        DetectorConfig::new(self.k, self.ell)
            .with_warmup(WARMUP)
            .with_score(ScoreKind::RelativeProjection)
            .with_refresh(RefreshPolicy::Periodic {
                period: REFRESH_PERIOD,
            })
    }

    /// The generator settings for `n` rows: a planted rank-k subspace with
    /// 2% off-subspace anomalies (the generator's defaults otherwise).
    pub fn stream_config(&self, n: usize, seed: u64) -> LowRankStreamConfig {
        LowRankStreamConfig {
            n,
            d: self.d,
            k: self.k,
            anomaly_rate: 0.02,
            seed,
            ..LowRankStreamConfig::default()
        }
    }

    /// The detector the CLI builds, untraced.
    pub fn plain_detector(&self) -> Box<dyn StreamingDetector + Send> {
        let cfg = self.detector_config();
        match self.sketch {
            SketchKind::Fd => Box::new(cfg.build_fd(self.d)),
            SketchKind::Rs => Box::new(cfg.build_rs(self.d)),
        }
    }

    /// The detector the CLI builds for an instrumented engine.
    pub fn instrumented_detector(
        &self,
        recorder: RecorderHandle,
    ) -> Box<dyn StreamingDetector + Send> {
        let cfg = self.detector_config();
        match self.sketch {
            SketchKind::Fd => Box::new(cfg.build_fd(self.d).with_recorder(recorder)),
            SketchKind::Rs => Box::new(cfg.build_rs(self.d).with_recorder(recorder)),
        }
    }

    /// The same detector assembled from public parts with a timing wrapper
    /// around the sketch and another around the detector.
    pub fn traced_detector(&self, sink: LedgerSink) -> Box<dyn StreamingDetector + Send> {
        let cfg = self.detector_config();
        match self.sketch {
            SketchKind::Fd => {
                let sketch = TracedSketch::compacting(FrequentDirections::new(self.ell, self.d));
                Box::new(TracedDetector::new(self.wrap(&cfg, sketch), sink))
            }
            SketchKind::Rs => {
                let sketch = TracedSketch::plain(RowSampling::new(self.ell, self.d, cfg.seed));
                Box::new(TracedDetector::new(self.wrap(&cfg, sketch), sink))
            }
        }
    }

    fn wrap<S: sketchad_sketch::MatrixSketch>(
        &self,
        cfg: &DetectorConfig,
        sketch: S,
    ) -> SketchDetector<S> {
        SketchDetector::new(sketch, cfg.k, cfg.score, cfg.refresh, cfg.warmup)
            .with_update_policy(cfg.update_policy)
    }
}

//! The benchmark's only dependency on `sketchad-serve`.
//!
//! [`serve_session`] is the one function that calls into the serving tier,
//! and it uses only `ServeEngine::start`, `open_or_recover`,
//! `start_instrumented`, `submit_batch_rows`, `live_counters` and `finish`.
//! Batch-of-rows submission is the ingest path the serve tier keeps, so a
//! later collapse of the tier has this single, listed surface to preserve.

use crate::proc_stats::process_cpu_s;
use crate::traced::LedgerSink;
use crate::workload::{
    Durability, Pacing, Workload, MAX_BATCH, MAX_RESTARTS, QUEUE, SNAPSHOT_EVERY,
};
use sketchad_core::MmapRows;
use sketchad_serve::{BackpressurePolicy, ServeConfig, ServeEngine};
use std::path::Path;
use std::time::{Duration, Instant};

/// How often the producer polls the processed count while it waits. The
/// sleep overshoots by the kernel's timer slack; the measured mean gap is
/// reported as `bench.poll_interval_us`.
pub const POLL: Duration = Duration::from_micros(100);

/// A session with no progress for this long is reported as a failure.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Which engine constructor and detector build a session uses.
#[derive(Clone)]
pub enum EngineMode {
    /// `start` / `open_or_recover` with the CLI's detector.
    Plain,
    /// `start_instrumented` with the recorder installed on the detector.
    Instrumented,
    /// `start` / `open_or_recover` with the timing wrappers.
    Traced(LedgerSink),
}

/// One session: set up, stream `rows` rows, finish.
pub struct SessionPlan<'a> {
    pub workload: &'static Workload,
    pub rows_path: &'a Path,
    /// WAL and checkpoint settings; `None` runs without durable state.
    pub durability: Option<Durability>,
    /// State directory, used when `durability` is set.
    pub state_dir: &'a Path,
    pub mode: EngineMode,
    /// Rows to stream from the start of the rows file; 0 only sets up and
    /// finishes (a setup or recovery probe).
    pub rows: usize,
}

/// What a session measured.
#[derive(Debug, Default)]
pub struct SessionOutcome {
    /// Opening and validating the rows file.
    pub input_open_s: f64,
    /// `start` / `open_or_recover` / `start_instrumented` until it returned.
    pub engine_start_s: f64,
    /// First submit until `finish` returned.
    pub wall_s: f64,
    /// Engine start returned until `finish` returned: the worker's life.
    pub worker_wall_s: f64,
    /// Process CPU from the first submit until every accepted row was
    /// scored.
    pub cpu_s: f64,
    pub submitted: u64,
    /// Dropped + rejected + shed + crash-lost, from the final stats.
    pub failed: u64,
    /// `(sequence, score)` in submission order.
    pub scores: Vec<(u64, f64)>,
    /// Per row: due time to observed completion, in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Per row: submit time minus due time (how late the generator ran).
    pub lag_ns: Vec<u64>,
    /// Queue depth seen at each poll.
    pub queue_depths: Vec<u64>,
    pub queue_high_water: u64,
    /// Polls made and the time they spanned.
    pub polls: u64,
    pub poll_span_s: f64,
    /// Traced sessions only: time in `submit_batch_rows`, in `finish`, and
    /// decoding rows on the producer.
    pub submit_s: f64,
    pub finish_s: f64,
    pub decode_s: f64,
}

impl SessionOutcome {
    /// Setup time: input open plus engine start.
    pub fn setup_s(&self) -> f64 {
        self.input_open_s + self.engine_start_s
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs one session through the serving engine.
///
/// # Errors
/// Engine construction, submission or shutdown errors, an unreadable rows
/// file, and stalls.
pub fn serve_session(plan: &SessionPlan<'_>) -> Result<SessionOutcome, String> {
    let w = plan.workload;
    let traced = matches!(plan.mode, EngineMode::Traced(_));
    let mut out = SessionOutcome::default();

    let mut config = ServeConfig::new(1)
        .with_queue_capacity(QUEUE)
        .with_backpressure(BackpressurePolicy::Block)
        .with_snapshot_every(SNAPSHOT_EVERY)
        .with_max_batch(MAX_BATCH)
        .with_max_restarts(MAX_RESTARTS);
    if let Some(dur) = plan.durability {
        config = config
            .with_state_dir(plan.state_dir)
            .with_checkpoint_every(dur.checkpoint_every)
            .with_fsync(dur.fsync);
    }

    let opened = Instant::now();
    let input = MmapRows::open(plan.rows_path)
        .map_err(|e| format!("open {}: {e}", plan.rows_path.display()))?;
    out.input_open_s = opened.elapsed().as_secs_f64();
    let view = input.view();
    if view.dim() != w.d || view.len() < plan.rows {
        return Err(format!(
            "rows file holds {} rows of dim {}, the session needs {} of dim {}",
            view.len(),
            view.dim(),
            plan.rows,
            w.d
        ));
    }

    let started = Instant::now();
    let engine = match plan.mode.clone() {
        EngineMode::Plain if plan.durability.is_some() => {
            ServeEngine::open_or_recover(config, move |_| w.plain_detector())
        }
        EngineMode::Plain => ServeEngine::start(config, move |_| w.plain_detector()),
        EngineMode::Instrumented => {
            ServeEngine::start_instrumented(config, move |_, rec| w.instrumented_detector(rec))
        }
        EngineMode::Traced(sink) if plan.durability.is_some() => {
            ServeEngine::open_or_recover(config, move |_| w.traced_detector(sink.clone()))
        }
        EngineMode::Traced(sink) => {
            ServeEngine::start(config, move |_| w.traced_detector(sink.clone()))
        }
    };
    let mut engine = engine.map_err(|e| format!("engine start: {e}"))?;
    out.engine_start_s = started.elapsed().as_secs_f64();

    let n = plan.rows;
    // Open loop: row i is due `i / rate` seconds after the first submit.
    let schedule: Option<Vec<u64>> = match w.pacing {
        Pacing::Closed => None,
        Pacing::Open { rate } => Some((0..n).map(|i| (i as f64 * 1e9 / rate) as u64).collect()),
    };
    // `stamp[i]` holds row i's due time until its completion is observed,
    // then its latency.
    let mut stamp = vec![0u64; n];
    out.lag_ns.reserve(n);
    // Closed loop: a chunk is due once the producer is free to send it,
    // i.e. when the previous submit returned.
    let mut free_at = Duration::ZERO;
    let mut buf: Vec<Vec<f64>> = vec![vec![0.0; w.d]; MAX_BATCH];
    let mut accepted = 0u64;
    let mut next = 0usize;
    let mut done = 0usize;
    let mut last_progress = Instant::now();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut first_poll: Option<Duration> = None;
    let mut last_poll = Duration::ZERO;
    while done < n {
        let now = t0.elapsed();
        let due_upto = match &schedule {
            None => n,
            Some(due) => due.partition_point(|&d| d <= ns(now)),
        };
        if next < due_upto {
            let k = (due_upto - next).min(MAX_BATCH);
            let decoding = traced.then(Instant::now);
            for (j, row) in buf[..k].iter_mut().enumerate() {
                view.read_row_into(next + j, row)
                    .ok_or("row index out of range")?;
            }
            if let Some(t) = decoding {
                out.decode_s += t.elapsed().as_secs_f64();
            }
            let submit_at = t0.elapsed();
            for i in next..next + k {
                stamp[i] = schedule.as_ref().map_or(ns(free_at), |due| due[i]);
                out.lag_ns.push(ns(submit_at).saturating_sub(stamp[i]));
            }
            let batch = engine
                .submit_batch_rows(&buf[..k])
                .map_err(|e| format!("submit: {e}"))?;
            free_at = t0.elapsed();
            if traced {
                out.submit_s += (free_at - submit_at).as_secs_f64();
            }
            accepted += batch.accepted;
            out.submitted += batch.submitted();
            next += k;
        }
        let (processed, _, depth, _) = engine.live_counters()[0];
        let polled = t0.elapsed();
        first_poll.get_or_insert(polled);
        last_poll = polled;
        out.polls += 1;
        out.queue_depths.push(depth as u64);
        let processed = (processed as usize).min(n);
        if processed > done {
            for s in &mut stamp[done..processed] {
                *s = ns(polled).saturating_sub(*s);
            }
            done = processed;
            last_progress = Instant::now();
        }
        if next == n && (done as u64) >= accepted {
            break; // every accepted row scored; a shortfall is counted as failed
        }
        if last_progress.elapsed() > STALL_LIMIT {
            return Err(format!(
                "no progress for {STALL_LIMIT:?} at row {done} of {n}"
            ));
        }
        let due_pending = next < n && schedule.is_none();
        if !due_pending {
            let now = t0.elapsed();
            let wake = match &schedule {
                Some(due) if next < n => Duration::from_nanos(due[next]).min(now + POLL),
                _ => now + POLL,
            };
            if wake > now {
                std::thread::sleep(wake - now);
            }
        }
    }
    stamp.truncate(done);
    out.latency_ns = stamp;
    out.poll_span_s = last_poll
        .saturating_sub(first_poll.unwrap_or_default())
        .as_secs_f64();

    // Every accepted row is scored, so the worker is idle: read the CPU
    // total while its thread still exists.
    out.cpu_s = process_cpu_s() - cpu0;
    let finishing = Instant::now();
    let report = engine.finish().map_err(|e| format!("finish: {e}"))?;
    out.finish_s = if traced {
        finishing.elapsed().as_secs_f64()
    } else {
        0.0
    };
    out.wall_s = t0.elapsed().as_secs_f64();
    out.worker_wall_s = started.elapsed().as_secs_f64() - out.engine_start_s;
    let stats = &report.stats;
    out.failed =
        stats.total_dropped + stats.total_rejected + stats.total_shed + stats.total_crash_lost;
    // Rows that were accepted but never scored would otherwise vanish.
    out.failed = out
        .failed
        .max(out.submitted.saturating_sub(stats.total_processed));
    out.queue_high_water = stats
        .shards
        .iter()
        .map(|s| s.queue_high_water as u64)
        .max()
        .unwrap_or(0);
    out.scores = report.scores;
    Ok(out)
}

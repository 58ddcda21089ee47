//! The worker side of a shard: a supervised thread owning one detector,
//! draining one bounded ring.
//!
//! Supervision contract: a panic inside the detector (`process` /
//! `process_batch`) is caught *inside the worker thread*, which rebuilds a
//! fresh detector from the shard's factory, re-adopts the last published
//! snapshot ([`StreamingDetector::adopt_model`]) so scoring resumes from the
//! model readers were already being served, and keeps draining the same
//! ring — scores accumulated before the panic survive. Each shard gets
//! `max_restarts` such recoveries; beyond that it **degrades**: the stale
//! snapshot keeps serving reads, while queued and future updates are shed
//! with exact counts instead of failing the whole pipeline.

use crate::ring::SpscRing;
use crate::snapshot::SnapshotCell;
use crate::stats::LatencyHistogram;
use sketchad_core::StreamingDetector;
use sketchad_durable::StateStore;
use sketchad_obs::{Counter, Event, Gauge, Hist, RecorderHandle, Stage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One unit of work: a point plus its global submission sequence number.
#[derive(Debug)]
pub(crate) struct Job {
    pub seq: u64,
    pub point: Vec<f64>,
    pub enqueued: Instant,
}

/// State shared between the submitting side and a shard's worker thread.
/// All counters are monotone and read with relaxed ordering — they are
/// metrics, not synchronization.
#[derive(Debug, Default)]
pub(crate) struct ShardShared {
    /// Approximate current queue depth (enqueued − processed).
    pub depth: AtomicUsize,
    /// Highest depth ever observed at enqueue time.
    pub high_water: AtomicUsize,
    /// Points rejected at a full queue under `DropNewest`.
    pub dropped: AtomicU64,
    /// Points the worker has scored.
    pub processed: AtomicU64,
    /// Rows refused by input validation and quarantined.
    pub rejected: AtomicU64,
    /// Updates shed: `ShedOldest` evictions, read-only refusals, and
    /// everything a degraded shard drains without scoring.
    pub shed: AtomicU64,
    /// Points consumed from the queue but unscored when a panic struck.
    pub crash_lost: AtomicU64,
    /// Worker restarts performed after detector panics.
    pub restarts: AtomicU64,
    /// Set once the restart budget is exhausted: updates shed, reads keep
    /// serving the stale snapshot.
    pub degraded: AtomicBool,
    /// WAL rows replayed into the detector during warm restart (set once at
    /// engine startup, before the worker spawns).
    pub replayed: AtomicU64,
    /// Durable snapshot generation the detector was restored from (0 for
    /// cold starts).
    pub recovered_generation: AtomicU64,
    /// Latest published model snapshot.
    pub snapshot: Arc<SnapshotCell>,
}

impl ShardShared {
    /// Reserves `n` queue slots in the depth accounting: one depth bump
    /// and one high-water update for a whole staged group. Called
    /// **before** the actual enqueue — the worker may drain the jobs (and
    /// decrement) at any moment after the push, so incrementing afterwards
    /// could underflow.
    pub(crate) fn reserve_slots(&self, n: usize) {
        let depth = self.depth.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Rolls back a reservation whose enqueue did not happen (full queue or
    /// dead worker) or whose job left the queue unprocessed (eviction).
    pub(crate) fn release_slot(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Rebuilds a shard's detector after a panic (same factory, same shard
/// index, same recorder handle as the original build).
pub(crate) type DetectorRebuild = Box<dyn FnMut() -> Box<dyn StreamingDetector + Send> + Send>;

/// Per-shard worker parameters (everything `Copy`-ish the loops need).
pub(crate) struct WorkerConfig {
    pub shard: usize,
    pub snapshot_every: u64,
    pub max_batch: usize,
    pub max_restarts: u32,
    /// Durable checkpoint period in processed points (0 = only at clean
    /// drain). Only meaningful when a [`StateStore`] is attached.
    pub checkpoint_every: u64,
}

/// What a worker thread returns when its queue closes.
pub(crate) struct ShardOutput {
    pub scores: Vec<(u64, f64)>,
    pub latency: LatencyHistogram,
}

/// Worker results that must survive a detector panic: they live in the
/// supervisor frame, outside every `catch_unwind`.
struct WorkerState {
    scores: Vec<(u64, f64)>,
    latency: LatencyHistogram,
    /// Jobs popped from the queue but not yet scored; folded into
    /// `crash_lost` when a panic lands between pop and score.
    in_flight: u64,
}

/// Supervised worker loop: drain, and on a detector panic restart from the
/// last published snapshot (up to `max_restarts` times) or degrade.
///
/// The detector is owned exclusively by this thread — `process` needs
/// `&mut`, and single ownership is what makes per-shard score sequences
/// deterministic. Concurrent readers are served through the snapshot cell
/// instead.
pub(crate) fn run_supervised(
    cfg: WorkerConfig,
    ring: Arc<SpscRing>,
    mut detector: Box<dyn StreamingDetector + Send>,
    mut rebuild: DetectorRebuild,
    shared: Arc<ShardShared>,
    recorder: RecorderHandle,
    mut store: Option<StateStore>,
) -> ShardOutput {
    let mut state = WorkerState {
        scores: Vec::new(),
        latency: LatencyHistogram::new(),
        in_flight: 0,
    };
    loop {
        let drained = catch_unwind(AssertUnwindSafe(|| {
            drain(
                &cfg,
                &ring,
                detector.as_mut(),
                &shared,
                &recorder,
                &mut state,
                &mut store,
            );
        }));
        match drained {
            Ok(()) => {
                // Queue closed and fully drained: publish whatever the
                // detector ended up with so post-drain readers see the
                // freshest model, and cut a final durable checkpoint so the
                // next open restores without replay.
                publish_snapshot(cfg.shard, detector.as_ref(), &shared, &recorder);
                if let Some(s) = store.as_mut() {
                    checkpoint(&cfg, s, detector.as_ref(), &recorder);
                    let _ = s.flush();
                }
                break;
            }
            Err(_payload) => {
                // Whatever was popped but unscored died with the panic; the
                // detector itself is assumed corrupted and is replaced.
                shared
                    .crash_lost
                    .fetch_add(state.in_flight, Ordering::Relaxed);
                state.in_flight = 0;
                let restarts = shared.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                if restarts > u64::from(cfg.max_restarts) {
                    degrade(&cfg, &ring, &shared, &recorder, restarts);
                    break;
                }
                // The rebuild itself may panic (a broken factory); that
                // burns the remaining budget at once — degrade.
                let rebuilt = catch_unwind(AssertUnwindSafe(|| {
                    let mut fresh = rebuild();
                    if let Some(model) = shared.snapshot.load() {
                        // Resume scoring from the model readers already see;
                        // detectors without an adoption path warm up anew.
                        fresh.adopt_model(&model);
                    }
                    fresh
                }));
                match rebuilt {
                    Ok(fresh) => {
                        detector = fresh;
                        if recorder.enabled() {
                            recorder.incr(Counter::WorkerRestarts, 1);
                            recorder.event(Event::WorkerRestarted {
                                shard: cfg.shard,
                                restarts,
                            });
                        }
                    }
                    Err(_) => {
                        degrade(&cfg, &ring, &shared, &recorder, restarts);
                        break;
                    }
                }
            }
        }
    }
    ShardOutput {
        scores: state.scores,
        latency: state.latency,
    }
}

/// Drains jobs until the ring closes. With `max_batch > 1` the worker
/// micro-batches: it waits for one job, takes up to `max_batch` already
/// queued jobs under one ring claim, and scores the group through
/// [`StreamingDetector::process_batch`], whose blocked `V_kᵀY` kernel
/// yields scores bitwise identical to per-point processing. Instrumented
/// workers always run per point so recorded span and gauge counts match the
/// per-point contract exactly.
fn drain(
    cfg: &WorkerConfig,
    ring: &SpscRing,
    detector: &mut (dyn StreamingDetector + Send),
    shared: &ShardShared,
    recorder: &RecorderHandle,
    state: &mut WorkerState,
    store: &mut Option<StateStore>,
) {
    let observing = recorder.enabled();
    let per_point = observing || cfg.max_batch <= 1;
    let budget = if per_point { 1 } else { cfg.max_batch };
    // Reused across batches: the only steady-state allocations left are
    // the point vectors themselves, owned by the submitter.
    let mut jobs: Vec<Job> = Vec::with_capacity(budget);
    let mut points: Vec<Vec<f64>> = Vec::with_capacity(budget);
    let mut meta: Vec<(u64, Instant)> = Vec::with_capacity(budget);
    let mut scores: Vec<f64> = Vec::with_capacity(budget);
    while ring.pop_batch_block(&mut jobs, budget) > 0 {
        let n = jobs.len();
        let depth_after = shared.depth.fetch_sub(n, Ordering::Relaxed) - n;
        points.clear();
        meta.clear();
        for job in jobs.drain(..) {
            meta.push((job.seq, job.enqueued));
            points.push(job.point);
        }
        // Write-ahead for the whole micro-batch before any scoring: a
        // crash mid-batch replays every logged row on recovery.
        for point in &points {
            log_row(store, point);
        }
        state.in_flight = n as u64;
        if per_point {
            scores.clear();
            scores.push(detector.process(&points[0]));
        } else {
            detector.process_batch(&points, &mut scores);
        }
        state.in_flight = 0;
        let before = shared.processed.fetch_add(n as u64, Ordering::Relaxed);
        // One clock read per micro-batch: queue latency is measured at
        // drain granularity, like the submit side stamps one `enqueued`
        // per staged batch (metrics-only accounting, scores unaffected).
        let drained = Instant::now();
        for (&(seq, enqueued), &score) in meta.iter().zip(scores.iter()) {
            let waited = drained.duration_since(enqueued);
            state.latency.record(waited);
            state.scores.push((seq, score));
            if observing {
                recorder.record_hist(Hist::SubmitLatency, waited.as_nanos() as u64);
            }
        }
        if observing {
            recorder.gauge(Gauge::QueueDepth, depth_after as f64);
            recorder.gauge(Gauge::RingDepth, ring.len() as f64);
        }
        // Publish when the batch crossed a `snapshot_every` boundary — one
        // publish per period whatever the batch sizes.
        let crossed = |every: u64| every > 0 && before / every != (before + n as u64) / every;
        if crossed(cfg.snapshot_every) {
            publish_snapshot(cfg.shard, detector, shared, recorder);
        }
        if let Some(s) = store.as_mut() {
            if crossed(cfg.checkpoint_every) {
                checkpoint(cfg, s, detector, recorder);
            }
        }
    }
}

/// Terminal degraded mode: flag the shard, then drain every remaining and
/// future job as shed (exact counts, no scoring) until shutdown. The last
/// published snapshot stays up for readers.
fn degrade(
    cfg: &WorkerConfig,
    ring: &SpscRing,
    shared: &ShardShared,
    recorder: &RecorderHandle,
    restarts: u64,
) {
    shared.degraded.store(true, Ordering::Relaxed);
    if recorder.enabled() {
        recorder.event(Event::ShardDegraded {
            shard: cfg.shard,
            restarts,
        });
    }
    let mut jobs = Vec::new();
    while ring.pop_batch_block(&mut jobs, cfg.max_batch) > 0 {
        for job in jobs.drain(..) {
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            shared.shed.fetch_add(1, Ordering::Relaxed);
            if recorder.enabled() {
                recorder.incr(Counter::PointsShed, 1);
                recorder.event(Event::QueueShed {
                    shard: cfg.shard,
                    seq: job.seq,
                });
            }
        }
    }
}

/// Appends one row to the shard's WAL. A durable I/O failure disables
/// persistence for the rest of the run (the store is dropped) rather than
/// taking the shard down: serving availability outranks durability, and the
/// on-disk state stays valid — it is merely frozen at the last good write.
fn log_row(store: &mut Option<StateStore>, point: &[f64]) {
    if let Some(s) = store.as_mut() {
        if s.append_row(point).is_err() {
            *store = None;
        }
    }
}

/// Serializes the detector and cuts a durable checkpoint. Detectors without
/// a persistence path (`save_state` → `false`) simply skip checkpointing —
/// their WAL is never rotated, so recovery replays the entire log instead.
fn checkpoint(
    cfg: &WorkerConfig,
    store: &mut StateStore,
    detector: &dyn StreamingDetector,
    recorder: &RecorderHandle,
) {
    let mut payload = Vec::new();
    if !detector.save_state(&mut payload) {
        return;
    }
    if let Ok(generation) = store.checkpoint(&payload) {
        if recorder.enabled() {
            recorder.incr(Counter::CheckpointsWritten, 1);
            let _ = (cfg.shard, generation);
        }
    }
}

fn publish_snapshot(
    shard: usize,
    detector: &dyn StreamingDetector,
    shared: &ShardShared,
    recorder: &RecorderHandle,
) {
    let cell = &shared.snapshot;
    let Some(model) = detector.current_model() else {
        return;
    };
    if recorder.enabled() {
        let started = Instant::now();
        cell.publish(Arc::new(model.clone()));
        recorder.record_span(Stage::SnapshotPublish, started.elapsed().as_nanos() as u64);
        recorder.incr(Counter::SnapshotsPublished, 1);
        recorder.event(Event::SnapshotPublished {
            shard,
            generation: cell.generation(),
            processed: shared.processed.load(Ordering::Relaxed),
        });
    } else {
        cell.publish(Arc::new(model.clone()));
    }
}

//! Timing wrappers around the public `sketch` and `core` traits.
//!
//! The traced run builds each shard's detector as
//! `TracedDetector<SketchDetector<TracedSketch<S>>>`: every trait method
//! forwards to the real implementation, and the wrappers time the calls
//! from outside. Work that runs inside another call is attributed through
//! public counters:
//!
//! * an FD shrink fires on the `update` that finds the `2ℓ` buffer full,
//!   which the sketch wrapper knows in advance;
//! * a model refresh is the `process` call in which
//!   [`SketchDetector::refresh_count`] advanced, minus the sketch time
//!   inside that call;
//! * everything else a `process` call spends outside the sketch is scoring
//!   and bookkeeping.
//!
//! The wrappers keep their tallies locally (they live on the shard's worker
//! thread) and hand a [`Ledger`] to the shared sink when the detector is
//! dropped at the end of the worker's life.

use sketchad_core::{RefreshTask, SketchDetector, StreamingDetector, SubspaceModel};
use sketchad_linalg::{Matrix, SparseVec};
use sketchad_obs::RecorderHandle;
use sketchad_sketch::wire::{ByteReader, ByteWriter, WireError};
use sketchad_sketch::MatrixSketch;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where finished detectors leave their ledgers.
pub type LedgerSink = Arc<Mutex<Vec<Ledger>>>;

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Time spent inside the sketch, split by kind of call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchLedger {
    /// `update` calls that did not shrink, and their total time.
    pub updates: u64,
    pub update_ns: u64,
    /// `update` calls that shrank the FD buffer, their total time, and each
    /// one's duration.
    pub shrinks: u64,
    pub shrink_ns: u64,
    pub shrink_samples: Vec<u64>,
    /// `sketch()` copies (one per model refresh) and their total time;
    /// the wrapper counts these in cells, since `sketch()` takes `&self`.
    pub copies: u64,
    pub copy_ns: u64,
    /// The wrapper's own bookkeeping inside sketch calls (re-reading the
    /// buffer occupancy after a shrink).
    pub probe_ns: u64,
}

/// Forwarding [`MatrixSketch`] that times every call.
pub struct TracedSketch<S> {
    inner: S,
    /// True for the doubling-buffer FD sketch, which shrinks on the update
    /// that finds its `2ℓ`-row buffer full.
    compacts: bool,
    /// Rows in the FD buffer, mirrored from outside.
    occupied: usize,
    ledger: SketchLedger,
    copies: Cell<u64>,
    copy_ns: Cell<u64>,
}

impl<S: MatrixSketch> TracedSketch<S> {
    /// Wraps a Frequent Directions sketch.
    pub fn compacting(inner: S) -> Self {
        Self::new(inner, true)
    }

    /// Wraps a sketch without amortized compaction.
    pub fn plain(inner: S) -> Self {
        Self::new(inner, false)
    }

    fn new(inner: S, compacts: bool) -> Self {
        Self {
            inner,
            compacts,
            occupied: 0,
            ledger: SketchLedger::default(),
            copies: Cell::new(0),
            copy_ns: Cell::new(0),
        }
    }

    /// The tallies so far.
    pub fn ledger(&self) -> SketchLedger {
        let mut l = self.ledger.clone();
        l.copies = self.copies.get();
        l.copy_ns = self.copy_ns.get();
        l
    }

    /// All time spent inside this sketch's calls so far.
    fn inside_ns(&self) -> u64 {
        let l = &self.ledger;
        l.update_ns + l.shrink_ns + l.probe_ns + self.copy_ns.get()
    }

    fn will_shrink(&self) -> bool {
        self.compacts && self.occupied == 2 * self.inner.capacity()
    }

    /// Records one update; `shrank` updates re-read the post-shrink
    /// occupancy from the sketch itself.
    fn after_update(&mut self, started: Instant, shrank: bool) {
        let ns = nanos_since(started);
        if shrank {
            self.ledger.shrinks += 1;
            self.ledger.shrink_ns += ns;
            self.ledger.shrink_samples.push(ns);
            let probe = Instant::now();
            self.occupied = self.inner.sketch().rows();
            self.ledger.probe_ns += nanos_since(probe);
        } else {
            self.ledger.updates += 1;
            self.ledger.update_ns += ns;
            self.occupied += 1;
        }
    }

    fn resync(&mut self) {
        if self.compacts {
            self.occupied = self.inner.sketch().rows();
        }
    }
}

impl<S: MatrixSketch> MatrixSketch for TracedSketch<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn rows_seen(&self) -> u64 {
        self.inner.rows_seen()
    }

    fn update(&mut self, row: &[f64]) {
        let shrank = self.will_shrink();
        let started = Instant::now();
        self.inner.update(row);
        self.after_update(started, shrank);
    }

    fn update_sparse(&mut self, row: &SparseVec) {
        let shrank = self.will_shrink();
        let started = Instant::now();
        self.inner.update_sparse(row);
        self.after_update(started, shrank);
    }

    fn sketch(&self) -> Matrix {
        let started = Instant::now();
        let b = self.inner.sketch();
        self.copies.set(self.copies.get() + 1);
        self.copy_ns.set(self.copy_ns.get() + nanos_since(started));
        b
    }

    fn decay(&mut self, alpha: f64) {
        self.inner.decay(alpha);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.occupied = 0;
    }

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
        self.occupied = 0;
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.inner.set_recorder(recorder);
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stream_frobenius_sq(&self) -> f64 {
        self.inner.stream_frobenius_sq()
    }

    fn encode_state(&self, out: &mut ByteWriter) -> bool {
        self.inner.encode_state(out)
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<bool, WireError> {
        let restored = self.inner.decode_state(r);
        self.resync();
        restored
    }
}

/// Time spent in detector calls outside the sketch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorLedger {
    /// Every forwarded detector call, inclusive of the sketch.
    pub detector_ns: u64,
    /// `process` calls without a refresh: scoring and bookkeeping.
    pub score_ns: u64,
    /// `process` calls in which a refresh landed, minus their sketch time.
    pub refreshes: u64,
    pub refresh_ns: u64,
    pub refresh_samples: Vec<u64>,
    /// Points processed.
    pub points: u64,
}

/// Everything one detector recorded over its life.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    pub sketch: SketchLedger,
    pub detector: DetectorLedger,
    /// Resident bytes of the sketch state.
    pub resident_bytes: u64,
    /// On-CPU time of the thread that dropped the detector (the shard
    /// worker), from `/proc/thread-self/schedstat`; `None` where the kernel
    /// does not provide it.
    pub worker_cpu_ns: Option<u64>,
}

/// Forwarding [`StreamingDetector`] that times every call.
pub struct TracedDetector<S: MatrixSketch> {
    inner: SketchDetector<TracedSketch<S>>,
    ledger: DetectorLedger,
    /// Time in calls that take `&self`.
    shared_ns: Cell<u64>,
    sink: LedgerSink,
}

impl<S: MatrixSketch> TracedDetector<S> {
    /// Wraps `inner`; the ledger goes to `sink` when the detector drops.
    pub fn new(inner: SketchDetector<TracedSketch<S>>, sink: LedgerSink) -> Self {
        Self {
            inner,
            ledger: DetectorLedger::default(),
            shared_ns: Cell::new(0),
            sink,
        }
    }

    /// The tallies so far.
    pub fn ledger(&self) -> Ledger {
        let mut detector = self.ledger.clone();
        detector.detector_ns += self.shared_ns.get();
        Ledger {
            sketch: self.inner.sketch().ledger(),
            detector,
            resident_bytes: self.inner.sketch().resident_bytes() as u64,
            worker_cpu_ns: None,
        }
    }

    fn timed<R>(&self, f: impl FnOnce(&SketchDetector<TracedSketch<S>>) -> R) -> R {
        let started = Instant::now();
        let r = f(&self.inner);
        self.shared_ns
            .set(self.shared_ns.get() + nanos_since(started));
        r
    }

    fn timed_mut<R>(&mut self, f: impl FnOnce(&mut SketchDetector<TracedSketch<S>>) -> R) -> R {
        let started = Instant::now();
        let r = f(&mut self.inner);
        self.ledger.detector_ns += nanos_since(started);
        r
    }
}

/// On-CPU nanoseconds of the calling thread.
fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

impl<S: MatrixSketch> Drop for TracedDetector<S> {
    fn drop(&mut self) {
        let mut ledger = self.ledger();
        ledger.worker_cpu_ns = thread_cpu_ns();
        // A poisoned sink only means another detector panicked mid-push;
        // the vector itself is still valid.
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.push(ledger);
    }
}

impl<S: MatrixSketch> StreamingDetector for TracedDetector<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn process(&mut self, y: &[f64]) -> f64 {
        let sketch_before = self.inner.sketch().inside_ns();
        let refreshes_before = self.inner.refresh_count();
        let started = Instant::now();
        let score = self.inner.process(y);
        let total = nanos_since(started);
        let own = total.saturating_sub(self.inner.sketch().inside_ns() - sketch_before);
        if self.inner.refresh_count() != refreshes_before {
            self.ledger.refreshes += 1;
            self.ledger.refresh_ns += own;
            self.ledger.refresh_samples.push(own);
        } else {
            self.ledger.score_ns += own;
        }
        self.ledger.detector_ns += total;
        self.ledger.points += 1;
        score
    }

    fn processed(&self) -> u64 {
        self.inner.processed()
    }

    fn is_warmed_up(&self) -> bool {
        self.inner.is_warmed_up()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn current_model(&self) -> Option<&SubspaceModel> {
        let started = Instant::now();
        let model = self.inner.current_model();
        self.shared_ns
            .set(self.shared_ns.get() + nanos_since(started));
        model
    }

    fn score_only(&self, y: &[f64]) -> Option<f64> {
        self.timed(|d| StreamingDetector::score_only(d, y))
    }

    fn adopt_model(&mut self, model: &SubspaceModel) -> bool {
        self.timed_mut(|d| d.adopt_model(model))
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.timed(|d| d.save_state(out))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<bool, WireError> {
        self.timed_mut(|d| d.restore_state(bytes))
    }

    fn set_external_refresh(&mut self, enabled: bool) -> bool {
        self.timed_mut(|d| d.set_external_refresh(enabled))
    }

    fn refresh_task(&self) -> Option<RefreshTask> {
        self.timed(|d| d.refresh_task())
    }

    fn sketch_resident_bytes(&self) -> Option<usize> {
        self.inner.sketch_resident_bytes()
    }

    /// Forwarded one row at a time, so that a refresh lands in exactly one
    /// timed call. Scores are bitwise identical to the batched path (the
    /// benchmark checks every traced session against the reference).
    fn process_batch(&mut self, ys: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(ys.len());
        for y in ys {
            let score = self.process(y);
            out.push(score);
        }
    }
}

//! Input generation, the measured phases, the correctness check and the
//! metric report.

use crate::proc_stats::{median, peak_rss_mb, quantile_u64, score_digest};
use crate::serve_adapter::{serve_session, EngineMode, SessionOutcome, SessionPlan};
use crate::traced::{Ledger, LedgerSink};
use crate::workload::{Pacing, SketchKind, Workload, CLI_DURABILITY, MAX_BATCH, WARMUP};
use sketchad_core::rowfmt::RowsView;
use sketchad_core::{MmapRows, SketchDetector, StreamingDetector};
use sketchad_linalg::{eigen::eigen_sym, svd::svd_thin, Matrix};
use sketchad_sketch::MatrixSketch;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up probes after each measured session of an untraced run;
/// `setup_s` is their median. Spreading them over the run keeps a brief
/// slow spell of the host from setting the whole run's figure. Single
/// probes of `fd-live-d48` range over 0.13-0.44 ms, so a run takes a few
/// hundred of them (each costs about a millisecond).
const PROBES_PER_SESSION: usize = 16;
/// Fewest sessions a measured phase runs, whatever its time budget.
const MIN_SESSIONS: usize = 3;
/// Recovery probes per traced run of a durable workload.
const RECOVER_PROBES: usize = 3;
/// Time budget for each decomposition kernel timing.
const KERNEL_BUDGET: Duration = Duration::from_millis(400);
/// Time budget for the single-threaded baseline.
const DIRECT_BUDGET: Duration = Duration::from_millis(1500);

/// Where one workload's files live for one seed.
pub struct WorkFiles {
    pub rows: PathBuf,
    pub reference: PathBuf,
    pub state: PathBuf,
}

impl WorkFiles {
    pub fn new(work: &Path, w: &Workload, seed: u64) -> Self {
        Self {
            rows: work.join(format!("{}-{seed}.rows", w.name)),
            reference: work.join(format!("{}-{seed}.ref", w.name)),
            state: work.join(format!("state-{}", w.name)),
        }
    }
}

/// Generates the seeded input for `w` and its reference scores.
///
/// # Errors
/// Filesystem failures.
pub fn generate(w: &Workload, seed: u64, work: &Path) -> Result<(), String> {
    let files = WorkFiles::new(work, w, seed);
    generate_files(w, &files, seed, w.session_rows)
}

/// Writes `rows` generated rows as a `sketchad-rows/v1` file with the
/// labels in the key column, and their reference scores: a single-threaded
/// `SketchDetector::process` pass over the written file.
///
/// # Errors
/// Filesystem failures.
pub fn generate_files(
    w: &Workload,
    files: &WorkFiles,
    seed: u64,
    rows: usize,
) -> Result<(), String> {
    if let Some(dir) = files.rows.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let stream = sketchad_streams::generate_low_rank_stream(w.stream_config(rows, seed));
    sketchad_streams::write_rows(&stream, &files.rows).map_err(|e| format!("write rows: {e}"))?;
    drop(stream);
    let input = MmapRows::open(&files.rows).map_err(|e| format!("reopen rows: {e}"))?;
    let view = input.view();
    let cfg = w.detector_config();
    let scores = match w.sketch {
        SketchKind::Fd => reference_scores(cfg.build_fd(w.d), &view),
        SketchKind::Rs => reference_scores(cfg.build_rs(w.d), &view),
    };
    let bytes: Vec<u8> = scores.iter().flat_map(|s| s.to_le_bytes()).collect();
    std::fs::write(&files.reference, bytes).map_err(|e| format!("write reference: {e}"))
}

fn reference_scores<S: MatrixSketch>(mut det: SketchDetector<S>, view: &RowsView<'_>) -> Vec<f64> {
    let mut row = vec![0.0; view.dim()];
    (0..view.len())
        .map(|i| {
            view.read_row_into(i, &mut row).expect("index in range");
            det.process(&row)
        })
        .collect()
}

fn read_reference(path: &Path) -> Result<Vec<f64>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read reference: {e}"))?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// One measured session, reduced to what the report needs.
#[derive(Debug, Clone, Default)]
struct Session {
    setup_s: f64,
    wall_s: f64,
    worker_wall_s: f64,
    cpu_s: f64,
    points: u64,
    failed: u64,
    digest: u64,
    scored: usize,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    lag_p99_ms: f64,
    queue_depths: Vec<u64>,
    queue_high_water: u64,
    poll_interval_us: f64,
    submit_s: f64,
    finish_s: f64,
    decode_s: f64,
    ledger: Option<Ledger>,
}

impl Session {
    /// Reduces `o`, leaving its score sequence in place.
    fn from_outcome(o: &mut SessionOutcome) -> Self {
        Self {
            setup_s: o.setup_s(),
            wall_s: o.wall_s,
            worker_wall_s: o.worker_wall_s,
            cpu_s: o.cpu_s,
            points: o.submitted,
            failed: o.failed,
            digest: score_digest(o.scores.iter().map(|&(_, s)| s)),
            scored: o.scores.len(),
            latency_p50_ms: ms(quantile_u64(&mut o.latency_ns, 0.50)),
            latency_p99_ms: ms(quantile_u64(&mut o.latency_ns, 0.99)),
            lag_p99_ms: ms(quantile_u64(&mut o.lag_ns, 0.99)),
            queue_depths: std::mem::take(&mut o.queue_depths),
            queue_high_water: o.queue_high_water,
            poll_interval_us: if o.polls > 1 {
                o.poll_span_s / (o.polls - 1) as f64 * 1e6
            } else {
                0.0
            },
            submit_s: o.submit_s,
            finish_s: o.finish_s,
            decode_s: o.decode_s,
            ledger: None,
        }
    }

    fn throughput(&self) -> f64 {
        self.points as f64 / self.wall_s
    }

    fn cpu_us_per_pt(&self) -> f64 {
        self.cpu_s / self.points as f64 * 1e6
    }
}

/// Sessions of one phase, the set-up probes run between them, and the last
/// session's full score sequence.
struct Phase {
    sessions: Vec<Session>,
    setups: Vec<f64>,
    last_scores: Vec<(u64, f64)>,
}

fn ms(v: Option<u64>) -> f64 {
    v.map_or(0.0, |n| n as f64 / 1e6)
}

impl Phase {
    fn med(&self, f: impl Fn(&Session) -> f64) -> f64 {
        median(&self.sessions.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    fn sum(&self, f: impl Fn(&Session) -> f64) -> f64 {
        self.sessions.iter().map(f).sum()
    }

    /// All points over all session wall time.
    fn throughput(&self) -> f64 {
        self.sum(|s| s.points as f64) / self.sum(|s| s.wall_s)
    }

    /// All CPU time over all points.
    fn cpu_us_per_pt(&self) -> f64 {
        self.sum(|s| s.cpu_s) / self.sum(|s| s.points as f64) * 1e6
    }

    /// Cost of one point: wall time on closed loops, CPU time on the open
    /// loop (whose wall time the schedule fixes).
    fn cost_per_pt(&self, w: &Workload) -> f64 {
        match w.pacing {
            Pacing::Closed => 1.0 / self.throughput(),
            Pacing::Open { .. } => self.cpu_us_per_pt(),
        }
    }
}

fn reset_state(files: &WorkFiles) -> Result<(), String> {
    match std::fs::remove_dir_all(&files.state) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("clear {}: {e}", files.state.display())),
    }
}

/// Set-up time of an engine over a fresh state directory that streams no
/// rows.
fn setup_probe(w: &'static Workload, files: &WorkFiles) -> Result<f64, String> {
    reset_state(files)?;
    let probe = serve_session(&SessionPlan {
        workload: w,
        rows_path: &files.rows,
        durability: w.durability,
        state_dir: &files.state,
        mode: EngineMode::Plain,
        rows: 0,
    })?;
    Ok(probe.setup_s())
}

/// Runs sessions of `mode` until `budget` of session wall time is used
/// (at least `min_sessions`), with `probes` set-up probes after each.
fn run_phase(
    w: &'static Workload,
    files: &WorkFiles,
    mode: EngineMode,
    budget: Duration,
    min_sessions: usize,
    probes: usize,
) -> Result<Phase, String> {
    let mut sessions = Vec::new();
    let mut setups = Vec::new();
    let mut last_scores = Vec::new();
    let mut spent = 0.0;
    while sessions.len() < min_sessions || spent < budget.as_secs_f64() {
        reset_state(files)?;
        let mut outcome = serve_session(&SessionPlan {
            workload: w,
            rows_path: &files.rows,
            durability: w.durability,
            state_dir: &files.state,
            mode: mode.clone(),
            rows: w.session_rows,
        })?;
        spent += outcome.wall_s;
        let mut session = Session::from_outcome(&mut outcome);
        if let EngineMode::Traced(sink) = &mode {
            let mut ledgers =
                std::mem::take(&mut *sink.lock().map_err(|_| "ledger sink poisoned")?);
            if ledgers.len() != 1 {
                return Err(format!(
                    "expected one detector per session, got {}",
                    ledgers.len()
                ));
            }
            session.ledger = ledgers.pop();
        }
        sessions.push(session);
        last_scores = std::mem::take(&mut outcome.scores);
        for _ in 0..probes {
            setups.push(setup_probe(w, files)?);
        }
    }
    Ok(Phase {
        sessions,
        setups,
        last_scores,
    })
}

/// One untimed session before the measured ones, so that page-cache,
/// allocator and file-system start-up costs land outside the metrics. Its
/// scores are still checked.
fn warm_up(w: &'static Workload, files: &WorkFiles) -> Result<Phase, String> {
    run_phase(w, files, EngineMode::Plain, Duration::ZERO, 1, 0)
}

/// Per-session counts that the input fixes. For a given seed they repeat
/// exactly, so a perf gate can compare them without wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedCounts {
    pub points: u64,
    /// Every sketch `update` call, shrinking or not.
    pub updates: u64,
    pub fd_shrinks: u64,
    pub refreshes: u64,
    pub resident_bytes: u64,
    /// 0 for workloads without a WAL.
    pub wal_bytes_per_pt: f64,
}

impl FixedCounts {
    /// FD shrinks plus model refreshes per 1000 points.
    pub fn decomps_per_kpt(&self) -> f64 {
        (self.fd_shrinks + self.refreshes) as f64 * 1000.0 / self.points as f64
    }

    /// The counts of `ledgers`, which must all agree.
    fn of(ledgers: &[&Ledger], wal_bytes_per_pt: f64) -> Result<Self, String> {
        let key = |l: &Ledger| {
            (
                l.detector.points,
                l.sketch.updates + l.sketch.shrinks,
                l.sketch.shrinks,
                l.detector.refreshes,
                l.resident_bytes,
            )
        };
        let first = ledgers.first().ok_or("no traced session")?;
        if let Some(other) = ledgers.iter().find(|l| key(l) != key(first)) {
            return Err(format!(
                "fixed counts vary between sessions: {:?} vs {:?}",
                key(first),
                key(other)
            ));
        }
        let (points, updates, fd_shrinks, refreshes, resident_bytes) = key(first);
        Ok(Self {
            points,
            updates,
            fd_shrinks,
            refreshes,
            resident_bytes,
            wal_bytes_per_pt,
        })
    }
}

/// Runs one traced session of `rows` rows, checks its scores against the
/// reference, and returns its fixed counts.
///
/// # Errors
/// Engine failures, lost points, and scores that differ from the reference.
pub fn traced_counts(
    w: &'static Workload,
    files: &WorkFiles,
    rows: usize,
) -> Result<FixedCounts, String> {
    reset_state(files)?;
    let sink: LedgerSink = Arc::new(Mutex::new(Vec::new()));
    let outcome = serve_session(&SessionPlan {
        workload: w,
        rows_path: &files.rows,
        durability: w.durability,
        state_dir: &files.state,
        mode: EngineMode::Traced(Arc::clone(&sink)),
        rows,
    })?;
    let reference = read_reference(&files.reference)?;
    let matches = outcome.scores.len() == reference.len()
        && outcome
            .scores
            .iter()
            .zip(&reference)
            .all(|(&(_, s), r)| s.to_bits() == r.to_bits());
    if outcome.failed > 0 || !matches {
        return Err(format!(
            "{}: traced scores differ from the reference",
            w.name
        ));
    }
    let wal = match w.durability {
        Some(_) => wal_bytes_per_pt(&files.state)?,
        None => 0.0,
    };
    reset_state(files)?;
    let ledgers = std::mem::take(&mut *sink.lock().map_err(|_| "ledger sink poisoned")?);
    FixedCounts::of(&ledgers.iter().collect::<Vec<_>>(), wal)
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// A finished run, ready to print.
pub struct Report {
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// The one-line JSON result.
    pub json: String,
    /// Whether every score matched the reference and nothing failed.
    pub correct: bool,
}

/// What one invocation measures.
pub struct MeasureArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work: PathBuf,
}

/// Correctness bookkeeping across every session of a run.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Check {
    /// Compares every session of `phase` with the reference: the score
    /// digest of each session, and the last session score by score.
    fn phase(&mut self, label: &str, phase: &Phase, reference: &[f64]) {
        let expected = score_digest(reference.iter().copied());
        for (i, s) in phase.sessions.iter().enumerate() {
            self.attempted += s.points;
            self.failed += s.failed;
            if s.failed > 0 {
                self.problems.push(format!(
                    "{label} session {i}: {} of {} points failed",
                    s.failed, s.points
                ));
            }
            if s.scored != reference.len() || s.digest != expected {
                self.problems.push(format!(
                    "{label} session {i}: {} scores differ from the single-threaded reference",
                    s.scored
                ));
            }
        }
        let first_mismatch = phase
            .last_scores
            .iter()
            .enumerate()
            .find(|&(j, &(seq, score))| {
                seq != j as u64 || reference.get(j).map(|r| r.to_bits()) != Some(score.to_bits())
            });
        if let Some((j, &(seq, score))) = first_mismatch {
            self.problems.push(format!(
                "{label}: point {j} (seq {seq}) scored {score:?}, reference {:?}",
                reference.get(j)
            ));
        }
    }
}

fn auc(view: &RowsView<'_>, reference: &[f64]) -> Result<f64, String> {
    let mut row = vec![0.0; view.dim()];
    let labels: Vec<bool> = (0..view.len())
        .map(|i| view.read_row_into(i, &mut row).flatten().unwrap_or(0) != 0)
        .collect();
    let from = WARMUP.min(labels.len());
    sketchad_eval::roc_auc(&reference[from..], &labels[from..])
        .ok_or_else(|| "AUC undefined: the stream lacks one class after warmup".to_string())
}

/// Runs the measured phases for one invocation and checks the scores.
///
/// # Errors
/// Missing inputs, engine failures, and counts that should be fixed but
/// vary between sessions.
pub fn measure(args: &MeasureArgs) -> Result<Report, String> {
    let w = args.workload;
    let files = WorkFiles::new(&args.work, w, args.seed);
    let seconds = Duration::from_secs(args.seconds);
    let mut check = Check::default();
    let mut metrics = Metrics::default();
    let mut lines = Vec::new();
    if args.trace {
        measure_layers(w, &files, seconds, &mut check, &mut metrics, &mut lines)?;
    } else {
        measure_end_to_end(w, &files, seconds, &mut check, &mut metrics, &mut lines)?;
    }
    reset_state(&files)?;

    let correct = check.problems.is_empty();
    for p in &check.problems {
        lines.push(format!("INCORRECT: {p}"));
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        check.attempted, check.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
        lines.push(format!("metric {name} = {value} {unit}"));
    }
    json.push_str("}}");
    Ok(Report {
        lines,
        json,
        correct,
    })
}

fn measure_end_to_end(
    w: &'static Workload,
    files: &WorkFiles,
    seconds: Duration,
    check: &mut Check,
    metrics: &mut Metrics,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let warm = warm_up(w, files)?;
    let phase = run_phase(
        w,
        files,
        EngineMode::Plain,
        seconds,
        MIN_SESSIONS,
        PROBES_PER_SESSION,
    )?;
    let rss = peak_rss_mb().ok_or("VmHWM unavailable")?;
    let setups = &phase.setups;

    let reference = read_reference(&files.reference)?;
    check.phase("warm-up", &warm, &reference);
    check.phase("engine", &phase, &reference);
    let input = MmapRows::open(&files.rows).map_err(|e| format!("open rows: {e}"))?;
    let auc = auc(&input.view(), &reference)?;

    for (i, s) in phase.sessions.iter().enumerate() {
        lines.push(format!(
            "session {i}: {:.1} pts/s, {:.3} us/pt, latency p50 {:.3} ms p99 {:.3} ms, \
             setup {:.6} s, queue high-water {}",
            s.throughput(),
            s.cpu_us_per_pt(),
            s.latency_p50_ms,
            s.latency_p99_ms,
            s.setup_s,
            s.queue_high_water
        ));
    }
    let points: u64 = phase.sessions.iter().map(|s| s.points).sum();
    lines.push(format!(
        "{} sessions of {} points, {} set-up probes; fail_ratio = {} ratio",
        phase.sessions.len(),
        w.session_rows,
        setups.len(),
        check.failed as f64 / points.max(1) as f64
    ));
    metrics.put("throughput_pts_s", phase.throughput(), "pts/s");
    metrics.put("cpu_us_per_pt", phase.cpu_us_per_pt(), "us");
    metrics.put("latency_p50_ms", phase.med(|s| s.latency_p50_ms), "ms");
    metrics.put("latency_p99_ms", phase.med(|s| s.latency_p99_ms), "ms");
    metrics.put("setup_s", median(setups).unwrap_or(0.0), "s");
    metrics.put("peak_rss_mb", rss, "MiB");
    metrics.put("auc", auc, "ratio");
    Ok(())
}

/// Median wall time of `f` in milliseconds over at least five calls and
/// [`KERNEL_BUDGET`].
fn time_kernel(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || started.elapsed() < KERNEL_BUDGET {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples).unwrap_or(0.0)
}

/// The single-threaded baseline: `process_batch` over the rows in chunks of
/// the engine's micro-batch size, no engine. Returns the median pass
/// rate and the last pass's sketch.
fn direct_baseline<S: MatrixSketch>(
    make: impl Fn() -> SketchDetector<S>,
    view: &RowsView<'_>,
) -> (f64, Matrix) {
    let rows = view.len();
    let mut rates = Vec::new();
    let mut sketch = Matrix::zeros(0, 0);
    let mut buf = vec![vec![0.0; view.dim()]; MAX_BATCH];
    let mut out = Vec::with_capacity(MAX_BATCH);
    let started = Instant::now();
    while rates.is_empty() || started.elapsed() < DIRECT_BUDGET {
        let mut det = make();
        let t = Instant::now();
        for base in (0..rows).step_by(MAX_BATCH) {
            let k = MAX_BATCH.min(rows - base);
            for (j, row) in buf[..k].iter_mut().enumerate() {
                view.read_row_into(base + j, row).expect("index in range");
            }
            det.process_batch(&buf[..k], &mut out);
            std::hint::black_box(&out);
        }
        rates.push(rows as f64 / t.elapsed().as_secs_f64());
        sketch = det.sketch().sketch();
    }
    (median(&rates).unwrap_or(0.0), sketch)
}

/// The `2ℓ × d` matrix a shrink decomposes: the workload's own sketch,
/// topped up with input rows.
fn kernel_input(sketch: &Matrix, view: &RowsView<'_>, ell: usize) -> Matrix {
    let mut m = Matrix::zeros(2 * ell, view.dim());
    let mut row = vec![0.0; view.dim()];
    for i in 0..2 * ell {
        if i < sketch.rows() {
            m.set_row(i, sketch.row(i));
        } else {
            view.read_row_into(i - sketch.rows(), &mut row)
                .expect("index in range");
            m.set_row(i, &row);
        }
    }
    m
}

/// WAL bytes per logged row across the segments left in `state`.
fn wal_bytes_per_pt(state: &Path) -> Result<f64, String> {
    let dir = sketchad_durable::shard_dir(state, 0);
    let recovered = sketchad_durable::recover(&dir).map_err(|e| format!("recover scan: {e}"))?;
    let mut bytes = 0u64;
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.extension().and_then(|x| x.to_str()) == Some("skwl") {
            let len = entry.metadata().map_err(|e| e.to_string())?.len();
            bytes += len.saturating_sub(sketchad_durable::wal::WAL_HEADER_LEN as u64);
        }
    }
    let records = recovered.stats.wal_records_seen;
    if records == 0 {
        return Err("durable workload left no WAL records".into());
    }
    Ok(bytes as f64 / records as f64)
}

fn measure_layers(
    w: &'static Workload,
    files: &WorkFiles,
    seconds: Duration,
    check: &mut Check,
    metrics: &mut Metrics,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let budget = seconds / 2;
    let warm = warm_up(w, files)?;
    let plain = run_phase(w, files, EngineMode::Plain, budget, MIN_SESSIONS, 0)?;
    // The durable layer: the last plain session's state directory on a
    // workload with a WAL. A workload without one gets a side session with
    // the CLI's durability defaults, so the layer is still measured for its
    // shape while its own sessions stay WAL-free.
    let durability = w.durability.unwrap_or(CLI_DURABILITY);
    let plan = |rows| SessionPlan {
        workload: w,
        rows_path: &files.rows,
        durability: Some(durability),
        state_dir: &files.state,
        mode: EngineMode::Plain,
        rows,
    };
    let side = match w.durability {
        Some(_) => None,
        None => {
            reset_state(files)?;
            let mut outcome = serve_session(&plan(w.session_rows))?;
            Some(Phase {
                sessions: vec![Session::from_outcome(&mut outcome)],
                setups: Vec::new(),
                last_scores: std::mem::take(&mut outcome.scores),
            })
        }
    };
    let wal_bytes = wal_bytes_per_pt(&files.state)?;
    let mut recoveries = Vec::with_capacity(RECOVER_PROBES);
    for _ in 0..RECOVER_PROBES {
        recoveries.push(serve_session(&plan(0))?.engine_start_s);
    }
    let recover_s = median(&recoveries).unwrap_or(0.0);
    let sink: LedgerSink = Arc::new(Mutex::new(Vec::new()));
    let traced = run_phase(w, files, EngineMode::Traced(sink), budget, MIN_SESSIONS, 0)?;
    let instrumented = run_phase(w, files, EngineMode::Instrumented, budget, MIN_SESSIONS, 0)?;

    let reference = read_reference(&files.reference)?;
    check.phase("warm-up", &warm, &reference);
    check.phase("plain", &plain, &reference);
    if let Some(side) = &side {
        check.phase("durable side session", side, &reference);
    }
    check.phase("traced", &traced, &reference);
    check.phase("instrumented", &instrumented, &reference);

    let input = MmapRows::open(&files.rows).map_err(|e| format!("open rows: {e}"))?;
    let view = input.view();
    let cfg = w.detector_config();
    let (direct_pts_s, sketch) = match w.sketch {
        SketchKind::Fd => direct_baseline(|| cfg.build_fd(w.d), &view),
        SketchKind::Rs => direct_baseline(|| cfg.build_rs(w.d), &view),
    };
    let m = kernel_input(&sketch, &view, w.ell);
    let gram = if m.rows() <= m.cols() {
        m.outer_gram()
    } else {
        m.gram()
    };
    let svd_ms = time_kernel(|| {
        std::hint::black_box(svd_thin(std::hint::black_box(&m)).expect("finite kernel input"));
    });
    let eigen_ms = time_kernel(|| {
        std::hint::black_box(eigen_sym(std::hint::black_box(&gram)).expect("finite Gram"));
    });

    let ledgers: Vec<&Ledger> = traced
        .sessions
        .iter()
        .filter_map(|s| s.ledger.as_ref())
        .collect();
    let n_sessions = ledgers.len() as f64;
    let counts = FixedCounts::of(&ledgers, wal_bytes)?;
    let mean_s = |f: &dyn Fn(&Ledger) -> u64| -> f64 {
        ledgers.iter().map(|l| f(l)).sum::<u64>() as f64 / n_sessions / 1e9
    };
    let p99_ms = |f: &dyn Fn(&Ledger) -> &Vec<u64>| -> f64 {
        let mut pooled: Vec<u64> = ledgers.iter().flat_map(|l| f(l).iter().copied()).collect();
        ms(quantile_u64(&mut pooled, 0.99))
    };

    let worker_wall = traced.med(|s| s.worker_wall_s);
    let mean_frac = |f: &dyn Fn(&Session, &Ledger) -> f64| -> f64 {
        let v: Vec<f64> = traced
            .sessions
            .iter()
            .filter_map(|s| s.ledger.as_ref().map(|l| f(s, l)))
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    // Wall time outside the timed calls: channel pop, publish, WAL append,
    // and waiting for rows.
    let unattributed =
        mean_frac(&|s, l| 1.0 - l.detector.detector_ns as f64 / 1e9 / s.worker_wall_s);
    // Off-CPU share of the worker's wall time: waiting for rows, or
    // runnable but preempted. It overlaps both the timed calls and the
    // unattributed remainder, so it is not a term of the ledger.
    let idle = mean_frac(&|s, l| {
        l.worker_cpu_ns
            .map_or(0.0, |ns| 1.0 - ns as f64 / 1e9 / s.worker_wall_s)
    });

    let depths: Vec<f64> = plain
        .sessions
        .iter()
        .flat_map(|s| s.queue_depths.iter().map(|&d| d as f64))
        .collect();
    let plain_cost = plain.cost_per_pt(w);

    let sk = |f: &dyn Fn(&Ledger) -> u64| mean_s(f);
    let parts = [
        ("sketch.update_s", sk(&|l| l.sketch.update_ns)),
        ("sketch.fd_shrink_s", sk(&|l| l.sketch.shrink_ns)),
        ("sketch.copy_s", sk(&|l| l.sketch.copy_ns)),
        ("core.score_s", sk(&|l| l.detector.score_ns)),
        ("core.refresh_s", sk(&|l| l.detector.refresh_ns)),
    ];
    let detector_s = sk(&|l| l.detector.detector_ns);
    let wall_mean = traced.sessions.iter().map(|s| s.worker_wall_s).sum::<f64>() / n_sessions;
    lines.push(format!(
        "ledger: mean per traced session ({} sessions, {} points), worker wall {wall_mean:.6} s",
        ledgers.len(),
        counts.points
    ));
    let mut accounted = 0.0;
    for (name, s) in parts {
        accounted += s;
        lines.push(format!(
            "  {name:<28} {s:>12.6} s {:>6.2}%",
            100.0 * s / wall_mean
        ));
    }
    let other = detector_s - accounted;
    lines.push(format!(
        "  {:<28} {other:>12.6} s {:>6.2}%",
        "other detector calls",
        100.0 * other / wall_mean
    ));
    lines.push(format!(
        "  {:<28} {:>12.6} s {:>6.2}%",
        "bench.unattributed",
        unattributed * wall_mean,
        100.0 * unattributed
    ));
    lines.push(format!(
        "  (worker off-CPU, overlapping the rows above: {:.6} s, {:.2}%)",
        idle * wall_mean,
        100.0 * idle
    ));
    lines.push(format!(
        "direct baseline {direct_pts_s:.1} pts/s; kernels on a {}x{} matrix, Gram {}x{}",
        m.rows(),
        m.cols(),
        gram.rows(),
        gram.cols()
    ));

    for (name, s) in parts.iter().take(3) {
        metrics.put(name, *s, "s");
    }
    metrics.put("sketch.updates", counts.updates as f64, "count");
    metrics.put("sketch.fd_shrinks", counts.fd_shrinks as f64, "count");
    metrics.put(
        "sketch.fd_shrink_p99_ms",
        p99_ms(&|l| &l.sketch.shrink_samples),
        "ms",
    );
    metrics.put(
        "sketch.resident_bytes",
        counts.resident_bytes as f64,
        "bytes",
    );
    metrics.put("core.detector_s", detector_s, "s");
    metrics.put("core.score_s", parts[3].1, "s");
    metrics.put("core.refresh_s", parts[4].1, "s");
    metrics.put("core.refreshes", counts.refreshes as f64, "count");
    metrics.put(
        "core.refresh_p99_ms",
        p99_ms(&|l| &l.detector.refresh_samples),
        "ms",
    );
    metrics.put("core.rowfmt_decode_s", traced.med(|s| s.decode_s), "s");
    metrics.put("core.direct_pts_s", direct_pts_s, "pts/s");
    metrics.put("linalg.svd_thin_ms", svd_ms, "ms");
    metrics.put("linalg.eigen_sym_ms", eigen_ms, "ms");
    metrics.put(
        "linalg.decomps_per_kpt",
        counts.decomps_per_kpt(),
        "count/kpt",
    );
    metrics.put("serve.submit_s", traced.med(|s| s.submit_s), "s");
    metrics.put("serve.finish_s", traced.med(|s| s.finish_s), "s");
    metrics.put(
        "serve.queue_depth_p50",
        median(&depths).unwrap_or(0.0),
        "count",
    );
    metrics.put(
        "serve.queue_high_water",
        plain
            .sessions
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    metrics.put(
        "serve.overhead_frac",
        1.0 - plain.throughput() / direct_pts_s,
        "ratio",
    );
    metrics.put("durable.wal_bytes_per_pt", counts.wal_bytes_per_pt, "bytes");
    metrics.put("durable.recover_s", recover_s, "s");
    metrics.put(
        "obs.recorder_overhead_frac",
        1.0 - plain_cost / instrumented.cost_per_pt(w),
        "ratio",
    );
    metrics.put(
        "bench.tracing_overhead_frac",
        1.0 - plain_cost / traced.cost_per_pt(w),
        "ratio",
    );
    metrics.put("bench.unattributed_frac", unattributed, "ratio");
    metrics.put("bench.worker_idle_frac", idle, "ratio");
    metrics.put("bench.worker_wall_s", worker_wall, "s");
    metrics.put(
        "bench.generator_lag_p99_ms",
        plain.med(|s| s.lag_p99_ms),
        "ms",
    );
    metrics.put(
        "bench.poll_interval_us",
        plain.med(|s| s.poll_interval_us),
        "us",
    );
    Ok(())
}

//! The work counters a wall-time-free perf gate would compare must repeat
//! exactly for a fixed seed: FD shrinks, model refreshes, decompositions
//! per 1000 points, sketch resident bytes and WAL bytes per point.

use sketchad_perfbench::runner::{generate_files, traced_counts, WorkFiles};
use sketchad_perfbench::workload::{SketchKind, Workload, WORKLOADS};
use std::path::PathBuf;

/// Rows per session here: enough for several shrinks and refreshes past
/// the 256-point warmup, small enough for an unoptimised build. Durable
/// sessions pass a checkpoint, so WAL segments survive the final one.
fn rows_for(w: &Workload) -> usize {
    match w.durability {
        Some(d) => d.checkpoint_every as usize + 1_000,
        None if w.d >= 100 => 600,
        None => 2_000,
    }
}

#[test]
fn counts_repeat_exactly_for_a_fixed_seed() {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("deterministic_counts");
    for w in &WORKLOADS {
        let files = WorkFiles::new(&work, w, 7);
        let rows = rows_for(w);
        generate_files(w, &files, 7, rows).expect("generate input");
        let first = traced_counts(w, &files, rows).expect("first traced session");
        let second = traced_counts(w, &files, rows).expect("second traced session");
        assert_eq!(first, second, "{}: counts differ between runs", w.name);

        assert_eq!(first.points, rows as u64, "{}", w.name);
        assert!(first.refreshes > 0, "{}: no refresh", w.name);
        assert!(first.resident_bytes > 0, "{}", w.name);
        if w.sketch == SketchKind::Fd {
            assert!(first.fd_shrinks > 0, "{}: no FD shrink", w.name);
        } else {
            assert_eq!(first.fd_shrinks, 0, "{}", w.name);
        }
        assert_eq!(
            first.wal_bytes_per_pt > 0.0,
            w.durability.is_some(),
            "{}: WAL bytes only where the workload is durable",
            w.name
        );
    }
    std::fs::remove_dir_all(&work).expect("remove test files");
}

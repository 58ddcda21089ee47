//! Layer-ledger benchmark for the sketchad serving path.
//!
//! One run pushes a generated low-rank stream through `ServeEngine` (the
//! entry point `sketchad pipeline` uses) with one producer and one shard,
//! checks every score bitwise against a single-threaded
//! `SketchDetector::process` reference, and reports either the end-to-end
//! metrics (untraced) or a per-layer ledger (traced). `perfbench/README.md`
//! describes the workloads, the metrics and how to run it.

pub mod proc_stats;
pub mod runner;
pub mod serve_adapter;
pub mod traced;
pub mod workload;

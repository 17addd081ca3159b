//! hatdb's benchmark: end-to-end metrics from untraced runs, per-layer
//! attribution from a separate traced run, and a correctness gate after
//! every measured window. `src/main.rs` is the command line; the
//! definitions live in `BENCHMARK.json` at the repository root and in
//! `perfbench/README.md`.

pub mod bench;
pub mod gate;
pub mod layers;
pub mod measure;
pub mod report;
pub mod rt;
pub mod sim;
pub mod spans;
pub mod workloads;

/// Where the benchmark writes span dumps and scratch stores.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

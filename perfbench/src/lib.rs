//! The repository benchmark.
//!
//! Three workloads — `label_wire`, `er_stream`, `label_rerun` — each run
//! as one closed-loop client; `--trace 0` reports the end-to-end metrics
//! and `--trace 1` the per-layer breakdown of a separate traced run. See
//! `perfbench/README.md` for what each metric means and why each workload
//! was chosen.

pub mod run;
pub mod trace;
pub mod workloads;

//! Checks of the benchmark itself, on tiny inputs.

use reprowd_core::hash::fnv1a;
use reprowd_perfbench::run::{run, RunConfig};
use reprowd_perfbench::trace::Tracer;
use reprowd_perfbench::workloads::{
    build_stack, dir_digest, er_job, label_job, label_objects, prepare_rerun, row_digests, ErInput,
    Res, Sizes, Workload,
};
use reprowd_platform::CrowdPlatform;
use std::path::{Path, PathBuf};

/// What one job leaves behind that tracing must not change.
#[derive(Debug, Clone, PartialEq, Eq)]
struct JobFacts {
    /// Per-row output digests (label jobs), or one digest of the matched
    /// pairs and the candidate count (the join).
    outputs: Vec<(u64, u64)>,
    /// The platform's API-call meter.
    api_calls: u64,
    /// Digest of the database directory after the job.
    db_digest: u64,
}

/// Runs `w`'s job once over the database at `db_dir` (which must hold the
/// prepared database for `label_rerun`), traced or not.
fn job_facts(w: Workload, seed: u64, sizes: Sizes, db_dir: &Path, traced: bool) -> Res<JobFacts> {
    let tracer = traced.then(Tracer::new);
    std::fs::create_dir_all(db_dir)?;
    let stack = build_stack(w, seed, db_dir, tracer.as_ref())?;
    let outputs = match w {
        Workload::ErStream => {
            let input = ErInput::generate(sizes.er_pairs, seed);
            let out = er_job(&stack.cc, &input, tracer.as_deref())?;
            vec![(
                fnv1a(format!("{:?}", out.matched).as_bytes()),
                out.n_candidates as u64,
            )]
        }
        Workload::LabelWire | Workload::LabelRerun => {
            let rows = if w == Workload::LabelWire {
                sizes.label_rows
            } else {
                sizes.rerun_rows
            };
            row_digests(&label_job(
                &stack.cc,
                label_objects(rows, seed),
                tracer.as_deref(),
            )?)
        }
    };
    let api_calls = stack.sim.api_calls();
    drop(stack);
    Ok(JobFacts {
        outputs,
        api_calls,
        db_digest: dir_digest(db_dir)?,
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The wrappers only observe: a traced job leaves the same columns, API
/// calls and database bytes as an untraced one.
#[test]
fn tracing_changes_no_output() {
    for w in Workload::ALL {
        let dir = scratch(&format!("trace-{}", w.name()));
        let (plain, traced) = (dir.join("plain"), dir.join("traced"));
        if w == Workload::LabelRerun {
            prepare_rerun(&plain, Sizes::TINY.rerun_rows, 7).unwrap();
            prepare_rerun(&traced, Sizes::TINY.rerun_rows, 7).unwrap();
        }
        let a = job_facts(w, 7, Sizes::TINY, &plain, false).unwrap();
        let b = job_facts(w, 7, Sizes::TINY, &traced, true).unwrap();
        assert_eq!(a, b, "{}: tracing changed the job", w.name());
        if w == Workload::LabelRerun {
            assert_eq!(a.api_calls, 0, "a rerun makes no platform calls");
        } else {
            assert!(a.api_calls > 0);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// `label_rerun` prepares its database without the wire wrapper; that is
/// only sound if the wrapper changes no stored byte.
#[test]
fn wire_latency_changes_no_stored_byte() {
    let dir = scratch("wire");
    let sizes = Sizes {
        rerun_rows: Sizes::TINY.label_rows,
        ..Sizes::TINY
    };
    let wired = job_facts(Workload::LabelWire, 3, sizes, &dir.join("wired"), false).unwrap();
    let prepared = prepare_rerun(&dir.join("prepared"), sizes.rerun_rows, 3).unwrap();
    assert_eq!(wired.db_digest, prepared.db_digest);
    assert_eq!(wired.outputs, prepared.digests);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Every metric the command prints is declared in `BENCHMARK.json` with
/// the same unit, and every declared metric is printed; every check passes.
#[test]
fn printed_metrics_match_the_declaration() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    let declared = |key: &str| -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = bench[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().into(),
                    m["unit"].as_str().unwrap().into(),
                )
            })
            .collect();
        v.sort();
        v
    };
    let workloads: Vec<String> = bench["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap().to_string())
        .collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_string()).to_vec()
    );
    for w in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload: w,
                seed: 5,
                seconds: 0.0,
                trace,
                sizes: Sizes::TINY,
                work_dir: scratch(&format!("names-{}-{trace}", w.name())),
                exe: PathBuf::from(env!("CARGO_BIN_EXE_reprowd-perfbench")),
            };
            let out = run(&cfg).unwrap();
            assert!(
                out.correct,
                "{} trace={trace}: {:?}",
                w.name(),
                out.problems
            );
            assert_eq!(out.failed, 0);
            let mut printed: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            printed.sort();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(printed, declared(key), "{} trace={trace}", w.name());
            let line: serde_json::Value = serde_json::from_str(&out.result_line()).unwrap();
            assert_eq!(line["metrics"].as_object().unwrap().len(), printed.len());
            assert!(!cfg.work_dir.exists(), "the run removes its work directory");
        }
    }
}

//! One benchmark run: set up a workload's inputs, repeat its job for the
//! run's duration, check every output, and report the metrics.

use crate::trace::{summarize, Tracer};
use crate::workloads::{
    build_stack, cell_decode_pass, check_er, dir_digest, er_job, expected_label_api_calls,
    hashing_pass, label_job, label_objects, label_reference, read_reference, row_digests,
    rows_differing, simjoin_drain, ErInput, LabelReference, RerunReference, Res, Sizes, Workload,
    RTT,
};
use reprowd_core::exec::ExecutionConfig;
use reprowd_core::value::Value;
use reprowd_platform::CrowdPlatform;
use reprowd_storage::Backend;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics (`--trace 0`): name and unit.
pub(crate) const END_TO_END: [(&str, &str); 6] = [
    ("job_s", "s"),
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("db_mib", "MiB"),
    ("peak_rss_mib", "MiB"),
    ("rows_ok_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("core.data_ms", "ms"),
    ("core.publish_ms", "ms"),
    ("core.collect_ms", "ms"),
    ("core.canonical_ms", "ms"),
    ("core.fnv_ms", "ms"),
    ("core.cell_decode_ms", "ms"),
    ("core.publish_rows_per_call", "rows/call"),
    ("core.probe_calls", "count"),
    ("core.round_trips", "count"),
    ("core.peak_inflight_rows", "count"),
    ("platform.api_calls", "count"),
    ("platform.gate_wait_ms", "ms"),
    ("platform.gate_wait_ms_p50", "ms"),
    ("platform.gate_wait_ms_tail", "ms"),
    ("platform.gate_wait_ms_tail_pct", "pct"),
    ("platform.gate_wait_n", "count"),
    ("platform.effect_ms.publish", "ms"),
    ("platform.effect_ms.fetch", "ms"),
    ("platform.effect_ms.probe", "ms"),
    ("platform.effect_ms.wait", "ms"),
    ("platform.effect_calls.publish", "count"),
    ("platform.effect_calls.fetch", "count"),
    ("platform.effect_calls.probe", "count"),
    ("platform.effect_calls.wait", "count"),
    ("platform.wire_ms", "ms"),
    ("platform.wire_round_trips", "count"),
    ("sim.events", "count"),
    ("sim.drive_ms", "ms"),
    ("sim.events_per_s", "1/s"),
    ("storage.commits", "count"),
    ("storage.commit_ms", "ms"),
    ("storage.commit_ms_p50", "ms"),
    ("storage.commit_ms_tail", "ms"),
    ("storage.commit_ms_tail_pct", "pct"),
    ("storage.user_bytes", "B"),
    ("storage.write_amp", "ratio"),
    ("storage.gets", "count"),
    ("storage.get_ms", "ms"),
    ("storage.hit_ratio", "ratio"),
    ("storage.open_ms", "ms"),
    ("storage.replayed_records", "count"),
    ("storage.segments", "count"),
    ("simjoin.stream_ms", "ms"),
    ("simjoin.candidates", "count"),
    ("simjoin.candidates_per_s", "1/s"),
    ("operators.crowd_reviewed", "count"),
    ("operators.peak_inflight_pairs", "count"),
    ("quality.majority_vote_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("job.untraced_s", "s"),
    ("job.traced_s", "s"),
    ("core.presenter_ms", "ms"),
];

/// Setups timed per repetition on workloads that start from an empty
/// database (a fresh setup takes well under a millisecond, so one sample
/// per repetition would be mostly noise).
const FRESH_SETUP_SAMPLES: usize = 25;

/// Fewest repetitions per measured mode, whatever the duration.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input and crowd seed.
    pub seed: u64,
    /// Measurement duration.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for databases (created, then removed).
    pub work_dir: PathBuf,
    /// This executable: `label_rerun`'s database is made by a child
    /// process of it, so the run's peak RSS is the rerun's own.
    pub exe: PathBuf,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No check failed.
    pub correct: bool,
    /// Rows attempted across all repetitions.
    pub attempted: u64,
    /// Rows without a verified result.
    pub failed: u64,
    /// The metrics of the run's mode, in declaration order.
    pub metrics: Vec<Metric>,
    /// Why checks failed.
    pub problems: Vec<String>,
    /// Where and on what the run was made.
    pub provenance: Value,
    /// The last traced repetition's spans as CSV (trace mode only).
    pub spans_csv: Option<String>,
}

/// Inputs and references made once per run, before measuring.
enum Inputs {
    Label {
        objects: Vec<Value>,
        reference: LabelReference,
    },
    Er {
        input: ErInput,
        candidates: Vec<(usize, usize)>,
        drain_ms: Vec<f64>,
    },
    Rerun {
        objects: Vec<Value>,
        reference: RerunReference,
        db_dir: PathBuf,
    },
}

/// Counts that must repeat exactly across repetitions of one seed.
type Counts = [u64; 5];

/// One repetition's measurements.
struct Rep {
    setup_s: Vec<f64>,
    job_s: f64,
    rows: u64,
    attempted: u64,
    failed: u64,
    db_bytes: u64,
    counts: Counts,
    problems: Vec<String>,
    layers: BTreeMap<&'static str, f64>,
    spans_csv: Option<String>,
}

/// Median of `v` (0 for an empty slice).
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(cfg: &RunConfig, inputs: &Inputs) -> Value {
    let ec = ExecutionConfig::default();
    let input_sizes = match inputs {
        Inputs::Label { objects, .. } | Inputs::Rerun { objects, .. } => {
            serde_json::json!({ "label_rows": objects.len() })
        }
        Inputs::Er {
            input, candidates, ..
        } => serde_json::json!({
            "er_records": input.records.len(),
            "candidate_pairs": candidates.len(),
        }),
    };
    serde_json::json!({
        "workload": cfg.workload.name(),
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "trace": cfg.trace,
        "host_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rtt_ms": if cfg.workload.wired() { RTT.as_secs_f64() * 1e3 } else { 0.0 },
        "sync_policy": "Never",
        "execution_config": {
            "batch_size": ec.batch_size,
            "inflight_batches": ec.inflight_batches,
            "sim_shards": 1,
            "max_segment_bytes": ec.segment_policy.max_segment_bytes,
            "compact_garbage_ratio": ec.segment_policy.compact_garbage_ratio,
        },
        "client": "one closed-loop client",
        "input_sizes": input_sizes,
        "git_commit": git_commit(),
    })
}

fn make_inputs(cfg: &RunConfig) -> Res<Inputs> {
    Ok(match cfg.workload {
        Workload::LabelWire => {
            let objects = label_objects(cfg.sizes.label_rows, cfg.seed);
            let reference = label_reference(&objects, cfg.seed)?;
            Inputs::Label { objects, reference }
        }
        Workload::ErStream => {
            let input = ErInput::generate(cfg.sizes.er_pairs, cfg.seed);
            let (candidates, ms) = simjoin_drain(&input.records);
            Inputs::Er {
                input,
                candidates,
                drain_ms: vec![ms],
            }
        }
        Workload::LabelRerun => {
            let db_dir = cfg.work_dir.join("rerun-db");
            let reference = prepare(cfg, &db_dir)?;
            Inputs::Rerun {
                objects: label_objects(cfg.sizes.rerun_rows, cfg.seed),
                reference,
                db_dir,
            }
        }
    })
}

/// Makes `label_rerun`'s database with an untimed earlier run of the job.
fn prepare(cfg: &RunConfig, db_dir: &Path) -> Res<RerunReference> {
    let ref_path = cfg.work_dir.join("rerun-reference.txt");
    let status = std::process::Command::new(&cfg.exe)
        .arg("--prepare-rerun")
        .arg(db_dir)
        .arg(&ref_path)
        .args(["--rows", &cfg.sizes.rerun_rows.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .stdout(std::process::Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("preparing the rerun database failed: {status}").into());
    }
    read_reference(&ref_path)
}

/// Runs one repetition: set up, run the job, check it.
fn run_rep(cfg: &RunConfig, inputs: &mut Inputs, traced: bool, db_dir: &Path) -> Res<Rep> {
    let w = cfg.workload;
    let mut setup_s = Vec::new();
    if w.fresh() && !traced {
        for k in 0..FRESH_SETUP_SAMPLES - 1 {
            let dir = cfg.work_dir.join(format!("setup-{k}"));
            std::fs::create_dir_all(&dir)?;
            let start = Instant::now();
            let stack = build_stack(w, cfg.seed, &dir, None)?;
            setup_s.push(start.elapsed().as_secs_f64());
            drop(stack);
            std::fs::remove_dir_all(&dir)?;
        }
    }
    let mut problems = Vec::new();
    let tracer = traced.then(Tracer::new);
    let job_objects = match inputs {
        Inputs::Label { objects, .. } | Inputs::Rerun { objects, .. } => Some(objects.clone()),
        Inputs::Er { .. } => None,
    };
    std::fs::create_dir_all(db_dir)?;
    let start = Instant::now();
    let stack = build_stack(w, cfg.seed, db_dir, tracer.as_ref())?;
    setup_s.push(start.elapsed().as_secs_f64());

    // The job: first program call after set-up until the result is produced.
    let root = tracer.as_ref().map(|t| t.step("job"));
    let start = Instant::now();
    let t = tracer.as_deref();
    let outcome = match (&*inputs, job_objects) {
        (Inputs::Er { input, .. }, _) => er_job(&stack.cc, input, t).map(JobOut::Er),
        (_, Some(objects)) => label_job(&stack.cc, objects, t).map(JobOut::Label),
        _ => unreachable!("label inputs carry objects"),
    };
    let job_s = start.elapsed().as_secs_f64();
    drop(root);

    let stats = stack.disk.stats();
    let metrics = stack.cc.batch_metrics();
    let api_calls = stack.sim.api_calls();
    let round_trips = metrics.round_trips() + metrics.probe_calls;
    let mut layers = BTreeMap::new();
    let (rows, attempted, failed) = match (&*inputs, &outcome) {
        (_, Err(e)) => {
            problems.push(format!("job failed: {e}"));
            let attempted = match &*inputs {
                Inputs::Label { objects, .. } | Inputs::Rerun { objects, .. } => objects.len(),
                Inputs::Er { candidates, .. } => candidates.len(),
            } as u64;
            (0, attempted, attempted)
        }
        (Inputs::Label { objects, reference }, Ok(JobOut::Label(cd))) => {
            let n = objects.len() as u64;
            let mut failed = rows_differing(&row_digests(cd), &reference.digests);
            if metrics != reference.metrics {
                problems.push(format!(
                    "batch metrics {metrics:?} != depth-1 {:?}",
                    reference.metrics
                ));
                failed = n;
            }
            let expected = expected_label_api_calls(objects.len());
            if api_calls != expected || api_calls != reference.api_calls {
                problems.push(format!("{api_calls} api calls, expected {expected}"));
                failed = n;
            }
            if failed > 0 && problems.is_empty() {
                problems.push(format!("{failed} rows differ from the depth-1 run"));
            }
            (n - failed, n, failed)
        }
        (
            Inputs::Rerun {
                objects, reference, ..
            },
            Ok(JobOut::Label(cd)),
        ) => {
            let n = objects.len() as u64;
            let mut failed = rows_differing(&row_digests(cd), &reference.digests);
            if failed > 0 {
                problems.push(format!("{failed} rows differ from the earlier run"));
            }
            if api_calls != 0 || round_trips != 0 || stats.writes != 0 {
                problems.push(format!(
                    "rerun made {api_calls} api calls, {round_trips} round-trips, {} writes",
                    stats.writes
                ));
                failed = n;
            }
            (n - failed, n, failed)
        }
        (
            Inputs::Er {
                input, candidates, ..
            },
            Ok(JobOut::Er(out)),
        ) => {
            let n = candidates.len() as u64;
            problems.extend(check_er(out, candidates.len(), &input.truth));
            layers.insert("operators.crowd_reviewed", out.n_crowd_reviewed as f64);
            layers.insert(
                "operators.peak_inflight_pairs",
                out.peak_inflight_pairs as f64,
            );
            if problems.is_empty() {
                (out.n_crowd_reviewed as u64, n, 0)
            } else {
                (0, n, n)
            }
        }
        _ => unreachable!("job output matches its workload"),
    };
    let counts = [
        api_calls,
        round_trips,
        stack.sim.events(),
        stats.writes,
        match &*inputs {
            Inputs::Er { candidates, .. } => candidates.len() as u64,
            _ => 0,
        },
    ];

    let mut spans_csv = None;
    if let Some(tracer) = &tracer {
        let spans = tracer.spans();
        let s = summarize(&spans, w.wired());
        for (k, v) in &s.values {
            layers.insert(k, *v);
        }
        let commits = s.commit.n as f64;
        let user_bytes = s.values.get("storage.user_bytes").copied().unwrap_or(0.0);
        let gets = s.values.get("storage.gets").copied().unwrap_or(0.0);
        let hits = s.values.get("storage.hits").copied().unwrap_or(0.0);
        let events = stack.sim.events() as f64;
        let drive_ms = s
            .values
            .get("platform.effect_ms.wait")
            .copied()
            .unwrap_or(0.0);
        let extra = [
            (
                "core.publish_rows_per_call",
                metrics.rows_per_publish_call(),
            ),
            ("core.probe_calls", metrics.probe_calls as f64),
            ("core.round_trips", round_trips as f64),
            ("platform.api_calls", api_calls as f64),
            ("platform.gate_wait_ms", s.gate_wait.sum),
            ("platform.gate_wait_ms_p50", s.gate_wait.p50),
            ("platform.gate_wait_ms_tail", s.gate_wait.tail),
            ("platform.gate_wait_ms_tail_pct", s.gate_wait.tail_pct),
            ("platform.gate_wait_n", s.gate_wait.n as f64),
            ("platform.wire_round_trips", stack.wire_round_trips() as f64),
            ("sim.events", events),
            ("sim.drive_ms", drive_ms),
            (
                "sim.events_per_s",
                if drive_ms > 0.0 {
                    events / (drive_ms / 1e3)
                } else {
                    0.0
                },
            ),
            ("storage.commits", commits),
            ("storage.commit_ms", s.commit.sum),
            ("storage.commit_ms_p50", s.commit.p50),
            ("storage.commit_ms_tail", s.commit.tail),
            ("storage.commit_ms_tail_pct", s.commit.tail_pct),
            (
                "storage.write_amp",
                if user_bytes > 0.0 {
                    stats.log_bytes as f64 / user_bytes
                } else {
                    0.0
                },
            ),
            (
                "storage.hit_ratio",
                if gets > 0.0 { hits / gets } else { 0.0 },
            ),
            ("storage.open_ms", stack.open_ms),
            (
                "storage.replayed_records",
                stack.disk.recovery_report().records as f64,
            ),
            ("storage.segments", stats.segments as f64),
            ("trace.spans", spans.len() as f64),
        ];
        layers.extend(extra);
        if w == Workload::LabelRerun && commits > 0.0 {
            problems.push(format!("rerun committed {commits} batches"));
        }
        spans_csv = Some(spans_to_csv(&spans));
    }
    drop(outcome);
    drop(stack);
    // The database files must be byte-identical after a rerun; the next
    // repetition reuses them only if they are.
    let (mut rows, mut failed) = (rows, failed);
    if let Inputs::Rerun {
        reference, db_dir, ..
    } = inputs
    {
        if dir_digest(db_dir)? != reference.db_digest {
            problems.push("rerun changed the database bytes; prepared it again".into());
            (rows, failed) = (0, attempted);
            *reference = prepare(cfg, db_dir)?;
        }
    }
    Ok(Rep {
        setup_s,
        job_s,
        rows,
        attempted,
        failed,
        db_bytes: stats.log_bytes,
        counts,
        problems,
        layers,
        spans_csv,
    })
}

const MIB: f64 = (1u64 << 20) as f64;

enum JobOut {
    Label(reprowd_core::CrowdData),
    Er(reprowd_operators::join::crowder::CrowdErResult),
}

fn spans_to_csv(spans: &[crate::trace::Span]) -> String {
    let mut out = String::from("id,parent,name,start_ns,end_ns,n\n");
    for s in spans {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.n
        ));
    }
    out
}

/// Runs the benchmark once and returns its outcome. The work directory is
/// removed before returning.
pub fn run(cfg: &RunConfig) -> Res<Outcome> {
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    std::fs::create_dir_all(&cfg.work_dir)?;
    let result = run_in(cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    result
}

fn run_in(cfg: &RunConfig) -> Res<Outcome> {
    let mut inputs = make_inputs(cfg)?;
    let provenance = provenance(cfg, &inputs);
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced_reps: Vec<Rep> = Vec::new();
    let mut kept_dir: Option<PathBuf> = None;
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let enough = reps.len() >= MIN_REPS && (!cfg.trace || traced_reps.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        // Trace mode alternates untraced and traced repetitions.
        let traced = cfg.trace && i % 2 == 1;
        let db_dir = match &inputs {
            Inputs::Rerun { db_dir, .. } => db_dir.clone(),
            _ => cfg.work_dir.join(format!("rep-{i}")),
        };
        let rep = run_rep(cfg, &mut inputs, traced, &db_dir)?;
        if cfg.workload.fresh() {
            if traced {
                if let Some(old) = kept_dir.replace(db_dir) {
                    std::fs::remove_dir_all(old)?;
                }
            } else {
                std::fs::remove_dir_all(&db_dir)?;
            }
        }
        eprintln!(
            "perfbench: {} rep {i}{}: job {:.4} s, setup {:.6} s, {} rows",
            cfg.workload.name(),
            if traced { " (traced)" } else { "" },
            rep.job_s,
            median(&rep.setup_s),
            rep.rows
        );
        if traced {
            traced_reps.push(rep);
        } else {
            reps.push(rep);
        }
        i += 1;
    }

    let all = reps.iter().chain(&traced_reps);
    let attempted: u64 = all.clone().map(|r| r.attempted).sum();
    let failed: u64 = all.clone().map(|r| r.failed).sum();
    let mut problems: Vec<String> = all.clone().flat_map(|r| r.problems.clone()).collect();
    let first_counts = reps[0].counts;
    if let Some(r) = all.clone().find(|r| r.counts != first_counts) {
        problems.push(format!(
            "counts {:?} did not repeat: {:?}",
            first_counts, r.counts
        ));
    }
    problems.dedup();

    let untraced_job = median(&reps.iter().map(|r| r.job_s).collect::<Vec<_>>());
    let mut spans_csv = None;
    let metrics: Vec<Metric> = if cfg.trace {
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        for &(name, _) in PER_LAYER {
            let samples: Vec<f64> = traced_reps
                .iter()
                .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            values.insert(name, median(&samples));
        }
        let traced_job = median(&traced_reps.iter().map(|r| r.job_s).collect::<Vec<_>>());
        values.insert("job.untraced_s", untraced_job);
        values.insert("job.traced_s", traced_job);
        values.insert("trace.overhead_frac", traced_job / untraced_job - 1.0);
        // Standalone passes over the same inputs, three times each.
        let objects: Vec<Value> = match &inputs {
            Inputs::Label { objects, .. } | Inputs::Rerun { objects, .. } => objects.clone(),
            Inputs::Er {
                input, candidates, ..
            } => candidates
                .iter()
                .map(|&(a, b)| input.pair_object(a, b))
                .collect(),
        };
        let db_dir = match &inputs {
            Inputs::Rerun { db_dir, .. } => db_dir.clone(),
            _ => kept_dir
                .clone()
                .expect("a traced repetition kept its database"),
        };
        let (mut enc, mut fnv, mut decode) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            let (e, f) = hashing_pass(&objects);
            enc.push(e);
            fnv.push(f);
            let (raw, decoded) = cell_decode_pass(&db_dir)?;
            decode.push(decoded - raw);
        }
        values.insert("core.canonical_ms", median(&enc));
        values.insert("core.fnv_ms", median(&fnv));
        values.insert("core.cell_decode_ms", median(&decode));
        if let Inputs::Er {
            input,
            candidates,
            drain_ms,
        } = &mut inputs
        {
            for _ in 0..2 {
                drain_ms.push(simjoin_drain(&input.records).1);
            }
            let ms = median(drain_ms);
            values.insert("simjoin.stream_ms", ms);
            values.insert("simjoin.candidates", candidates.len() as f64);
            values.insert(
                "simjoin.candidates_per_s",
                candidates.len() as f64 / (ms / 1e3),
            );
        }
        spans_csv = traced_reps.last().and_then(|r| r.spans_csv.clone());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: values[&name],
                unit,
            })
            .collect()
    } else {
        let setup: Vec<f64> = reps.iter().flat_map(|r| r.setup_s.clone()).collect();
        let values = [
            untraced_job,
            median(
                &reps
                    .iter()
                    .map(|r| r.rows as f64 / r.job_s)
                    .collect::<Vec<_>>(),
            ),
            median(&setup),
            median(
                &reps
                    .iter()
                    .map(|r| r.db_bytes as f64 / MIB)
                    .collect::<Vec<_>>(),
            ),
            peak_rss_mib(),
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    if let Some(dir) = kept_dir {
        std::fs::remove_dir_all(dir)?;
    }
    Ok(Outcome {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        provenance,
        spans_csv,
    })
}

/// Formats a number for JSON: as measured, never NaN or infinite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

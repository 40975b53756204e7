//! The three workloads: their inputs, the program stack each runs on, the
//! job itself, and the checks on its outputs.
//!
//! Every workload is one closed-loop client (one researcher running one
//! job at a time) on the default [`ExecutionConfig`] and a [`DiskStore`]
//! with [`SyncPolicy::Never`]. The seed drives input generation and the
//! simulated crowd; the program sees only the generated inputs.

use crate::trace::{Role, TracedBackend, TracedPlatform, Tracer};
use reprowd_core::exec::{BatchMetricsSnapshot, ExecutionConfig};
use reprowd_core::hash::fnv1a;
use reprowd_core::presenter::Presenter;
use reprowd_core::store::{StoredResult, StoredTask};
use reprowd_core::value::{canonical, Value};
use reprowd_core::{CrowdContext, CrowdData};
use reprowd_datagen::{ErConfig, ErCorpus, LabelConfig, LabelDataset};
use reprowd_operators::join::crowder::{crowder_join, CrowdErConfig, CrowdErResult};
use reprowd_operators::pairwise_prf;
use reprowd_platform::{CrowdPlatform, LatencyPlatform, SimPlatform};
use reprowd_simjoin::{self_join_stream, JoinConfig, SetSimilarity};
use reprowd_storage::{Backend, DiskStore, SyncPolicy, Table};
use std::error::Error;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors of the benchmark harness.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// Wire round-trip time of the label workloads' `LatencyPlatform`.
pub(crate) const RTT: Duration = Duration::from_millis(8);
/// Durability policy of every workload's database.
pub(crate) const SYNC: SyncPolicy = SyncPolicy::Never;
/// Experiment name of the label job.
const LABEL_EXPERIMENT: &str = "labels";
/// Experiment name of the CrowdER job.
const ER_EXPERIMENT: &str = "er";
/// Redundancy of the label job.
const LABEL_ASSIGNMENTS: u32 = 3;
/// CrowdER candidate threshold (Jaccard).
pub(crate) const ER_THETA: f64 = 0.3;
/// Lowest F1 the streamed join may reach on the simulated crowd.
pub(crate) const ER_F1_FLOOR: f64 = 0.8;
/// Database file name inside a workload's database directory.
const DB_FILE: &str = "crowd.rwlog";

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh publish/collect/majority vote against an 8 ms-RTT platform.
    LabelWire,
    /// Fresh streamed CrowdER join on the plain simulator.
    ErStream,
    /// Rerun of the label program against a database left by a prior run.
    LabelRerun,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::LabelWire,
        Workload::ErStream,
        Workload::LabelRerun,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LabelWire => "label_wire",
            Workload::ErStream => "er_stream",
            Workload::LabelRerun => "label_rerun",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the platform sits behind the wire-latency wrapper.
    pub fn wired(self) -> bool {
        self != Workload::ErStream
    }

    /// Whether each repetition starts from an empty database.
    pub fn fresh(self) -> bool {
        self != Workload::LabelRerun
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Label rows of `label_wire`.
    pub label_rows: usize,
    /// Candidate pairs of `er_stream` (its crowd work), at least.
    pub er_pairs: usize,
    /// Label rows of `label_rerun`.
    pub rerun_rows: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const BENCH: Sizes = Sizes {
        label_rows: 5_000,
        er_pairs: 7_000,
        rerun_rows: 30_000,
    };
    /// Tiny sizes for the benchmark's own tests.
    pub const TINY: Sizes = Sizes {
        label_rows: 250,
        er_pairs: 150,
        rerun_rows: 250,
    };
}

/// Sub-seed for the simulated crowd, decorrelated from the input seed.
pub(crate) fn sim_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5151_5151
}

/// Figure-2-style label objects from the seeded label dataset.
pub fn label_objects(n: usize, seed: u64) -> Vec<Value> {
    let data = LabelDataset::generate(&LabelConfig {
        n_items: n,
        n_labels: 2,
        seed,
        ..LabelConfig::default()
    });
    (0..n)
        .map(|i| {
            serde_json::json!({
                "url": data.items[i].clone(),
                "_sim": {
                    "kind": "label",
                    "truth": data.truth[i],
                    "labels": ["Yes", "No"],
                    "difficulty": data.difficulty[i],
                }
            })
        })
        .collect()
}

/// The label job's task UI.
pub(crate) fn label_presenter() -> Presenter {
    Presenter::image_label("Is this a cat?", &["Yes", "No"])
}

/// A seeded entity-resolution corpus.
pub struct ErInput {
    /// Record texts, in id order.
    pub records: Vec<String>,
    /// Ground-truth entity per record.
    pub entities: Vec<usize>,
    /// Ground-truth matching pairs.
    pub truth: Vec<(usize, usize)>,
}

impl ErInput {
    /// The shortest prefix of a seeded corpus (two records per entity)
    /// whose machine pass yields at least `pairs` candidates, so the crowd
    /// work is the same for every seed while the texts vary.
    pub fn generate(pairs: usize, seed: u64) -> ErInput {
        let mut entities = pairs.div_ceil(2).max(1);
        loop {
            let corpus = ErCorpus::generate(&ErConfig {
                n_entities: entities,
                min_dups: 2,
                max_dups: 2,
                seed,
                ..ErConfig::default()
            });
            let mut records = corpus.texts();
            let (candidates, _) = simjoin_drain(&records);
            let mut last: Vec<usize> = candidates.iter().map(|&(_, r)| r).collect();
            last.sort_unstable();
            let Some(&cut) = last.get(pairs.saturating_sub(1)) else {
                entities *= 2;
                continue;
            };
            records.truncate(cut + 1);
            let n = records.len();
            let mut entity_ids = corpus.truth_clusters();
            entity_ids.truncate(n);
            let truth = corpus
                .true_pairs()
                .into_iter()
                .filter(|&(_, r)| r < n)
                .collect();
            return ErInput {
                records,
                entities: entity_ids,
                truth,
            };
        }
    }

    /// The simulator seam: the crowd answers by ground-truth identity.
    pub fn decorate(&self) -> impl Fn(usize, usize, &mut Value) + Sync + '_ {
        move |a, b, obj: &mut Value| {
            obj["_sim"] = serde_json::json!({
                "kind": "match",
                "is_match": self.entities[a] == self.entities[b],
                "ambiguity": 0.05,
            });
        }
    }

    /// The pair object the join sends to the crowd for `(a, b)`.
    pub fn pair_object(&self, a: usize, b: usize) -> Value {
        let mut obj = serde_json::json!({
            "left": self.records[a].clone(),
            "right": self.records[b].clone(),
            "pair": [a, b],
        });
        self.decorate()(a, b, &mut obj);
        obj
    }
}

/// The join configuration of `er_stream`.
pub(crate) fn er_config() -> CrowdErConfig {
    let mut cfg = CrowdErConfig::new(ER_EXPERIMENT);
    cfg.threshold = ER_THETA;
    cfg
}

/// One standalone drain of the machine pass: the candidate pairs and the
/// drain's wall time in ms.
pub(crate) fn simjoin_drain(records: &[String]) -> (Vec<(usize, usize)>, f64) {
    let cfg = JoinConfig::new(SetSimilarity::Jaccard, ER_THETA);
    let start = Instant::now();
    let pairs: Vec<(usize, usize)> = self_join_stream(records, &cfg)
        .map(|p| (p.left, p.right))
        .collect();
    (pairs, ms_since(start))
}

/// Milliseconds since `start`.
pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The program stack one repetition runs on.
pub struct Stack {
    /// The context the job runs in.
    pub cc: CrowdContext,
    /// The simulated crowd (innermost platform).
    pub sim: Arc<SimPlatform>,
    /// The database.
    pub disk: Arc<DiskStore>,
    /// Latency-charged round-trips so far (0 without a wire).
    wire_round_trips: Box<dyn Fn() -> u64>,
    /// Wall time of the `DiskStore` open (ms).
    pub open_ms: f64,
}

impl Stack {
    /// Round-trips that paid wire latency.
    pub fn wire_round_trips(&self) -> u64 {
        (self.wire_round_trips)()
    }
}

/// Builds the stack for `w` over the database in the existing directory
/// `db_dir`: simulator,
/// optional latency wrapper, `DiskStore`, context. With a tracer, the
/// platform is wrapped outside and inside the latency wrapper and the
/// database is wrapped too.
pub fn build_stack(
    w: Workload,
    seed: u64,
    db_dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Res<Stack> {
    let config = ExecutionConfig::default();
    let sim = Arc::new(if w == Workload::ErStream {
        SimPlatform::quick(7, 0.95, sim_seed(seed))
    } else {
        SimPlatform::quick(7, 0.9, sim_seed(seed))
    });
    let wire_off: Box<dyn Fn() -> u64> = Box::new(|| 0);
    let (platform, wire_round_trips): (Arc<dyn CrowdPlatform>, Box<dyn Fn() -> u64>) =
        match (w.wired(), tracer) {
            (true, None) => {
                let lat = Arc::new(LatencyPlatform::new(Arc::clone(&sim), RTT));
                (Arc::clone(&lat) as _, Box::new(move || lat.round_trips()))
            }
            (true, Some(t)) => {
                let effect = TracedPlatform::new(Arc::clone(&sim), Arc::clone(t), Role::Effect);
                let lat = Arc::new(LatencyPlatform::new(Arc::new(effect), RTT));
                let call = TracedPlatform::new(Arc::clone(&lat), Arc::clone(t), Role::Call);
                (Arc::new(call) as _, Box::new(move || lat.round_trips()))
            }
            (false, None) => (Arc::clone(&sim) as _, wire_off),
            (false, Some(t)) => {
                let effect = TracedPlatform::new(Arc::clone(&sim), Arc::clone(t), Role::Effect);
                let call = TracedPlatform::new(Arc::new(effect), Arc::clone(t), Role::Call);
                (Arc::new(call) as _, wire_off)
            }
        };
    let start = Instant::now();
    let disk = Arc::new(DiskStore::open_with(
        db_dir.join(DB_FILE),
        SYNC,
        config.segment_policy,
    )?);
    let open_ms = ms_since(start);
    let backend: Arc<dyn Backend> = match tracer {
        None => Arc::clone(&disk) as _,
        Some(t) => Arc::new(TracedBackend::new(Arc::clone(&disk), Arc::clone(t))),
    };
    let cc = CrowdContext::with_config(platform, backend, config)?;
    Ok(Stack {
        cc,
        sim,
        disk,
        wire_round_trips,
        open_ms,
    })
}

/// Runs `f` inside a step span when tracing.
fn step<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = tracer.map(|t| t.step(name));
    f()
}

/// The label program: `data → presenter → publish(3) → collect →
/// majority_vote`.
pub fn label_job(
    cc: &CrowdContext,
    objects: Vec<Value>,
    tracer: Option<&Tracer>,
) -> Res<CrowdData> {
    let cd = step(tracer, "core.data", || {
        cc.crowddata(LABEL_EXPERIMENT)?.data(objects)
    })?;
    let cd = step(tracer, "core.presenter", || cd.presenter(label_presenter()))?;
    let cd = step(tracer, "core.publish", || cd.publish(LABEL_ASSIGNMENTS))?;
    let cd = step(tracer, "core.collect", || cd.collect())?;
    Ok(step(tracer, "quality.majority_vote", || {
        cd.majority_vote()
    })?)
}

/// The streamed CrowdER job.
pub fn er_job(cc: &CrowdContext, input: &ErInput, tracer: Option<&Tracer>) -> Res<CrowdErResult> {
    let decorate = input.decorate();
    Ok(step(tracer, "operators.crowder_join", || {
        crowder_join(cc, &input.records, &er_config(), &decorate)
    })?)
}

/// Per-row digest of the `result` and `mv` cells (FNV-1a of their JSON).
pub fn row_digests(cd: &CrowdData) -> Vec<(u64, u64)> {
    cd.rows()
        .iter()
        .map(|row| {
            let result = serde_json::to_vec(&row.result).expect("result cells serialize");
            let mv = row.derived.get("mv").map_or_else(String::new, canonical);
            (fnv1a(&result), fnv1a(mv.as_bytes()))
        })
        .collect()
}

/// Rows whose digests differ from `reference` (missing rows count too).
pub(crate) fn rows_differing(got: &[(u64, u64)], reference: &[(u64, u64)]) -> u64 {
    let mismatched = got.iter().zip(reference).filter(|(a, b)| a != b).count();
    (mismatched + got.len().abs_diff(reference.len())) as u64
}

/// Digest of every file name and byte under `dir`, in name order. Files
/// are hashed in 1 MiB chunks, so the check adds little to peak memory.
pub fn dir_digest(dir: &Path) -> Res<u64> {
    const CHUNK: u64 = 1 << 20;
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    names.sort();
    let mut digests = Vec::new();
    let mut chunk = Vec::with_capacity(CHUNK as usize);
    for path in names {
        let name = path.file_name().unwrap_or_default().as_encoded_bytes();
        digests.extend(fnv1a(name).to_le_bytes());
        let mut file = std::fs::File::open(&path)?;
        loop {
            chunk.clear();
            (&mut file).take(CHUNK).read_to_end(&mut chunk)?;
            if chunk.is_empty() {
                break;
            }
            digests.extend(fnv1a(&chunk).to_le_bytes());
        }
    }
    Ok(fnv1a(&digests))
}

/// What `label_wire` is checked against: an untimed depth-1 in-memory run
/// of the same program with the same seed.
#[derive(Debug, Clone)]
pub(crate) struct LabelReference {
    /// Per-row `result`/`mv` digests.
    pub digests: Vec<(u64, u64)>,
    /// The run's round-trip ledger.
    pub metrics: BatchMetricsSnapshot,
    /// The platform's API-call meter.
    pub api_calls: u64,
}

/// Runs the label program once at depth 1 on an in-memory database.
pub(crate) fn label_reference(objects: &[Value], seed: u64) -> Res<LabelReference> {
    let sim = Arc::new(SimPlatform::quick(7, 0.9, sim_seed(seed)));
    let cc = CrowdContext::with_config(
        Arc::clone(&sim) as Arc<dyn CrowdPlatform>,
        Arc::new(reprowd_storage::MemoryStore::new()),
        ExecutionConfig::default().with_inflight_batches(1),
    )?;
    let cd = label_job(&cc, objects.to_vec(), None)?;
    Ok(LabelReference {
        digests: row_digests(&cd),
        metrics: cc.batch_metrics(),
        api_calls: sim.api_calls(),
    })
}

/// API calls the label job must make on `n` fresh rows: one project, then
/// one publish and one fetch per batch.
pub(crate) fn expected_label_api_calls(n: usize) -> u64 {
    1 + 2 * n.div_ceil(ExecutionConfig::default().batch_size) as u64
}

/// What `label_rerun` is checked against: the database an earlier run of
/// the label job left, and the columns that run produced.
#[derive(Debug, Clone)]
pub struct RerunReference {
    /// Per-row `result`/`mv` digests of the earlier run.
    pub digests: Vec<(u64, u64)>,
    /// Digest of the database directory after the earlier run.
    pub db_digest: u64,
}

/// Runs the label job fresh into `db_dir` and records its outputs. The
/// wire wrapper is left out: it changes no stored byte, only wall time.
pub fn prepare_rerun(db_dir: &Path, rows: usize, seed: u64) -> Res<RerunReference> {
    let _ = std::fs::remove_dir_all(db_dir);
    std::fs::create_dir_all(db_dir)?;
    let sim = Arc::new(SimPlatform::quick(7, 0.9, sim_seed(seed)));
    let cc = CrowdContext::on_disk_with(
        sim as Arc<dyn CrowdPlatform>,
        db_dir.join(DB_FILE),
        SYNC,
        ExecutionConfig::default(),
    )?;
    let cd = label_job(&cc, label_objects(rows, seed), None)?;
    let digests = row_digests(&cd);
    drop(cd);
    drop(cc);
    Ok(RerunReference {
        digests,
        db_digest: dir_digest(db_dir)?,
    })
}

/// Writes a rerun reference as text: the database digest, then one line
/// of two hex digests per row.
pub fn write_reference(path: &Path, r: &RerunReference) -> Res<()> {
    let mut out = format!("{:016x}\n", r.db_digest);
    for (a, b) in &r.digests {
        out.push_str(&format!("{a:016x} {b:016x}\n"));
    }
    Ok(std::fs::write(path, out)?)
}

/// Reads what [`write_reference`] wrote.
pub(crate) fn read_reference(path: &Path) -> Res<RerunReference> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let hex = |s: &str| u64::from_str_radix(s, 16);
    let db_digest = hex(lines.next().ok_or("empty reference file")?)?;
    let mut digests = Vec::new();
    for line in lines {
        let (a, b) = line.split_once(' ').ok_or("malformed reference line")?;
        digests.push((hex(a)?, hex(b)?));
    }
    Ok(RerunReference { digests, db_digest })
}

/// Raw `Backend::get` over every task and result cell of the database,
/// then decoded `Table` gets over the same keys: (raw ms, decoded ms).
pub(crate) fn cell_decode_pass(db_dir: &Path) -> Res<(f64, f64)> {
    let disk: Arc<dyn Backend> = Arc::new(DiskStore::open_with(
        db_dir.join(DB_FILE),
        SYNC,
        Default::default(),
    )?);
    let tasks: Table<StoredTask> = Table::new(Arc::clone(&disk), "task")?;
    let results: Table<StoredResult> = Table::new(Arc::clone(&disk), "result")?;
    let keys = |prefix: &[u8]| -> Res<Vec<Vec<u8>>> {
        Ok(disk
            .scan_prefix(prefix)?
            .into_iter()
            .map(|(k, _)| k)
            .collect())
    };
    let (task_keys, result_keys) = (keys(b"t/task/")?, keys(b"t/result/")?);
    let start = Instant::now();
    for k in task_keys.iter().chain(&result_keys) {
        std::hint::black_box(disk.get(k)?);
    }
    let raw = ms_since(start);
    let start = Instant::now();
    for k in &task_keys {
        std::hint::black_box(tasks.get(&k[b"t/task/".len()..])?);
    }
    for k in &result_keys {
        std::hint::black_box(results.get(&k[b"t/result/".len()..])?);
    }
    Ok((raw, ms_since(start)))
}

/// Canonical-JSON encoding, then FNV-1a hashing, of `objects`:
/// (encode ms, hash ms).
pub(crate) fn hashing_pass(objects: &[Value]) -> (f64, f64) {
    let start = Instant::now();
    let encoded: Vec<String> = objects.iter().map(canonical).collect();
    let encode = ms_since(start);
    let start = Instant::now();
    let mut acc = 0u64;
    for e in &encoded {
        acc ^= fnv1a(std::hint::black_box(e.as_bytes()));
    }
    std::hint::black_box(acc);
    (encode, ms_since(start))
}

/// Checks a CrowdER result: candidates equal the standalone drain's,
/// resident pairs stay in the pipeline window, and F1 stays above the
/// floor. Returns the failed checks.
pub(crate) fn check_er(
    out: &CrowdErResult,
    candidates: usize,
    truth: &[(usize, usize)],
) -> Vec<String> {
    let config = ExecutionConfig::default();
    let window = (2 * config.inflight_batches + 1) * config.batch_size;
    let (_, _, f1) = pairwise_prf(&out.matched, truth);
    let mut problems = Vec::new();
    if out.n_candidates != candidates {
        problems.push(format!(
            "{} candidates, standalone drain {candidates}",
            out.n_candidates
        ));
    }
    if out.peak_inflight_pairs > window {
        problems.push(format!(
            "peak {} pairs in flight > {window}",
            out.peak_inflight_pairs
        ));
    }
    if f1 < ER_F1_FLOOR {
        problems.push(format!("F1 {f1:.3} < {ER_F1_FLOOR}"));
    }
    problems
}

//! Pins the exact platform call sequence of every execution path against a
//! recorded fixture.
//!
//! A recording platform over [`SimPlatform`] logs every non-empty effect in
//! the order the platform observes it: project creation, bulk publishes
//! (task ids and redundancies), completion probes, waits and bulk fetches
//! (task ids). Empty bulk requests send nothing and are not logged. Each
//! scenario runs at batch size 3 and in-flight depths 1 and 4, and every
//! phase ends with a marker holding its reuse accounting, the round-trip
//! ledger delta, the platform's API-call count and the answers it produced.
//!
//! The fixture (`tests/fixtures/call_trace.json`) is the behavior of the
//! engine it was recorded against; a change to the engine must reproduce it
//! entry for entry. Regenerate (only when the call sequence is
//! *intentionally* changed) with
//! `CALL_TRACE_REGEN=1 cargo test -p reprowd-core --test call_trace`.

use reprowd_core::context::CrowdContext;
use reprowd_core::exec::ExecutionConfig;
use reprowd_core::pipeline::{majority_answer, run_stream, StreamSpec};
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_core::CrowdData;
use reprowd_platform::types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec};
use reprowd_platform::{CrowdPlatform, FailingPlatform, SimPlatform};
use reprowd_storage::{Backend, MemoryStore};
use serde_json::json;
use std::sync::{Arc, Mutex};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/call_trace.json");
const BATCH: usize = 3;

type Log = Arc<Mutex<Vec<Value>>>;

/// A platform that logs each non-empty effect before forwarding it.
///
/// It implements the plain bulk calls only, so the trait's pipelined
/// defaults run them inside their gate turn: the log order is the order in
/// which the platform applies the effects, at every in-flight depth. Its
/// probes report the tasks passed to [`Recorder::forget`] as unknown, the
/// way a platform that lost part of its state would.
struct Recorder {
    inner: SimPlatform,
    log: Log,
    forgotten: Mutex<Vec<TaskId>>,
}

impl Recorder {
    fn record(&self, entry: Value) {
        self.log.lock().unwrap().push(entry);
    }

    fn forget(&self, tasks: &[TaskId]) {
        self.forgotten.lock().unwrap().extend_from_slice(tasks);
    }
}

impl CrowdPlatform for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn create_project(&self, name: &str) -> reprowd_platform::Result<ProjectId> {
        self.record(json!({ "op": "create", "name": name }));
        self.inner.create_project(name)
    }
    fn project(&self, id: ProjectId) -> reprowd_platform::Result<Project> {
        self.inner.project(id)
    }
    fn publish_tasks(
        &self,
        project: ProjectId,
        specs: Vec<TaskSpec>,
    ) -> reprowd_platform::Result<Vec<Task>> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        let n: Vec<u32> = specs.iter().map(|s| s.n_assignments).collect();
        let tasks = self.inner.publish_tasks(project, specs)?;
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        self.record(json!({ "op": "publish", "project": project, "ids": ids, "n": n }));
        Ok(tasks)
    }
    fn task(&self, id: TaskId) -> reprowd_platform::Result<Task> {
        self.inner.task(id)
    }
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> reprowd_platform::Result<Vec<Vec<TaskRun>>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        self.record(json!({ "op": "fetch", "ids": tasks }));
        self.inner.fetch_runs_bulk(tasks)
    }
    fn are_complete(&self, tasks: &[TaskId]) -> reprowd_platform::Result<Vec<Option<bool>>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        let forgotten = self.forgotten.lock().unwrap().clone();
        let status: Vec<Option<bool>> = tasks
            .iter()
            .zip(self.inner.are_complete(tasks)?)
            .map(|(t, s)| if forgotten.contains(t) { None } else { s })
            .collect();
        self.record(json!({ "op": "probe", "ids": tasks, "status": status }));
        Ok(status)
    }
    fn step(&self) -> reprowd_platform::Result<bool> {
        self.inner.step()
    }
    fn run_until_complete(&self, tasks: &[TaskId]) -> reprowd_platform::Result<()> {
        if tasks.is_empty() {
            return Ok(());
        }
        self.record(json!({ "op": "wait", "ids": tasks }));
        self.inner.run_until_complete(tasks)
    }
    fn api_calls(&self) -> u64 {
        self.inner.api_calls()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

/// One scenario's recording session: a log shared by every platform the
/// scenario builds (a platform restart keeps logging into the same trace).
struct Session {
    depth: usize,
    log: Log,
    db: Arc<dyn Backend>,
}

impl Session {
    fn new(depth: usize) -> Self {
        Session {
            depth,
            log: Arc::new(Mutex::new(Vec::new())),
            db: Arc::new(MemoryStore::new()),
        }
    }

    fn recorder(&self, seed: u64) -> Arc<Recorder> {
        Arc::new(Recorder {
            inner: SimPlatform::quick(5, 0.8, seed),
            log: Arc::clone(&self.log),
            forgotten: Mutex::new(Vec::new()),
        })
    }

    fn context(&self, platform: Arc<dyn CrowdPlatform>) -> CrowdContext {
        CrowdContext::with_config(
            platform,
            Arc::clone(&self.db),
            ExecutionConfig::with_batch_size(BATCH).with_inflight_batches(self.depth),
        )
        .unwrap()
    }

    /// Runs one phase and appends its marker: the phase's outcome, the
    /// round-trip ledger delta and the platform's API calls so far.
    fn phase(
        &self,
        name: &str,
        cc: &CrowdContext,
        api_calls: impl Fn() -> u64,
        body: impl FnOnce() -> Result<Value, String>,
    ) {
        let before = cc.batch_metrics();
        let outcome = match body() {
            Ok(v) => v,
            Err(e) => json!({ "error": e }),
        };
        let m = cc.batch_metrics();
        self.log.lock().unwrap().push(json!({
            "phase": name,
            "outcome": outcome,
            "round_trips": [
                m.publish_calls - before.publish_calls,
                m.publish_rows - before.publish_rows,
                m.probe_calls - before.probe_calls,
                m.probe_rows - before.probe_rows,
                m.fetch_calls - before.fetch_calls,
                m.fetch_rows - before.fetch_rows,
            ],
            "api_calls": api_calls(),
        }));
    }

    fn trace(self) -> Vec<Value> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }
}

/// Label objects; object 4 duplicates object 1, so keys get a `-1` suffix.
fn objects(range: std::ops::Range<usize>) -> Vec<Value> {
    range
        .map(|i| {
            let img = if i == 4 { 1 } else { i };
            json!({
                "url": format!("img{img}.jpg"),
                "_sim": {"kind": "label", "truth": img % 2, "labels": ["Yes", "No"], "difficulty": 0.1}
            })
        })
        .collect()
}

fn presenter() -> Presenter {
    Presenter::image_label("Is this a cat?", &["Yes", "No"])
}

fn stats_of(cd: &CrowdData) -> Value {
    let s = cd.run_stats();
    json!([s.tasks_published, s.tasks_reused, s.results_collected, s.results_reused, s.tasks_republished])
}

/// The classic label program: data → presenter → publish → collect → vote.
fn label(cc: &CrowdContext, objs: Vec<Value>) -> Result<Value, String> {
    let cd = cc
        .crowddata("label")
        .and_then(|cd| cd.data(objs))
        .and_then(|cd| cd.presenter(presenter()))
        .and_then(|cd| cd.publish(3))
        .and_then(|cd| cd.collect())
        .and_then(|cd| cd.majority_vote())
        .map_err(|e| e.to_string())?;
    Ok(json!({ "stats": stats_of(&cd), "mv": cd.column("mv").unwrap() }))
}

/// Steps 1–3 only: the program crashed (or stopped) before `collect`.
fn publish_only(cc: &CrowdContext, name: &str, objs: Vec<Value>, n: u32) -> Result<Value, String> {
    let cd = cc
        .crowddata(name)
        .and_then(|cd| cd.data(objs))
        .and_then(|cd| cd.presenter(presenter()))
        .and_then(|cd| cd.publish(n))
        .map_err(|e| e.to_string())?;
    Ok(json!({ "stats": stats_of(&cd) }))
}

fn stream(cc: &CrowdContext, objs: Vec<Value>) -> Result<Value, String> {
    let spec = StreamSpec { experiment: "stream".into(), presenter: presenter(), n_assignments: 3 };
    let space = presenter().static_answer_space().unwrap();
    let mut answers = Vec::new();
    let report = run_stream(cc, &spec, objs.into_iter(), |row| {
        answers.push(json!([row.index, majority_answer(&row.result.runs, &space)]));
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    let s = report.stats;
    Ok(json!({
        "stats": [s.tasks_published, s.tasks_reused, s.results_collected, s.results_reused, s.tasks_republished],
        "rows": report.rows,
        "chunks": report.chunks,
        "answers": answers,
    }))
}

fn classic_fresh(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let p = s.recorder(1);
    let cc = s.context(p.clone());
    s.phase("fresh", &cc, || p.api_calls(), || label(&cc, objects(0..8)));
    s.trace()
}

fn classic_extend(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let p = s.recorder(2);
    let cc = s.context(p.clone());
    s.phase("fresh", &cc, || p.api_calls(), || label(&cc, objects(0..8)));
    s.phase("extend", &cc, || p.api_calls(), || {
        let cd = cc
            .crowddata("label")
            .and_then(|cd| cd.data(objects(0..8)))
            .and_then(|cd| cd.extend_data(objects(8..13)))
            .and_then(|cd| cd.presenter(presenter()))
            .and_then(|cd| cd.publish(3))
            .and_then(|cd| cd.collect())
            .and_then(|cd| cd.majority_vote())
            .map_err(|e| e.to_string())?;
        Ok(json!({ "stats": stats_of(&cd), "mv": cd.column("mv").unwrap() }))
    });
    s.trace()
}

fn classic_rerun(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let p = s.recorder(3);
    let cc = s.context(p.clone());
    s.phase("fresh", &cc, || p.api_calls(), || label(&cc, objects(0..8)));
    s.phase("rerun", &cc, || p.api_calls(), || label(&cc, objects(0..8)));
    s.trace()
}

/// Results for rows 0..5 are cached, tasks for rows 5..12 were published
/// but never collected, then the platform restarted: `collect` probes the
/// seven tasks (three batches), finds them lost and republishes them.
fn classic_restart(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let p1 = s.recorder(4);
    let cc1 = s.context(p1.clone());
    s.phase("fresh", &cc1, || p1.api_calls(), || label(&cc1, objects(0..5)));
    s.phase("publish_only", &cc1, || p1.api_calls(), || {
        publish_only(&cc1, "label", objects(0..12), 3)
    });
    let p2 = s.recorder(5);
    let cc2 = s.context(p2.clone());
    s.phase("after_restart", &cc2, || p2.api_calls(), || label(&cc2, objects(0..12)));
    s.trace()
}

/// The platform loses three of eight published tasks: `collect` probes
/// all eight, republishes the three lost rows in one batch, and fetches
/// the surviving rows before the republished ones.
fn classic_partial_loss(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let p = s.recorder(11);
    let cc = s.context(p.clone());
    s.phase("publish_only", &cc, || p.api_calls(), || {
        publish_only(&cc, "label", objects(0..8), 3)
    });
    p.forget(&[2, 5, 6]);
    s.phase("partial_loss", &cc, || p.api_calls(), || label(&cc, objects(0..8)));
    s.trace()
}

/// The budget admits the project and one publish batch; the second batch
/// crashes the program. The rerun (same platform, replenished budget)
/// publishes only what the database does not hold.
fn classic_crash(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let rec = s.recorder(6);
    let p = Arc::new(FailingPlatform::new(rec.clone(), 2));
    let cc = s.context(p.clone());
    s.phase("crash", &cc, || rec.api_calls(), || label(&cc, objects(0..8)));
    p.reset_budget(1_000);
    s.phase("rerun", &cc, || rec.api_calls(), || label(&cc, objects(0..8)));
    s.trace()
}

fn stream_fresh(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let p = s.recorder(7);
    let cc = s.context(p.clone());
    s.phase("fresh", &cc, || p.api_calls(), || stream(&cc, objects(0..8)));
    s.trace()
}

/// Charged calls: project, chunk 0 publish + fetch, chunk 1 publish; the
/// crash lands on chunk 1's fetch. The rerun is served chunk 0 from the
/// cache and fetches chunk 1's already-published tasks.
fn stream_crash(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let rec = s.recorder(8);
    let p = Arc::new(FailingPlatform::new(rec.clone(), 4));
    let cc = s.context(p.clone());
    s.phase("crash", &cc, || rec.api_calls(), || stream(&cc, objects(0..8)));
    p.reset_budget(1_000);
    s.phase("rerun", &cc, || rec.api_calls(), || stream(&cc, objects(0..8)));
    s.trace()
}

/// Tasks for rows 0..5 were published (redundancy 2) on a platform that
/// then restarted: the stream probes them, finds them lost and republishes
/// them under their stored redundancy, alongside the fresh rows.
fn stream_restart(depth: usize) -> Vec<Value> {
    let s = Session::new(depth);
    let p1 = s.recorder(9);
    let cc1 = s.context(p1.clone());
    s.phase("publish_only", &cc1, || p1.api_calls(), || {
        publish_only(&cc1, "stream", objects(0..5), 2)
    });
    let p2 = s.recorder(10);
    let cc2 = s.context(p2.clone());
    s.phase("after_restart", &cc2, || p2.api_calls(), || stream(&cc2, objects(0..8)));
    s.trace()
}

/// A scenario: the trace it records at an in-flight depth.
type Scenario = fn(usize) -> Vec<Value>;

fn all_traces() -> Value {
    let scenarios: [(&str, Scenario); 9] = [
        ("classic_fresh", classic_fresh),
        ("classic_extend", classic_extend),
        ("classic_rerun", classic_rerun),
        ("classic_restart", classic_restart),
        ("classic_partial_loss", classic_partial_loss),
        ("classic_crash", classic_crash),
        ("stream_fresh", stream_fresh),
        ("stream_crash", stream_crash),
        ("stream_restart", stream_restart),
    ];
    let mut out = serde_json::Map::new();
    for (name, scenario) in scenarios {
        for depth in [1usize, 4] {
            out.insert(format!("{name}@depth{depth}"), Value::Array(scenario(depth)));
        }
    }
    Value::Object(out)
}

#[test]
fn call_traces_match_the_recorded_engine() {
    let traces = all_traces();
    if std::env::var_os("CALL_TRACE_REGEN").is_some() {
        std::fs::write(FIXTURE, serde_json::to_string_pretty(&traces).unwrap() + "\n").unwrap();
        return;
    }
    let recorded: Value = serde_json::from_str(
        &std::fs::read_to_string(FIXTURE).expect("fixture exists; regenerate with CALL_TRACE_REGEN=1"),
    )
    .unwrap();
    let (got, want) = (traces.as_object().unwrap(), recorded.as_object().unwrap());
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "scenario set changed"
    );
    for (name, trace) in got {
        let (trace, expected) = (trace.as_array().unwrap(), want[name].as_array().unwrap());
        for (i, (g, w)) in trace.iter().zip(expected).enumerate() {
            assert_eq!(g, w, "{name}: entry {i} diverged from the recorded call sequence");
        }
        assert_eq!(trace.len(), expected.len(), "{name}: trace length changed");
        if let Some(scenario) = name.strip_suffix("@depth4") {
            let depth1 = got.get(&format!("{scenario}@depth1")).and_then(Value::as_array);
            assert_eq!(Some(trace), depth1, "{scenario}: the in-flight depth changed the trace");
        }
    }
}

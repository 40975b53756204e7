//! The execution engine: every crowd step is a run of chunks through one
//! lifecycle, with overlapped platform round-trips and in-order commits.
//!
//! [`CrowdData::publish`](crate::CrowdData::publish),
//! [`CrowdData::collect`](crate::CrowdData::collect) and [`run_stream`]
//! hand their rows to one engine. It splits the rows into chunks of the
//! context's [`batch_size`](crate::CrowdContext::batch_size) and runs each
//! chunk through the stages its caller selects, always in this order:
//!
//! 1. **probe**: one bulk status call over the chunk's cached tasks; a task
//!    the platform no longer knows (the platform restarted) is republished
//!    under its stored redundancy.
//! 2. **publish**: one bulk publish of the rows that have no task.
//! 3. **wait**: drive the platform until the chunk's tasks complete.
//! 4. **fetch**: one bulk fetch of the runs of the rows with no result.
//!
//! | caller | what it runs |
//! |--------|--------------|
//! | [`run_stream`] | its cache lookups, then all four stages per chunk |
//! | `publish` | its row-parallel cache pass, then the publish stage over the misses |
//! | `collect` | its row-parallel cache pass, then the probe stage over the candidates, the publish stage over the lost rows, one `run_until_complete` over every pending task, and the fetch stage |
//!
//! Every chunk commits through one path, on the calling thread and strictly
//! in chunk order: its new task cells in one atomic store write, its fetched
//! result cells in another, each metered in
//! [`BatchMetrics`](crate::exec::BatchMetrics) and counted in
//! [`RunStats`]; then the caller receives the chunk's rows.
//!
//! Three mechanisms make the in-flight depth a pure wall-clock knob:
//!
//! * **A bounded-depth scheduler** (plain threads and channels): up to
//!   [`ExecutionConfig::inflight_batches`](crate::exec::ExecutionConfig::inflight_batches)
//!   chunks are in flight at once, with claim backpressure so resident
//!   work never outruns the commit frontier by more than the window.
//!   Depth 1 degenerates to an inline loop — bit-for-bit the sequential
//!   engine.
//! * **Ordered effects** (the platform crate's [`IssueGate`]): stage `s` of
//!   chunk `k` takes slot `k × stages + s`, and the call's effect — id
//!   allocation, clock ticks, budget charges, API accounting — waits its
//!   turn. The platform therefore observes the **exact call sequence a
//!   sequential run issues, at every depth**; only the wire time overlaps.
//!   This is why columns, cache contents, and call counts are bit-identical
//!   across in-flight depths: determinism is proved by call-sequence
//!   equality, not argued per platform.
//! * **Ordered commits**: a failure at chunk `k` cancels the issue gate for
//!   everything after `k` (see
//!   [`IssueGate::close_from`](reprowd_platform::IssueGate::close_from)),
//!   commits exactly the chunks before `k`, and reports `k`'s error — the
//!   same store prefix and, for errors raised by the platform calls
//!   themselves, the same platform state a sequential run stopping at `k`
//!   leaves. (Client-side post-checks that fail *after* a call returned
//!   cancel at the commit barrier instead, so up to the in-flight window
//!   of later chunks may already be on the platform — the same bounded
//!   exposure as the documented crash window.)
//!
//! [`run_stream`] accepts its candidates as an **iterator**, so operators
//! (sort, max, CrowdER join) generate candidate pairs lazily: generation
//! interleaves with publishing, at most a window's worth of rows is
//! resident, and a join over 10⁴ records never materializes an O(n²) pair
//! vector.

use crate::context::CrowdContext;
use crate::crowddata::{votes_over, RunStats};
use crate::error::{Error, Result};
use crate::hash::RowHashes;
use crate::presenter::Presenter;
use crate::store::{ExperimentStore, Manifest, StoredResult, StoredTask};
use crate::value::Value;
use reprowd_platform::types::{TaskId, TaskRun, TaskSpec};
use reprowd_platform::IssueGate;
use reprowd_quality::{majority_vote_matrix, TiePolicy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

// ---------------------------------------------------------------- driver

/// Worker → coordinator message: a finished job, or a source failure.
enum Msg<J, T> {
    Finished(usize, J, Result<T>),
    SourceFailed(usize, Error),
}

/// Runs jobs through the bounded-depth pipeline.
///
/// * `source(k)` produces job `k` (`None` = stream exhausted). Called in
///   ascending `k` under a lock, so stateful sources (iterators,
///   running hashes) see their pulls in order even though workers race to
///   claim.
/// * `work(k, &mut job)` performs the job's platform round-trips on a
///   worker thread; its gated calls must use slots
///   `[k·slots_per_job, (k+1)·slots_per_job)`.
/// * `commit(k, job, out)` runs on the calling thread, strictly in
///   ascending `k`.
///
/// On the first error (by job order): jobs before it are committed, the
/// gate is closed from that job's slots, and that error is returned.
pub(crate) fn run_windowed<J, T>(
    depth: usize,
    slots_per_job: u64,
    gate: &IssueGate,
    mut source: impl FnMut(usize) -> Result<Option<J>> + Send,
    work: impl Fn(usize, &mut J) -> Result<T> + Sync,
    mut commit: impl FnMut(usize, J, T) -> Result<()>,
) -> Result<()>
where
    J: Send,
    T: Send,
{
    if depth <= 1 {
        // The sequential engine, verbatim: claim, work, commit, repeat.
        let mut k = 0usize;
        while let Some(mut job) = source(k)? {
            let out = work(k, &mut job)?;
            commit(k, job, out)?;
            k += 1;
        }
        return Ok(());
    }

    struct SourceState<S> {
        next: usize,
        /// Jobs committed so far — claims may run at most `window` ahead
        /// of this (backpressure: bounds resident jobs, and with them the
        /// streaming operators' memory, by the in-flight window).
        committed: usize,
        done: bool,
        f: S,
    }
    let window = 2 * depth; // `depth` in work + `depth` awaiting commit
    let claims = Mutex::new(SourceState { next: 0, committed: 0, done: false, f: source });
    let claims_cv = std::sync::Condvar::new();
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Msg<J, T>>();

    std::thread::scope(|scope| {
        for _ in 0..depth {
            let tx = tx.clone();
            let claims = &claims;
            let claims_cv = &claims_cv;
            let abort = &abort;
            let work = &work;
            scope.spawn(move || loop {
                let claimed = {
                    let mut s = claims.lock().expect("pipeline claim lock");
                    loop {
                        if abort.load(Ordering::Relaxed) || s.done {
                            break;
                        }
                        if s.next < s.committed + window {
                            break;
                        }
                        s = claims_cv.wait(s).expect("pipeline claim wait");
                    }
                    if abort.load(Ordering::Relaxed) || s.done {
                        None
                    } else {
                        let k = s.next;
                        match (s.f)(k) {
                            Ok(Some(job)) => {
                                s.next += 1;
                                Some((k, job))
                            }
                            Ok(None) => {
                                s.done = true;
                                None
                            }
                            Err(e) => {
                                s.done = true;
                                let _ = tx.send(Msg::SourceFailed(k, e));
                                None
                            }
                        }
                    }
                };
                let Some((k, mut job)) = claimed else { return };
                let out = work(k, &mut job);
                let failed = out.is_err();
                let _ = tx.send(Msg::Finished(k, job, out));
                if failed {
                    return;
                }
            });
        }
        drop(tx);

        // Coordinator: buffer out-of-order completions, commit in order,
        // stop at the first error by job index.
        let mut buffer: BTreeMap<usize, (J, T)> = BTreeMap::new();
        let mut next_commit = 0usize;
        let mut first_err: Option<(usize, Error)> = None;
        let fail = |k: usize, e: Error, first_err: &mut Option<(usize, Error)>| {
            abort.store(true, Ordering::Relaxed);
            gate.close_from(k as u64 * slots_per_job);
            if first_err.as_ref().is_none_or(|(fk, _)| k < *fk) {
                *first_err = Some((k, e));
            }
            // Wake workers parked on the claim backpressure so they
            // observe the abort and exit.
            claims_cv.notify_all();
        };
        for msg in rx {
            match msg {
                Msg::Finished(k, job, Ok(out)) => {
                    buffer.insert(k, (job, out));
                }
                Msg::Finished(k, _, Err(e)) | Msg::SourceFailed(k, e) => {
                    fail(k, e, &mut first_err);
                }
            }
            let before = next_commit;
            while first_err.as_ref().is_none_or(|(fk, _)| next_commit < *fk) {
                let Some((job, out)) = buffer.remove(&next_commit) else { break };
                if let Err(e) = commit(next_commit, job, out) {
                    fail(next_commit, e, &mut first_err);
                    break;
                }
                next_commit += 1;
            }
            if next_commit != before {
                // Release claim backpressure for the committed jobs.
                claims.lock().expect("pipeline claim lock").committed = next_commit;
                claims_cv.notify_all();
            }
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    })
}

// ---------------------------------------------------------------- engine

/// A stage of the chunk lifecycle (see the module docs). A run's chunks
/// execute their stages in the order the caller lists them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    /// Probe the chunk's cached tasks; mark the lost ones for republishing.
    Probe,
    /// Publish the rows that have no task.
    Publish,
    /// Wait until the tasks of the rows with no result complete.
    Wait,
    /// Fetch the runs of the rows that have no result.
    Fetch,
}

/// One row moving through the chunk lifecycle.
pub(crate) struct ChunkRow {
    /// The caller's position for the row (table or stream index).
    pub(crate) index: usize,
    /// The cache key of the row's cells.
    pub(crate) key: String,
    /// The row's object.
    pub(crate) object: Value,
    /// The task cell: from the cache, or published by this run.
    pub(crate) task: Option<StoredTask>,
    /// The result cell: from the cache, or fetched by this run.
    pub(crate) result: Option<StoredResult>,
    /// Workers to ask if the row publishes: the run's redundancy for a new
    /// row, the stored cell's own redundancy for a lost task.
    pub(crate) redundancy: u32,
    /// The probe stage found the row's cached task lost by the platform.
    pub(crate) lost: bool,
}

impl ChunkRow {
    /// A row with no cells yet.
    pub(crate) fn new(index: usize, key: String, object: Value, redundancy: u32) -> Self {
        ChunkRow { index, key, object, task: None, result: None, redundancy, lost: false }
    }

    fn task_id(&self) -> TaskId {
        self.task.as_ref().expect("row has a task").task.id
    }
}

/// A chunk in flight, with what its stages did to it.
struct Chunk {
    rows: Vec<ChunkRow>,
    probed: u64,
    /// Positions of the rows the publish stage gave a task.
    published: Vec<usize>,
    /// Positions of the rows the fetch stage gave a result.
    fetched: Vec<usize>,
}

impl Chunk {
    fn positions(&self, pred: impl Fn(&ChunkRow) -> bool) -> Vec<usize> {
        (0..self.rows.len()).filter(|&p| pred(&self.rows[p])).collect()
    }

    fn task_ids(&self, at: &[usize]) -> Vec<TaskId> {
        at.iter().map(|&p| self.rows[p].task_id()).collect()
    }
}

/// Enforces the bulk-endpoint contract ("all-or-nothing, results in
/// request order"): a platform answering a bulk call with the wrong
/// cardinality would otherwise silently leave tail rows unpersisted.
fn check_bulk_len(op: &str, got: usize, requested: usize) -> Result<()> {
    if got != requested {
        return Err(Error::State(format!(
            "platform bulk contract violated: {op} returned {got} items for a \
             batch of {requested}"
        )));
    }
    Ok(())
}

/// Runs `rows` through the chunk lifecycle — the one execution engine.
///
/// Rows are chunked by the context's batch size; each chunk runs `stages`
/// in order, one gated platform call per stage, with up to
/// `inflight_batches` chunks in flight. Chunks commit in order (see the
/// module docs), then `sink` receives each chunk's rows. The first chunk
/// that publishes resolves the experiment's platform project, recording a
/// newly created one in `manifest`; a run that publishes nothing makes no
/// project call. Returns the run's accounting: the work it did in `stats`,
/// plus its row, chunk and residency counts.
pub(crate) fn run_chunks(
    cc: &CrowdContext,
    manifest: &mut Manifest,
    presenter: &Presenter,
    stages: &[Stage],
    mut rows: impl Iterator<Item = Result<ChunkRow>> + Send,
    mut sink: impl FnMut(Vec<ChunkRow>) -> Result<()>,
) -> Result<StreamReport> {
    let batch_size = cc.exec().batch_size();
    let slots = stages.len() as u64;
    let gate = IssueGate::new();
    let project: Mutex<(&mut Manifest, Option<u64>)> = Mutex::new((manifest, None));
    let inflight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let mut report = StreamReport::default();

    run_windowed(
        cc.exec().inflight_batches(),
        slots,
        &gate,
        |_k| {
            let rows = rows.by_ref().take(batch_size).collect::<Result<Vec<_>>>()?;
            if rows.is_empty() {
                return Ok(None);
            }
            let now = inflight.fetch_add(rows.len(), Ordering::Relaxed) + rows.len();
            peak.fetch_max(now, Ordering::Relaxed);
            Ok(Some(Chunk { rows, probed: 0, published: Vec::new(), fetched: Vec::new() }))
        },
        |k, chunk: &mut Chunk| {
            for (s, &stage) in stages.iter().enumerate() {
                let slot = k as u64 * slots + s as u64;
                run_stage(cc, presenter, &project, stage, chunk, &gate, slot)?;
            }
            Ok(())
        },
        |_k, chunk, ()| {
            let Chunk { mut rows, probed, published, fetched } = chunk;
            for &p in &published {
                // Copied here rather than in the publish stage: a task cell
                // outlives the run, and copies allocated on the short-lived
                // worker threads raised the peak RSS of a 5,000-row
                // publish+collect by 8 MiB (2-vCPU Linux host, glibc).
                let ChunkRow { task, object, .. } = &mut rows[p];
                task.as_mut().expect("published row has a task").object = object.clone();
            }
            let metrics = cc.exec().metrics();
            if probed > 0 {
                metrics.record_probe(probed);
            }
            if !published.is_empty() {
                metrics.record_publish(published.len() as u64);
                cc.store().put_task_batch(published.iter().map(|&p| {
                    (rows[p].key.as_str(), rows[p].task.as_ref().expect("published row has a task"))
                }))?;
            }
            if !fetched.is_empty() {
                metrics.record_fetch(fetched.len() as u64);
                cc.store().put_result_batch(fetched.iter().map(|&p| {
                    (rows[p].key.as_str(), rows[p].result.as_ref().expect("fetched row has a result"))
                }))?;
            }
            for &p in &published {
                if rows[p].lost {
                    report.stats.tasks_republished += 1;
                } else {
                    report.stats.tasks_published += 1;
                }
            }
            report.stats.results_collected += fetched.len() as u64;
            inflight.fetch_sub(rows.len(), Ordering::Relaxed);
            report.chunks += 1;
            report.rows += rows.len() as u64;
            sink(rows)
        },
    )?;
    report.peak_inflight_rows = peak.load(Ordering::Relaxed);
    Ok(report)
}

/// Runs one stage of one chunk: its single gated platform call, the bulk
/// contract check, and the row updates.
fn run_stage(
    cc: &CrowdContext,
    presenter: &Presenter,
    project: &Mutex<(&mut Manifest, Option<u64>)>,
    stage: Stage,
    chunk: &mut Chunk,
    gate: &IssueGate,
    slot: u64,
) -> Result<()> {
    let platform = cc.platform();
    match stage {
        Stage::Probe => {
            let at = chunk.positions(|r| r.task.is_some() && r.result.is_none());
            let ids = chunk.task_ids(&at);
            let statuses = platform.are_complete_pipelined(&ids, gate, slot)?;
            check_bulk_len("are_complete", statuses.len(), ids.len())?;
            chunk.probed = ids.len() as u64;
            for (&p, status) in at.iter().zip(statuses) {
                if status.is_none() {
                    let row = &mut chunk.rows[p];
                    row.redundancy = row.task.take().expect("probed row has a task").n_assignments;
                    row.lost = true;
                }
            }
        }
        Stage::Publish => {
            let at = chunk.positions(|r| r.task.is_none() && r.result.is_none());
            if at.is_empty() {
                // Nothing to publish: advance the slot without a request.
                platform.publish_tasks_pipelined(0, Vec::new(), gate, slot)?;
                return Ok(());
            }
            let pid = {
                let mut guard = project.lock().expect("project lock");
                let (manifest, pid) = &mut *guard;
                match *pid {
                    Some(pid) => pid,
                    None => *pid.insert(ensure_project(cc, manifest, presenter)?),
                }
            };
            let specs: Vec<TaskSpec> = at
                .iter()
                .map(|&p| TaskSpec {
                    payload: presenter.render(&chunk.rows[p].object),
                    n_assignments: chunk.rows[p].redundancy,
                })
                .collect();
            let tasks = platform.publish_tasks_pipelined(pid, specs, gate, slot)?;
            check_bulk_len("publish_tasks", tasks.len(), at.len())?;
            for (&p, task) in at.iter().zip(tasks) {
                let row = &mut chunk.rows[p];
                // The cell's copy of the object is made at commit.
                let object = Value::Null;
                row.task = Some(StoredTask { task, object, n_assignments: row.redundancy });
            }
            chunk.published = at;
        }
        Stage::Wait => {
            let ids = chunk.task_ids(&chunk.positions(|r| r.result.is_none()));
            platform.run_until_complete_pipelined(&ids, gate, slot)?;
        }
        Stage::Fetch => {
            let at = chunk.positions(|r| r.result.is_none());
            let ids = chunk.task_ids(&at);
            let runs_per_task = platform.fetch_runs_bulk_pipelined(&ids, gate, slot)?;
            check_bulk_len("fetch_runs_bulk", runs_per_task.len(), ids.len())?;
            for (&p, runs) in at.iter().zip(runs_per_task) {
                chunk.rows[p].result = Some(StoredResult { runs });
            }
            chunk.fetched = at;
        }
    }
    Ok(())
}

// ----------------------------------------------------------- shared bits

/// Resolves (or creates) the platform project an experiment publishes
/// into, persisting a newly created id into the manifest. A fresh platform
/// instance may have lost the recorded project, so the id is revalidated.
fn ensure_project(cc: &CrowdContext, manifest: &mut Manifest, presenter: &Presenter) -> Result<u64> {
    if let Some(pid) = manifest.project_id {
        if cc.platform().project(pid).is_ok() {
            return Ok(pid);
        }
    }
    let pid = cc
        .platform()
        .create_project(&format!("{}:{}", manifest.name, presenter.name))?;
    manifest.project_id = Some(pid);
    cc.store().manifests.put(manifest.name.as_bytes(), manifest)?;
    Ok(pid)
}

/// Majority vote over one row's runs, against an explicit answer space —
/// the streaming counterpart of
/// [`CrowdData::majority_vote`](crate::CrowdData::majority_vote), with
/// identical semantics: answers outside the space are dropped, ties break
/// toward the earlier space entry, no votes yields `Null`.
pub fn majority_answer(runs: &[TaskRun], space: &[Value]) -> Value {
    let matrix = votes_over(space, std::iter::once(runs));
    match majority_vote_matrix(&matrix, TiePolicy::LowestLabel)[0] {
        Some(l) => space.get(l).cloned().unwrap_or(Value::Null),
        None => Value::Null,
    }
}

// ------------------------------------------------------------- streaming

/// What to run a streamed experiment as: the cache namespace, the task UI,
/// and the redundancy — the same three things the classic
/// `presenter(...).publish(n)` chain fixes.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Experiment name (cache namespace, same rules as
    /// [`CrowdContext::crowddata`](crate::CrowdContext::crowddata)).
    pub experiment: String,
    /// The task UI; its fingerprint keys the cache exactly as in the
    /// classic path, so streamed and classic runs of the same experiment
    /// share cells.
    pub presenter: Presenter,
    /// Workers per task.
    pub n_assignments: u32,
}

/// One collected row handed to the streaming sink, in input order.
#[derive(Debug, Clone)]
pub struct StreamedRow {
    /// Position of the candidate in the input stream.
    pub index: usize,
    /// The candidate object.
    pub object: Value,
    /// The collected (or cache-served) result cell.
    pub result: StoredResult,
}

/// Outcome accounting of a [`run_stream`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamReport {
    /// Cache-reuse statistics, same semantics as
    /// [`CrowdData::run_stats`](crate::CrowdData::run_stats).
    pub stats: RunStats,
    /// Rows streamed through (candidates consumed).
    pub rows: u64,
    /// Chunks the stream was split into.
    pub chunks: u64,
    /// High-water mark of rows resident in the pipeline at once (claimed
    /// but not yet committed) — the operators' memory-bound guarantee:
    /// bounded by the in-flight window, never by the candidate count.
    pub peak_inflight_rows: usize,
}

/// Streams `candidates` through the full probe→publish→wait→fetch
/// lifecycle and hands each collected row to `sink`, in input order.
///
/// This is how the operators run on the engine: candidates are pulled lazily
/// (generation interleaves with publishing), chunked by the context's
/// [`batch_size`](crate::CrowdContext::batch_size), and processed with up
/// to [`inflight_batches`](crate::exec::ExecutionConfig::inflight_batches)
/// chunks in flight. Caching, keys, lost-task republishing, and metrics
/// all match the classic `publish`/`collect` path — a streamed rerun of a
/// classic run (or vice versa) is served from the same cells.
///
/// Unlike the classic path, each chunk *waits for and fetches* its own
/// tasks before later chunks publish (all four stages per chunk), so on a
/// simulated crowd the answers are those of a crowd that works chunk by
/// chunk. The schedule is fixed per `(stream, batch_size)`: results are
/// bit-identical at every in-flight depth, and reruns are free.
pub fn run_stream(
    cc: &CrowdContext,
    spec: &StreamSpec,
    candidates: impl Iterator<Item = Value> + Send,
    mut sink: impl FnMut(StreamedRow) -> Result<()>,
) -> Result<StreamReport> {
    crate::context::validate_experiment_name(&spec.experiment)?;
    if spec.n_assignments == 0 {
        return Err(Error::State("n_assignments must be positive".into()));
    }
    let fp = spec.presenter.fingerprint();
    let mut manifest = match cc.store().manifests.get(spec.experiment.as_bytes())? {
        Some(m) => m,
        None => Manifest::new(&spec.experiment),
    };
    if manifest.presenter_fingerprint.as_deref() != Some(fp.as_str())
        || manifest.n_assignments != Some(spec.n_assignments)
    {
        manifest.presenter_fingerprint = Some(fp.clone());
        manifest.n_assignments = Some(spec.n_assignments);
        cc.store().manifests.put(spec.experiment.as_bytes(), &manifest)?;
    }

    // Cache lookups, as candidates are pulled: keys follow the classic
    // `data(...)` scheme, so streamed and classic runs share cells. A
    // cached result skips the platform; a cached task skips publishing
    // (unless the probe finds it lost).
    let mut hashes = RowHashes::default();
    let mut reused = RunStats::default();
    let rows = candidates.enumerate().map(|(index, object)| -> Result<ChunkRow> {
        let key = ExperimentStore::row_key(&spec.experiment, &fp, &hashes.next(&object));
        let mut row = ChunkRow::new(index, key, object, spec.n_assignments);
        if let Some(result) = cc.store().results.get(row.key.as_bytes())? {
            row.result = Some(result);
            reused.results_reused += 1;
            reused.tasks_reused += 1;
        } else if let Some(task) = cc.store().tasks.get(row.key.as_bytes())? {
            row.task = Some(task);
            reused.tasks_reused += 1;
        }
        Ok(row)
    });
    let stages = [Stage::Probe, Stage::Publish, Stage::Wait, Stage::Fetch];
    let mut report = run_chunks(cc, &mut manifest, &spec.presenter, &stages, rows, |chunk| {
        for row in chunk {
            let result = row.result.ok_or_else(|| {
                Error::State(format!("streamed row {} finished without a result", row.index))
            })?;
            sink(StreamedRow { index: row.index, object: row.object, result })?;
        }
        Ok(())
    })?;
    report.stats += reused;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::val;
    use reprowd_platform::Error as PlatformError;

    // ------------------------------------------------------- run_windowed

    #[test]
    fn commits_in_order_at_every_depth() {
        for depth in [1usize, 2, 4, 8] {
            let gate = IssueGate::new();
            let mut jobs = (0..17u64).collect::<Vec<_>>().into_iter();
            let committed = std::cell::RefCell::new(Vec::new());
            run_windowed(
                depth,
                1,
                &gate,
                |_k| Ok(jobs.next()),
                |k, job: &mut u64| {
                    // Effects in slot order even though workers race.
                    let turn = gate.turn(k as u64)?;
                    turn.complete();
                    Ok(*job * 2)
                },
                |k, job, out| {
                    assert_eq!(out, job * 2);
                    committed.borrow_mut().push(k);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(*committed.borrow(), (0..17).collect::<Vec<_>>(), "depth {depth}");
        }
    }

    #[test]
    fn first_error_commits_exact_prefix_and_cancels_the_rest() {
        for depth in [1usize, 2, 4, 8] {
            let gate = IssueGate::new();
            let mut jobs = (0..12u64).collect::<Vec<_>>().into_iter();
            let committed = std::cell::RefCell::new(Vec::new());
            let err = run_windowed(
                depth,
                1,
                &gate,
                |_k| Ok(jobs.next()),
                |k, _job: &mut u64| {
                    let turn = gate.turn(k as u64)?;
                    if k == 5 {
                        // Failing inside the turn: drop cancels later slots.
                        drop(turn);
                        return Err(Error::State("job 5 exploded".into()));
                    }
                    turn.complete();
                    Ok(())
                },
                |k, _job, _out| {
                    committed.borrow_mut().push(k);
                    Ok(())
                },
            )
            .unwrap_err();
            assert!(err.to_string().contains("job 5 exploded"), "depth {depth}: {err}");
            assert_eq!(*committed.borrow(), vec![0, 1, 2, 3, 4], "depth {depth}");
        }
    }

    #[test]
    fn commit_error_stops_the_stream() {
        let gate = IssueGate::new();
        let mut jobs = (0..8u64).collect::<Vec<_>>().into_iter();
        let committed = std::cell::RefCell::new(0usize);
        let err = run_windowed(
            4,
            1,
            &gate,
            |_k| Ok(jobs.next()),
            |k, _job: &mut u64| {
                gate.turn(k as u64)?.complete();
                Ok(())
            },
            |k, _job, _out| {
                if k == 3 {
                    return Err(Error::State("commit 3 failed".into()));
                }
                *committed.borrow_mut() += 1;
                Ok(())
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("commit 3 failed"));
        assert_eq!(*committed.borrow(), 3);
    }

    #[test]
    fn source_error_reports_after_prior_jobs_commit() {
        let gate = IssueGate::new();
        let committed = std::cell::RefCell::new(Vec::new());
        let err = run_windowed(
            4,
            1,
            &gate,
            |k| {
                if k == 6 {
                    Err(Error::State("source died".into()))
                } else {
                    Ok(Some(k as u64))
                }
            },
            |k, _job: &mut u64| {
                gate.turn(k as u64)?.complete();
                Ok(())
            },
            |k, _job, _out| {
                committed.borrow_mut().push(k);
                Ok(())
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("source died"));
        assert_eq!(*committed.borrow(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_jobs_do_not_mask_the_real_error() {
        // Workers past the failure see Cancelled from the gate; the error
        // reported must be the real one at the lowest job index.
        let gate = IssueGate::new();
        let mut jobs = (0..10u64).collect::<Vec<_>>().into_iter();
        let err = run_windowed(
            8,
            1,
            &gate,
            |_k| Ok(jobs.next()),
            |k, _job: &mut u64| {
                let turn = gate.turn(k as u64)?;
                if k == 2 {
                    drop(turn);
                    return Err(Error::Platform(PlatformError::Injected("the real one".into())));
                }
                turn.complete();
                Ok(())
            },
            |_k, _job, _out| Ok(()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("the real one"), "got: {err}");
    }

    #[test]
    fn streamed_republish_keeps_the_stored_redundancy() {
        // Publish under redundancy 4, lose the platform, then stream the
        // same experiment asking for 2: the lost tasks must be
        // re-published with their stored redundancy (4), exactly like the
        // classic collect path.
        use crate::context::CrowdContext;
        use reprowd_platform::{CrowdPlatform, SimPlatform};
        use reprowd_storage::{Backend, MemoryStore};
        use std::sync::Arc;

        let db: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let presenter = crate::presenter::Presenter::image_label("Q?", &["Yes", "No"]);
        let obj = |i: usize| {
            val!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": 0, "labels": ["Yes", "No"], "difficulty": 0.0}
            })
        };
        let p1 = Arc::new(SimPlatform::quick(5, 1.0, 9));
        let cc1 = CrowdContext::new(Arc::clone(&p1) as Arc<dyn CrowdPlatform>, Arc::clone(&db))
            .unwrap();
        let _ = cc1
            .crowddata("lost")
            .unwrap()
            .data((0..3).map(obj).collect())
            .unwrap()
            .presenter(presenter.clone())
            .unwrap()
            .publish(4)
            .unwrap();
        // Fresh platform instance: the published tasks are gone.
        let p2 = Arc::new(SimPlatform::quick(5, 1.0, 10));
        let cc2 = CrowdContext::new(Arc::clone(&p2) as Arc<dyn CrowdPlatform>, db).unwrap();
        let spec = StreamSpec {
            experiment: "lost".into(),
            presenter,
            n_assignments: 2,
        };
        let mut run_counts = Vec::new();
        let report = run_stream(&cc2, &spec, (0..3).map(obj), |row| {
            run_counts.push(row.result.runs.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(report.stats.tasks_republished, 3);
        assert_eq!(run_counts, vec![4, 4, 4], "republished tasks keep redundancy 4");
    }

    // ---------------------------------------------------- majority_answer

    #[test]
    fn majority_answer_matches_classic_semantics() {
        use reprowd_platform::types::TaskRun;
        let space = vec![val!("first"), val!("second")];
        let run = |worker: u64, answer: Value| TaskRun {
            task_id: 1,
            worker_id: worker,
            answer,
            assigned_at: 0,
            submitted_at: 1,
        };
        // Clear majority.
        let runs = vec![run(1, val!("second")), run(2, val!("second")), run(3, val!("first"))];
        assert_eq!(majority_answer(&runs, &space), val!("second"));
        // Tie breaks toward the earlier space entry.
        let runs = vec![run(1, val!("first")), run(2, val!("second"))];
        assert_eq!(majority_answer(&runs, &space), val!("first"));
        // Junk answers are dropped; all-junk means no vote.
        let runs = vec![run(1, val!("garbage"))];
        assert_eq!(majority_answer(&runs, &space), Value::Null);
        assert_eq!(majority_answer(&[], &space), Value::Null);
    }
}

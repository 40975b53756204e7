//! Outside-in tracing: spans recorded around the calls the benchmark makes
//! into each layer of the program, with no instrumentation inside it.
//!
//! * [`Tracer`] keeps spans (name, start, end, parent id, one count) in
//!   memory until the run ends.
//! * [`TracedPlatform`] wraps a [`CrowdPlatform`]. Stacked *outside* a
//!   `LatencyPlatform` in the [`Role::Call`] role it times each whole call
//!   the engine makes; stacked *inside* it in the [`Role::Effect`] role it
//!   times the platform's own work. Their difference separates wire time,
//!   `IssueGate` wait and effect (see [`summarize`]).
//! * [`TracedBackend`] wraps the database [`Backend`]: commits and gets.
//! * Step spans ([`Tracer::step`]) wrap each `CrowdData` step.

use reprowd_platform::{
    CrowdPlatform, IssueGate, Project, ProjectId, Result as PResult, SimTime, Task, TaskId,
    TaskRun, TaskSpec,
};
use reprowd_storage::{Backend, Batch, Op, Result as SResult, StoreStats};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. `n` is a per-kind count: rows for platform calls,
/// user bytes for storage commits, 1/0 (hit/miss) for storage gets.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its tracer; ids start at 1.
    pub id: u64,
    /// Id of the enclosing span, 0 for the root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `platform.call.publish`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Per-kind count (see the type docs).
    pub n: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// Spans open on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder for one traced job.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// The innermost open step span; the parent of spans opened on threads
    /// with nothing open (the engine's pipeline workers).
    current_step: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            current_step: AtomicU64::new(0),
        }
    }
}

/// An open span; recorded when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    /// Count recorded with the span.
    pub n: u64,
    /// For step spans: the step to restore as current on close.
    restore_step: Option<u64>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        if let Some(prev) = self.restore_step {
            self.tracer.current_step.store(prev, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            n: self.n,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    /// A fresh tracer.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost span open on this thread, or under
    /// the current step when this thread has none open.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.current_step.load(Ordering::SeqCst));
            open.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            n: 0,
            restore_step: None,
        }
    }

    /// Opens a step span (the root job, or one `CrowdData` step): spans
    /// opened on any thread while it is open and nothing else is open there
    /// become its children.
    pub fn step(&self, name: &'static str) -> SpanGuard<'_> {
        let mut guard = self.enter(name);
        guard.restore_step = Some(self.current_step.swap(guard.id, Ordering::SeqCst));
        guard
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Where a [`TracedPlatform`] sits in the platform stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Outermost: times each call as the engine sees it, wire and gate
    /// included, and passes pipelined calls through unchanged.
    Call,
    /// Innermost, around the simulator: times the platform's own effect.
    /// Its pipelined calls take the gate turn themselves (as the trait's
    /// defaults do) so the effect span excludes the wait.
    Effect,
}

/// A [`CrowdPlatform`] wrapper recording one span per call.
pub struct TracedPlatform<P> {
    inner: Arc<P>,
    tracer: Arc<Tracer>,
    role: Role,
}

impl<P: CrowdPlatform> TracedPlatform<P> {
    /// Wraps `inner` in the given role.
    pub fn new(inner: Arc<P>, tracer: Arc<Tracer>, role: Role) -> Self {
        TracedPlatform {
            inner,
            tracer,
            role,
        }
    }

    /// Span name for an operation in this role.
    fn name(&self, op: CallKind) -> &'static str {
        match (self.role, op) {
            (Role::Call, CallKind::Create) => "platform.call.create",
            (Role::Call, CallKind::Publish) => "platform.call.publish",
            (Role::Call, CallKind::Fetch) => "platform.call.fetch",
            (Role::Call, CallKind::Probe) => "platform.call.probe",
            (Role::Call, CallKind::Wait) => "platform.call.wait",
            (Role::Call, CallKind::Other) => "platform.call.other",
            (Role::Effect, CallKind::Create) => "platform.effect.create",
            (Role::Effect, CallKind::Publish) => "platform.effect.publish",
            (Role::Effect, CallKind::Fetch) => "platform.effect.fetch",
            (Role::Effect, CallKind::Probe) => "platform.effect.probe",
            (Role::Effect, CallKind::Wait) => "platform.effect.wait",
            (Role::Effect, CallKind::Other) => "platform.effect.other",
        }
    }

    fn pipelined_name(op: CallKind) -> &'static str {
        match op {
            CallKind::Publish => "platform.pipelined.publish",
            CallKind::Fetch => "platform.pipelined.fetch",
            CallKind::Probe => "platform.pipelined.probe",
            _ => "platform.pipelined.wait",
        }
    }

    fn timed<T>(&self, op: CallKind, rows: usize, f: impl FnOnce() -> T) -> T {
        let mut span = self.tracer.enter(self.name(op));
        span.n = rows as u64;
        f()
    }

    /// A pipelined call: passed through whole in the call role; in the
    /// effect role the turn is taken here and only `effect` is timed.
    fn pipelined<T>(
        &self,
        op: CallKind,
        rows: usize,
        order: &IssueGate,
        slot: u64,
        outer: impl FnOnce() -> PResult<T>,
        effect: impl FnOnce() -> PResult<T>,
    ) -> PResult<T> {
        match self.role {
            Role::Call => {
                let mut span = self.tracer.enter(Self::pipelined_name(op));
                span.n = rows as u64;
                outer()
            }
            Role::Effect => {
                let turn = order.turn(slot)?;
                let out = effect()?;
                turn.complete();
                Ok(out)
            }
        }
    }
}

/// What a platform call does, as the traced roles name it.
#[derive(Debug, Clone, Copy)]
enum CallKind {
    Create,
    Publish,
    Fetch,
    Probe,
    Wait,
    Other,
}

impl<P: CrowdPlatform> CrowdPlatform for TracedPlatform<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create_project(&self, name: &str) -> PResult<ProjectId> {
        self.timed(CallKind::Create, 0, || self.inner.create_project(name))
    }

    fn project(&self, id: ProjectId) -> PResult<Project> {
        self.inner.project(id)
    }

    fn publish_task(&self, project: ProjectId, spec: TaskSpec) -> PResult<Task> {
        self.timed(CallKind::Publish, 1, || {
            self.inner.publish_task(project, spec)
        })
    }

    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> PResult<Vec<Task>> {
        self.timed(CallKind::Publish, specs.len(), || {
            self.inner.publish_tasks(project, specs)
        })
    }

    fn task(&self, id: TaskId) -> PResult<Task> {
        self.timed(CallKind::Other, 1, || self.inner.task(id))
    }

    fn fetch_runs(&self, task: TaskId) -> PResult<Vec<TaskRun>> {
        self.timed(CallKind::Fetch, 1, || self.inner.fetch_runs(task))
    }

    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> PResult<Vec<Vec<TaskRun>>> {
        self.timed(CallKind::Fetch, tasks.len(), || {
            self.inner.fetch_runs_bulk(tasks)
        })
    }

    fn is_complete(&self, task: TaskId) -> PResult<bool> {
        self.timed(CallKind::Probe, 1, || self.inner.is_complete(task))
    }

    fn are_complete(&self, tasks: &[TaskId]) -> PResult<Vec<Option<bool>>> {
        self.timed(CallKind::Probe, tasks.len(), || {
            self.inner.are_complete(tasks)
        })
    }

    fn step(&self) -> PResult<bool> {
        self.inner.step()
    }

    fn run_until_complete(&self, tasks: &[TaskId]) -> PResult<()> {
        self.timed(CallKind::Wait, tasks.len(), || {
            self.inner.run_until_complete(tasks)
        })
    }

    fn publish_tasks_pipelined(
        &self,
        project: ProjectId,
        specs: Vec<TaskSpec>,
        order: &IssueGate,
        slot: u64,
    ) -> PResult<Vec<Task>> {
        let rows = specs.len();
        // Both closures want `specs`; only one of them runs.
        let specs = RefCell::new(Some(specs));
        let take = || specs.borrow_mut().take().expect("specs used once");
        self.pipelined(
            CallKind::Publish,
            rows,
            order,
            slot,
            || {
                self.inner
                    .publish_tasks_pipelined(project, take(), order, slot)
            },
            || self.publish_tasks(project, take()),
        )
    }

    fn fetch_runs_bulk_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> PResult<Vec<Vec<TaskRun>>> {
        self.pipelined(
            CallKind::Fetch,
            tasks.len(),
            order,
            slot,
            || self.inner.fetch_runs_bulk_pipelined(tasks, order, slot),
            || self.fetch_runs_bulk(tasks),
        )
    }

    fn are_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> PResult<Vec<Option<bool>>> {
        self.pipelined(
            CallKind::Probe,
            tasks.len(),
            order,
            slot,
            || self.inner.are_complete_pipelined(tasks, order, slot),
            || self.are_complete(tasks),
        )
    }

    fn run_until_complete_pipelined(
        &self,
        tasks: &[TaskId],
        order: &IssueGate,
        slot: u64,
    ) -> PResult<()> {
        self.pipelined(
            CallKind::Wait,
            tasks.len(),
            order,
            slot,
            || self.inner.run_until_complete_pipelined(tasks, order, slot),
            || self.run_until_complete(tasks),
        )
    }

    fn api_calls(&self) -> u64 {
        self.inner.api_calls()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

/// A [`Backend`] wrapper recording one span per commit, get and scan.
pub struct TracedBackend<B: ?Sized> {
    inner: Arc<B>,
    tracer: Arc<Tracer>,
}

impl<B: Backend + ?Sized> TracedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<B>, tracer: Arc<Tracer>) -> Self {
        TracedBackend { inner, tracer }
    }
}

impl<B: Backend + ?Sized> Backend for TracedBackend<B> {
    fn set(&self, key: &[u8], value: &[u8]) -> SResult<()> {
        let mut span = self.tracer.enter("storage.commit");
        span.n = (key.len() + value.len()) as u64;
        self.inner.set(key, value)
    }

    fn get(&self, key: &[u8]) -> SResult<Option<Vec<u8>>> {
        let mut span = self.tracer.enter("storage.get");
        let out = self.inner.get(key);
        span.n = matches!(out, Ok(Some(_))) as u64;
        out
    }

    fn delete(&self, key: &[u8]) -> SResult<()> {
        let mut span = self.tracer.enter("storage.commit");
        span.n = key.len() as u64;
        self.inner.delete(key)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> SResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let _span = self.tracer.enter("storage.scan");
        self.inner.scan_prefix(prefix)
    }

    fn apply_batch(&self, batch: Batch) -> SResult<()> {
        let mut span = self.tracer.enter("storage.commit");
        span.n = batch
            .ops()
            .iter()
            .map(|op| match op {
                Op::Set { key, value } => key.len() + value.len(),
                Op::Delete { key } => key.len(),
            })
            .sum::<usize>() as u64;
        self.inner.apply_batch(batch)
    }

    fn contains(&self, key: &[u8]) -> SResult<bool> {
        let mut span = self.tracer.enter("storage.get");
        let out = self.inner.contains(key);
        span.n = matches!(out, Ok(true)) as u64;
        out
    }

    fn flush(&self) -> SResult<()> {
        let _span = self.tracer.enter("storage.flush");
        self.inner.flush()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Median and tail of a sample of timings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Dist {
    /// Samples.
    pub n: usize,
    /// Sum.
    pub sum: f64,
    /// Median.
    pub p50: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least ten samples
    /// beyond it (the median when there are too few samples for any).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// Tail percentiles tried, highest first.
pub(crate) const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of sorted `v` (non-empty), `p` in (0, 100].
fn percentile(v: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

impl Dist {
    /// Summarizes `samples` (order irrelevant).
    pub fn of(mut samples: Vec<f64>) -> Dist {
        if samples.is_empty() {
            return Dist::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let p50 = percentile(&samples, 50.0);
        let (tail_pct, tail) = TAIL_LADDER
            .iter()
            .find(|&&p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
            .map_or((50.0, p50), |&p| (p, percentile(&samples, p)));
        Dist {
            n,
            sum: samples.iter().sum(),
            p50,
            tail_pct,
            tail,
        }
    }
}

/// Wall time of `span` not covered by the union of `children`, in ns.
fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Step spans whose self time no lower layer accounts for: the root job,
/// the core steps, and the operator call.
pub(crate) const UNATTRIBUTED_STEPS: [&str; 6] = [
    "job",
    "core.data",
    "core.presenter",
    "core.publish",
    "core.collect",
    "operators.crowder_join",
];

/// Per-layer figures derived from one traced job's spans.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanSummary {
    /// Named sums and counts (ms for times).
    pub values: BTreeMap<&'static str, f64>,
    /// Per pipelined call: gate wait in ms.
    pub gate_wait: Dist,
    /// Per commit: ms.
    pub commit: Dist,
}

/// Derives the platform, storage, step and attribution figures from
/// `spans`. `wire` says whether a latency wrapper sits between the call
/// and effect tracers: its wire time per pipelined call is taken as twice
/// the measured response leg (the time from the effect's end to the call's
/// end; the two legs sleep the same duration); a plain call's wire time is
/// its duration minus its effect.
pub(crate) fn summarize(spans: &[Span], wire: bool) -> SpanSummary {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let kids = |s: &Span| children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
    let mut out = SpanSummary::default();
    let mut add = |k: &'static str, v: f64| *out.values.entry(k).or_insert(0.0) += v;
    let (mut gate, mut commits) = (Vec::new(), Vec::new());
    // Rows in outstanding pipelined calls, as +/- events.
    let mut inflight: Vec<(u64, i64)> = Vec::new();
    for s in spans {
        let ms = s.ms();
        match s.name {
            "core.data" => add("core.data_ms", ms),
            "core.presenter" => add("core.presenter_ms", ms),
            "core.publish" => add("core.publish_ms", ms),
            "core.collect" => add("core.collect_ms", ms),
            "quality.majority_vote" => add("quality.majority_vote_ms", ms),
            "storage.commit" => {
                commits.push(ms);
                add("storage.user_bytes", s.n as f64);
            }
            "storage.get" => {
                add("storage.gets", 1.0);
                add("storage.get_ms", ms);
                add("storage.hits", s.n as f64);
            }
            "platform.effect.publish" => {
                add("platform.effect_ms.publish", ms);
                add("platform.effect_calls.publish", 1.0);
            }
            "platform.effect.fetch" => {
                add("platform.effect_ms.fetch", ms);
                add("platform.effect_calls.fetch", 1.0);
            }
            "platform.effect.probe" => {
                add("platform.effect_ms.probe", ms);
                add("platform.effect_calls.probe", 1.0);
            }
            "platform.effect.wait" => {
                add("platform.effect_ms.wait", ms);
                add("platform.effect_calls.wait", 1.0);
            }
            name if name.starts_with("platform.call.") => {
                let effect: f64 = kids(s).iter().map(|c| c.ms()).sum();
                if wire {
                    add("platform.wire_ms", (ms - effect).max(0.0));
                }
            }
            name if name.starts_with("platform.pipelined.") => {
                inflight.push((s.start_ns, s.n as i64));
                inflight.push((s.end_ns, -(s.n as i64)));
                let effects = kids(s);
                let effect: f64 = effects.iter().map(|c| c.ms()).sum();
                let wire_ms = match effects.iter().map(|c| c.end_ns).max() {
                    Some(end) if wire => 2.0 * (s.end_ns.saturating_sub(end)) as f64 / 1e6,
                    _ => 0.0,
                };
                add("platform.wire_ms", wire_ms);
                gate.push((ms - effect - wire_ms).max(0.0));
            }
            _ => {}
        }
        if UNATTRIBUTED_STEPS.contains(&s.name) {
            add(
                "trace.unattributed_ms",
                self_time_ns(s, kids(s)) as f64 / 1e6,
            );
        }
    }
    // Ends sort before starts at the same instant.
    inflight.sort_unstable();
    let (mut now, mut peak) = (0i64, 0i64);
    for (_, d) in inflight {
        now += d;
        peak = peak.max(now);
    }
    add("core.peak_inflight_rows", peak as f64);
    out.gate_wait = Dist::of(gate);
    out.commit = Dist::of(commits);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            n: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, "job", 0, 100);
        let a = span(2, 1, "x", 10, 30);
        let b = span(3, 1, "x", 20, 40); // overlaps a
        let c = span(4, 1, "x", 90, 120); // sticks out of the root
        assert_eq!(self_time_ns(&root, &[&a, &b, &c]), 100 - 30 - 10);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let d = Dist::of((1..=1000).map(f64::from).collect());
        assert_eq!((d.tail_pct, d.tail), (99.0, 990.0));
        assert_eq!(d.p50, 500.0);
        let small = Dist::of((1..=15).map(f64::from).collect());
        assert_eq!(small.tail_pct, 50.0);
        assert_eq!(small.tail, small.p50);
    }

    #[test]
    fn nesting_follows_threads_and_steps() {
        let t = Tracer::new();
        {
            let _job = t.step("job");
            let _publish = t.step("core.publish");
            std::thread::scope(|s| {
                s.spawn(|| drop(t.enter("platform.pipelined.publish")));
            });
            let _get = t.enter("storage.get");
        }
        let spans = t.spans();
        let id = |n: &str| spans.iter().find(|s| s.name == n).unwrap().id;
        let parent = |n: &str| spans.iter().find(|s| s.name == n).unwrap().parent;
        assert_eq!(parent("job"), 0);
        assert_eq!(parent("core.publish"), id("job"));
        assert_eq!(parent("platform.pipelined.publish"), id("core.publish"));
        assert_eq!(parent("storage.get"), id("core.publish"));
    }
}

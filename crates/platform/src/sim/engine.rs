//! The sharded discrete-event simulation engine behind [`SimPlatform`].
//!
//! The world is partitioned into `shard_count` independent `Shard`s:
//! tasks and workers are assigned to shards by hashing their ids, and each
//! shard owns its own open-task queue, availability heap, clock, and RNG
//! (seeded from `(seed, shard_index)`). Shards share nothing, so
//! [`run_until_complete`](crate::CrowdPlatform::run_until_complete) drives
//! them from one thread per shard while the result stays **bit-for-bit
//! deterministic for a fixed `(seed, shard_count)`** — no event on shard A
//! can observe shard B, so thread scheduling cannot leak into the outcome.
//!
//! `shard_count = 1` (the default) reproduces the pre-shard engine exactly:
//! shard 0 inherits the root seed unchanged, every task and worker lands on
//! it, and the per-shard event loop performs the same RNG draws in the same
//! order (pinned by `tests/golden_engine.rs`). Different shard counts are
//! *different worlds* — partitioning changes which workers can meet which
//! tasks — but each is equally reproducible.
//!
//! **Virtual time is shard-local.** Each shard's clock advances only with
//! its own events, so with `shard_count > 1` timestamps are ordered *per
//! task* (`published_at ≤ assigned_at < submitted_at`, all stamped by the
//! task's home shard) but not across shards: a task published onto an idle
//! shard can carry a smaller `published_at` than an earlier task — or the
//! project's `created_at`, which is stamped from the cross-shard maximum
//! that [`now`](crate::CrowdPlatform::now) reports. Deriving a global
//! event order from timestamps is only meaningful at `shard_count = 1`;
//! coupling the clocks would make one shard's timestamps depend on another
//! shard's progress, which is exactly the cross-shard dependence the
//! determinism contract forbids.

use crate::error::{Error, Result};
use crate::platform::CrowdPlatform;
use crate::sim::shard::Shard;
use crate::sim::worker::WorkerPool;
use crate::types::{
    Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec, TaskStatus,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Configuration of a simulated platform.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The worker roster.
    pub pool: WorkerPool,
    /// RNG seed; with the same seed, shard count, and call sequence, the
    /// simulation is bit-for-bit reproducible.
    pub seed: u64,
    /// Number of independent shards (must be ≥ 1). Tasks and workers are
    /// partitioned across shards by id hash; `1` reproduces the unsharded
    /// engine exactly. Runs with different shard counts are different (but
    /// equally deterministic) worlds.
    pub shards: usize,
}

impl SimConfig {
    /// A single-shard config — the classic engine.
    pub fn new(pool: WorkerPool, seed: u64) -> Self {
        SimConfig { pool, seed, shards: 1 }
    }

    /// Sets the shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// Global (cross-shard) bookkeeping: projects and id allocation. Held for
/// O(1) critical sections only — never while an event is processed.
struct Registry {
    projects: std::collections::HashMap<ProjectId, Project>,
    next_project: ProjectId,
    next_task: TaskId,
}

/// The simulated crowdsourcing platform.
pub struct SimPlatform {
    registry: Mutex<Registry>,
    shards: Vec<Mutex<Shard>>,
    pool: WorkerPool,
    /// Workers rostered per shard — immutable after construction, cached
    /// so publish validation never takes a shard lock.
    shard_capacity: Vec<usize>,
    calls: AtomicU64,
    /// Round-robin position of the next [`step`](CrowdPlatform::step).
    step_cursor: AtomicUsize,
}

/// SplitMix64 finalizer: the id → shard hash. Sequential ids (how the
/// platform allocates them) spread uniformly instead of striping.
fn mix(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimPlatform {
    /// Creates a platform with the given worker pool, seed, and shard
    /// count.
    ///
    /// # Panics
    /// Panics if `config.shards == 0` — a world with no shards cannot hold
    /// tasks or workers.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.shards >= 1, "shard count must be at least 1");
        let n = config.shards;
        // Partition the roster: shard membership depends only on the
        // worker id and the shard count, never on roster order.
        let mut rosters: Vec<Vec<_>> = vec![Vec::new(); n];
        for w in &config.pool.workers {
            rosters[Self::shard_of(w.id, n)].push(w.clone());
        }
        let shard_capacity: Vec<usize> = rosters.iter().map(Vec::len).collect();
        let shards = rosters
            .into_iter()
            .enumerate()
            // Shard 0 inherits the root seed unchanged so `shards = 1`
            // reproduces the pre-shard engine bit-for-bit; the golden-ratio
            // multiplier decorrelates the other shards' streams.
            .map(|(i, workers)| {
                let shard_seed =
                    config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Mutex::new(Shard::new(workers, shard_seed))
            })
            .collect();
        SimPlatform {
            registry: Mutex::new(Registry {
                projects: std::collections::HashMap::new(),
                next_project: 1,
                next_task: 1,
            }),
            shards,
            pool: config.pool,
            shard_capacity,
            calls: AtomicU64::new(0),
            step_cursor: AtomicUsize::new(0),
        }
    }

    /// Convenience constructor: `n` identical workers of `ability`, one
    /// shard.
    pub fn quick(n_workers: usize, ability: f64, seed: u64) -> Self {
        SimPlatform::new(SimConfig::new(WorkerPool::uniform(n_workers, ability), seed))
    }

    /// Convenience constructor: `n` identical workers of `ability` spread
    /// over `shards` shards.
    pub fn sharded(n_workers: usize, ability: f64, seed: u64, shards: usize) -> Self {
        SimPlatform::new(
            SimConfig::new(WorkerPool::uniform(n_workers, ability), seed)
                .with_shards(shards),
        )
    }

    /// The roster this platform simulates.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Number of shards the world is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Workers rostered on each shard (tasks hashed to a shard can only be
    /// answered by that shard's workers, so a task's `n_assignments` must
    /// fit its shard's roster).
    pub fn shard_worker_counts(&self) -> &[usize] {
        &self.shard_capacity
    }

    /// Total events processed so far (submitted runs and abandonments,
    /// summed over shards) — the E13 throughput metric.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().events).sum()
    }

    /// Drives every shard to quiescence — one thread per shard when the
    /// world is sharded. Equivalent to calling
    /// [`step`](CrowdPlatform::step) until it returns `false`, but without
    /// the cross-shard round-robin, so each shard's hot loop runs
    /// lock-held and cache-local.
    pub fn drain(&self) -> Result<()> {
        if self.shards.len() == 1 {
            let mut s = self.shards[0].lock();
            while s.step()? {}
            return Ok(());
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|m| {
                    scope.spawn(move || -> Result<()> {
                        let mut s = m.lock();
                        while s.step()? {}
                        Ok(())
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("shard thread never panics")?;
            }
            Ok(())
        })
    }

    /// The shard a task or worker id is assigned to under `shard_count`
    /// shards. Pure and stable across runs, so clients can size rosters
    /// per shard (see `CrowdContext::in_memory_sim_with` in the core
    /// crate, which picks worker ids so every shard gets the same
    /// headcount).
    pub fn shard_index(id: u64, shard_count: usize) -> usize {
        if shard_count == 1 {
            0
        } else {
            (mix(id) % shard_count as u64) as usize
        }
    }

    fn shard_of(id: u64, n: usize) -> usize {
        Self::shard_index(id, n)
    }

    /// The shard owning task or worker `id`.
    fn home(&self, id: u64) -> &Mutex<Shard> {
        &self.shards[Self::shard_of(id, self.shards.len())]
    }

    fn bump(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Validates what can be checked without knowing the task's id (the
    /// same checks, in the same order, as the pre-shard engine).
    fn validate_spec(&self, spec: &TaskSpec) -> Result<()> {
        if spec.n_assignments == 0 {
            return Err(Error::InvalidRequest("n_assignments must be positive".into()));
        }
        if spec.n_assignments as usize > self.pool.len() {
            return Err(Error::InvalidRequest(format!(
                "n_assignments {} exceeds pool size {}",
                spec.n_assignments,
                self.pool.len()
            )));
        }
        Ok(())
    }

    /// Validates that the shard the task id hashes to can meet the spec's
    /// redundancy — distinct workers cannot cross shards.
    fn validate_placement(&self, spec: &TaskSpec, task_id: TaskId) -> Result<()> {
        let n = self.shards.len();
        if n > 1 {
            let shard = Self::shard_of(task_id, n);
            let capacity = self.shard_capacity[shard];
            if spec.n_assignments as usize > capacity {
                return Err(Error::InvalidRequest(format!(
                    "n_assignments {} exceeds shard {shard}'s worker count {capacity} \
                     (shard_count={n}; distinct workers cannot cross shards)",
                    spec.n_assignments
                )));
            }
        }
        Ok(())
    }

    #[cfg(test)]
    fn total_tasks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().tasks.len()).sum()
    }
}

impl CrowdPlatform for SimPlatform {
    fn name(&self) -> &str {
        "sim"
    }

    fn create_project(&self, name: &str) -> Result<ProjectId> {
        self.bump();
        let created_at = self.now();
        let mut r = self.registry.lock();
        let id = r.next_project;
        r.next_project += 1;
        r.projects.insert(id, Project { id, name: name.to_string(), created_at });
        Ok(id)
    }

    fn project(&self, id: ProjectId) -> Result<Project> {
        self.registry.lock().projects.get(&id).cloned().ok_or(Error::UnknownProject(id))
    }

    /// Bulk publish: one API call, atomic.
    ///
    /// Every spec is validated before any task is registered, so an invalid
    /// spec rejects the whole batch. Registered tasks are identical (ids,
    /// payloads, timestamps) however the specs are split into batches —
    /// only the API-call accounting differs.
    fn publish_tasks(&self, project: ProjectId, specs: Vec<TaskSpec>) -> Result<Vec<Task>> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        self.bump();
        for spec in &specs {
            self.validate_spec(spec)?;
        }
        let mut r = self.registry.lock();
        if !r.projects.contains_key(&project) {
            return Err(Error::UnknownProject(project));
        }
        let base = r.next_task;
        for (j, spec) in specs.iter().enumerate() {
            self.validate_placement(spec, base + j as TaskId)?;
        }
        r.next_task += specs.len() as TaskId;
        // Atomicity: every shard lock is held (in index order, with the
        // registry still held) while the batch lands, so no reader or
        // concurrent publisher ever observes a partial batch — the same
        // guarantee the pre-shard engine's single state lock gave.
        let n = self.shards.len();
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        Ok(specs
            .into_iter()
            .enumerate()
            .map(|(j, spec)| {
                let id = base + j as TaskId;
                let shard = &mut guards[Self::shard_of(id, n)];
                let task = Task {
                    id,
                    project_id: project,
                    payload: spec.payload,
                    n_assignments: spec.n_assignments,
                    published_at: shard.clock,
                    status: TaskStatus::Open,
                };
                shard.insert_task(task.clone());
                // New work: parked workers become eligible again.
                shard.wake_parked();
                task
            })
            .collect())
    }

    fn task(&self, id: TaskId) -> Result<Task> {
        self.bump();
        self.home(id).lock().tasks.get(&id).cloned().ok_or(Error::UnknownTask(id))
    }

    /// Bulk fetch: one API call serving every task from a single
    /// consistent snapshot (every shard lock is held for the duration). An
    /// unknown id fails the whole call.
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        self.bump();
        let n = self.shards.len();
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        tasks
            .iter()
            .map(|&t| {
                guards[Self::shard_of(t, n)]
                    .runs
                    .get(&t)
                    .cloned()
                    .ok_or(Error::UnknownTask(t))
            })
            .collect()
    }

    /// Bulk status probe: one consistent snapshot across every shard.
    /// **Free** — no API-call bump — like every status probe; see the
    /// trait-level contract on
    /// [`are_complete`](CrowdPlatform::are_complete).
    fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>> {
        let n = self.shards.len();
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        Ok(tasks
            .iter()
            .map(|&t| {
                guards[Self::shard_of(t, n)]
                    .tasks
                    .get(&t)
                    .map(|task| task.status == TaskStatus::Completed)
            })
            .collect())
    }

    /// One event on one shard, rotating round-robin across shards so
    /// single-stepped progress stays fair and deterministic. Prefer
    /// [`run_until_complete`](CrowdPlatform::run_until_complete) (or
    /// [`SimPlatform::drain`]) to drive big worlds — it parallelizes over
    /// shards instead of rotating.
    fn step(&self) -> Result<bool> {
        let n = self.shards.len();
        let start = self.step_cursor.load(Ordering::Relaxed);
        for k in 0..n {
            let i = (start + k) % n;
            if self.shards[i].lock().step()? {
                self.step_cursor.store((i + 1) % n, Ordering::Relaxed);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Drives all shards to quiescence in parallel (one thread per shard),
    /// then checks the listed tasks — replacing the trait default's
    /// step-by-step rotation with the sharded fast path. Like the default,
    /// draining may progress unlisted open tasks; already-completed tasks
    /// never change. Already-satisfied (or unknown) task lists return
    /// before any simulation runs.
    fn run_until_complete(&self, tasks: &[TaskId]) -> Result<()> {
        if crate::platform::still_open(tasks, &self.are_complete(tasks)?)? == 0 {
            return Ok(());
        }
        self.drain()?;
        let open = crate::platform::still_open(tasks, &self.are_complete(tasks)?)?;
        if open > 0 {
            return Err(Error::Starved(format!(
                "no further progress possible with {open} tasks still open"
            )));
        }
        Ok(())
    }

    fn api_calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The most advanced shard clock (shards tick independently).
    fn now(&self) -> SimTime {
        self.shards.iter().map(|s| s.lock().clock).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::answer::AnswerModel;
    use crate::types::WorkerId;
    use std::collections::HashSet;

    fn label_spec(truth: usize, n: u32) -> TaskSpec {
        let model = AnswerModel::Label {
            truth,
            labels: vec!["Yes".into(), "No".into()],
            difficulty: 0.0,
        };
        TaskSpec { payload: model.embed(serde_json::json!({"url": "img.jpg"})), n_assignments: n }
    }

    #[test]
    fn completes_tasks_with_redundancy() {
        let p = SimPlatform::quick(5, 1.0, 1);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 3)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        let runs = p.fetch_runs(t.id).unwrap();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.answer == serde_json::json!("Yes")));
    }

    #[test]
    fn distinct_workers_per_task() {
        let p = SimPlatform::quick(4, 0.9, 2);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 4)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        let runs = p.fetch_runs(t.id).unwrap();
        let workers: HashSet<WorkerId> = runs.iter().map(|r| r.worker_id).collect();
        assert_eq!(workers.len(), 4, "each run from a distinct worker");
    }

    #[test]
    fn redundancy_larger_than_pool_rejected() {
        let p = SimPlatform::quick(2, 0.9, 3);
        let proj = p.create_project("exp").unwrap();
        let err = p.publish_task(proj, label_spec(0, 3)).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed: u64| {
            let p = SimPlatform::quick(6, 0.8, seed);
            let proj = p.create_project("exp").unwrap();
            let mut ids = Vec::new();
            for i in 0..10 {
                ids.push(p.publish_task(proj, label_spec(i % 2, 3)).unwrap().id);
            }
            p.run_until_complete(&ids).unwrap();
            ids.iter().map(|&t| p.fetch_runs(t).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn timestamps_monotone_and_positive_latency() {
        let p = SimPlatform::quick(3, 0.9, 4);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 3)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        for r in p.fetch_runs(t.id).unwrap() {
            assert!(r.assigned_at >= t.published_at);
            assert!(r.submitted_at > r.assigned_at);
        }
    }

    #[test]
    fn per_worker_serialization() {
        // One worker answering two tasks must do so at non-overlapping times.
        let p = SimPlatform::quick(1, 0.9, 5);
        let proj = p.create_project("exp").unwrap();
        let t1 = p.publish_task(proj, label_spec(0, 1)).unwrap();
        let t2 = p.publish_task(proj, label_spec(1, 1)).unwrap();
        p.run_until_complete(&[t1.id, t2.id]).unwrap();
        let r1 = &p.fetch_runs(t1.id).unwrap()[0];
        let r2 = &p.fetch_runs(t2.id).unwrap()[0];
        assert!(r2.assigned_at >= r1.submitted_at || r1.assigned_at >= r2.submitted_at);
    }

    #[test]
    fn step_false_when_no_open_tasks() {
        let p = SimPlatform::quick(2, 0.9, 6);
        assert!(!p.step().unwrap());
    }

    #[test]
    fn spammers_answer_at_chance() {
        let p = SimPlatform::quick(1, 0.5, 7);
        let proj = p.create_project("exp").unwrap();
        let mut yes = 0;
        let mut ids = Vec::new();
        for _ in 0..400 {
            ids.push(p.publish_task(proj, label_spec(0, 1)).unwrap().id);
        }
        p.run_until_complete(&ids).unwrap();
        for id in ids {
            if p.fetch_runs(id).unwrap()[0].answer == serde_json::json!("Yes") {
                yes += 1;
            }
        }
        let frac = yes as f64 / 400.0;
        assert!((frac - 0.5).abs() < 0.1, "spammer accuracy {frac}");
    }

    #[test]
    fn abandonment_delays_but_completes() {
        let pool = WorkerPool::new(
            (1..=3u64)
                .map(|id| {
                    let mut w = crate::sim::worker::WorkerProfile::with_ability(id, 0.9);
                    w.abandon_p = 0.4;
                    w
                })
                .collect(),
        );
        let p = SimPlatform::new(SimConfig::new(pool, 8));
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 3)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        assert_eq!(p.fetch_runs(t.id).unwrap().len(), 3);
    }

    #[test]
    fn echo_answer_for_modelless_payload() {
        let p = SimPlatform::quick(1, 0.9, 9);
        let proj = p.create_project("exp").unwrap();
        let t = p
            .publish_task(
                proj,
                TaskSpec { payload: serde_json::json!({"raw": true}), n_assignments: 1 },
            )
            .unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        let run = &p.fetch_runs(t.id).unwrap()[0];
        assert_eq!(run.answer["echo"]["raw"], serde_json::json!(true));
    }

    #[test]
    fn clock_advances_with_work() {
        let p = SimPlatform::quick(2, 0.9, 10);
        let proj = p.create_project("exp").unwrap();
        assert_eq!(p.now(), 0);
        let t = p.publish_task(proj, label_spec(0, 2)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        assert!(p.now() > 0);
    }

    #[test]
    fn bulk_publish_matches_sequential_bit_for_bit() {
        // The whole batched-pipeline story rests on this: same seed, same
        // specs — bulk-published tasks complete with identical runs.
        let run = |bulk: bool| {
            let p = SimPlatform::quick(5, 0.8, 77);
            let proj = p.create_project("exp").unwrap();
            let specs: Vec<TaskSpec> = (0..8).map(|i| label_spec(i % 2, 3)).collect();
            let tasks = if bulk {
                p.publish_tasks(proj, specs).unwrap()
            } else {
                specs.into_iter().map(|s| p.publish_task(proj, s).unwrap()).collect()
            };
            let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
            p.run_until_complete(&ids).unwrap();
            (tasks, p.fetch_runs_bulk(&ids).unwrap())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn bulk_publish_is_one_call_and_atomic() {
        let p = SimPlatform::quick(3, 0.9, 20);
        let proj = p.create_project("exp").unwrap(); // 1 call
        let tasks = p
            .publish_tasks(proj, (0..10).map(|i| label_spec(i % 2, 2)).collect())
            .unwrap(); // 1 call
        assert_eq!(tasks.len(), 10);
        assert_eq!(p.api_calls(), 2);
        // A batch with one bad spec is rejected wholesale: nothing lands.
        let mut specs: Vec<TaskSpec> = (0..3).map(|i| label_spec(i % 2, 2)).collect();
        specs.push(label_spec(0, 99)); // exceeds the 3-worker pool
        assert!(p.publish_tasks(proj, specs).is_err());
        assert_eq!(p.total_tasks(), 10, "failed batch must leave no tasks");
        // Empty batches are free.
        assert!(p.publish_tasks(proj, Vec::new()).unwrap().is_empty());
        assert!(p.fetch_runs_bulk(&[]).unwrap().is_empty());
        assert_eq!(p.api_calls(), 3);
    }

    #[test]
    fn bulk_fetch_unknown_id_fails_whole_call() {
        let p = SimPlatform::quick(3, 0.9, 21);
        let proj = p.create_project("exp").unwrap();
        let t = p.publish_task(proj, label_spec(0, 1)).unwrap();
        p.run_until_complete(&[t.id]).unwrap();
        assert!(matches!(
            p.fetch_runs_bulk(&[t.id, 999]).unwrap_err(),
            Error::UnknownTask(999)
        ));
    }

    #[test]
    fn api_calls_counted() {
        let p = SimPlatform::quick(2, 0.9, 11);
        let proj = p.create_project("exp").unwrap(); // 1
        let t = p.publish_task(proj, label_spec(0, 1)).unwrap(); // 2
        p.run_until_complete(&[t.id]).unwrap(); // steps: free
        let _ = p.fetch_runs(t.id).unwrap(); // 3
        assert_eq!(p.api_calls(), 3);
    }

    // ---- sharded-engine tests ----

    /// Publishes `n_tasks` on a sharded world and returns every task +
    /// every run — the whole observable outcome.
    fn sharded_world(
        n_workers: usize,
        n_tasks: usize,
        redundancy: u32,
        seed: u64,
        shards: usize,
    ) -> (Vec<Task>, Vec<Vec<TaskRun>>) {
        let p = SimPlatform::sharded(n_workers, 0.85, seed, shards);
        let proj = p.create_project("sharded").unwrap();
        let specs: Vec<TaskSpec> =
            (0..n_tasks).map(|i| label_spec(i % 2, redundancy)).collect();
        let tasks = p.publish_tasks(proj, specs).unwrap();
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        p.run_until_complete(&ids).unwrap();
        let tasks: Vec<Task> = ids.iter().map(|&id| p.task(id).unwrap()).collect();
        (tasks, p.fetch_runs_bulk(&ids).unwrap())
    }

    #[test]
    fn sharded_world_completes_and_reproduces() {
        for shards in [1, 2, 3, 4] {
            let (tasks, runs) = sharded_world(24, 40, 2, 99, shards);
            assert!(tasks.iter().all(|t| t.status == TaskStatus::Completed));
            assert!(runs.iter().all(|r| r.len() == 2), "exact redundancy per task");
            // Identical (seed, shard_count) => bit-identical world.
            assert_eq!((tasks, runs), sharded_world(24, 40, 2, 99, shards));
        }
    }

    #[test]
    fn different_shard_counts_are_different_worlds() {
        // Not a guarantee anyone relies on — pinned so a silent change to
        // the partitioning (e.g. everything landing on shard 0) is caught.
        assert_ne!(sharded_world(24, 40, 2, 99, 1), sharded_world(24, 40, 2, 99, 4));
    }

    #[test]
    fn workers_never_cross_shards() {
        let p = SimPlatform::sharded(16, 0.9, 5, 4);
        let proj = p.create_project("exp").unwrap();
        let tasks = p
            .publish_tasks(proj, (0..30).map(|i| label_spec(i % 2, 2)).collect())
            .unwrap();
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        p.run_until_complete(&ids).unwrap();
        for (task, runs) in ids.iter().zip(p.fetch_runs_bulk(&ids).unwrap()) {
            let task_shard = SimPlatform::shard_of(*task, 4);
            for r in runs {
                assert_eq!(
                    SimPlatform::shard_of(r.worker_id, 4),
                    task_shard,
                    "task {task} answered by a worker from another shard"
                );
            }
        }
    }

    #[test]
    fn redundancy_larger_than_shard_rejected() {
        // 4 workers over 4 shards: some shard has ≤ 1 worker, so a spec
        // needing 3 distinct workers cannot be placed.
        let p = SimPlatform::sharded(4, 0.9, 13, 4);
        let proj = p.create_project("exp").unwrap();
        let err = p.publish_task(proj, label_spec(0, 3)).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)));
        assert!(err.to_string().contains("shard"), "error names the shard: {err}");
    }

    #[test]
    fn step_rotates_but_matches_drain() {
        // Driving via single `step` calls (round-robin) and via the
        // parallel drain must land in the same final world: shards share
        // nothing, so event interleaving across shards cannot matter.
        let world = |drain: bool| {
            let p = SimPlatform::sharded(12, 0.85, 31, 3);
            let proj = p.create_project("exp").unwrap();
            let tasks = p
                .publish_tasks(proj, (0..20).map(|i| label_spec(i % 2, 2)).collect())
                .unwrap();
            let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
            if drain {
                p.run_until_complete(&ids).unwrap();
            } else {
                while p.step().unwrap() {}
            }
            p.fetch_runs_bulk(&ids).unwrap()
        };
        assert_eq!(world(true), world(false));
    }

    #[test]
    fn events_counted_across_shards() {
        let pool = WorkerPool::new(
            (1..=8u64)
                .map(|id| {
                    let mut w = crate::sim::worker::WorkerProfile::with_ability(id, 1.0);
                    w.abandon_p = 0.0;
                    w
                })
                .collect(),
        );
        let p = SimPlatform::new(SimConfig::new(pool, 17).with_shards(2));
        let proj = p.create_project("exp").unwrap();
        let tasks = p
            .publish_tasks(proj, (0..10).map(|i| label_spec(i % 2, 2)).collect())
            .unwrap();
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        assert_eq!(p.events(), 0);
        p.run_until_complete(&ids).unwrap();
        // Perfect workers never abandon: exactly one event per run.
        assert_eq!(p.events(), 20);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_rejected() {
        SimPlatform::new(SimConfig::new(WorkerPool::uniform(2, 0.9), 1).with_shards(0));
    }
}

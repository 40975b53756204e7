//! The discrete-event simulation engine behind [`SimPlatform`].
//!
//! The platform is one `World` — projects, tasks, runs, the open-task
//! queue, the worker availability heap, the clock, and one RNG seeded with
//! [`SimConfig::seed`] — behind one mutex. Every call takes that lock, so
//! the world advances only in the order calls arrive, and the same seed
//! with the same call sequence yields a **bit-for-bit identical world**:
//! every task, run, timestamp, and event count. Nothing else — no thread
//! schedule, no host property — enters the outcome, which is the paper's
//! reproducibility guarantee stated for the crowd itself (pinned against a
//! recorded world by `tests/golden_engine.rs`).
//!
//! [`run_until_complete`](crate::CrowdPlatform::run_until_complete) drains
//! the world to quiescence under one lock hold, so the per-event hot loop
//! runs lock-held and cache-local; driving the same world one
//! [`step`](crate::CrowdPlatform::step) at a time lands in the same state.

use crate::error::{Error, Result};
use crate::platform::{still_open, CrowdPlatform};
use crate::sim::world::World;
use crate::sim::worker::WorkerPool;
use crate::types::{Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of a simulated platform.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The worker roster.
    pub pool: WorkerPool,
    /// RNG seed; with the same seed and call sequence, the simulation is
    /// bit-for-bit reproducible.
    pub seed: u64,
}

impl SimConfig {
    /// A config over `pool` seeded with `seed`.
    pub fn new(pool: WorkerPool, seed: u64) -> Self {
        SimConfig { pool, seed }
    }
}

/// The simulated crowdsourcing platform.
pub struct SimPlatform {
    world: Mutex<World>,
    pool: WorkerPool,
    calls: AtomicU64,
}

impl SimPlatform {
    /// Creates a platform with the given worker pool and seed.
    pub fn new(config: SimConfig) -> Self {
        SimPlatform {
            world: Mutex::new(World::new(config.pool.workers.clone(), config.seed)),
            pool: config.pool,
            calls: AtomicU64::new(0),
        }
    }

    /// Convenience constructor: `n` identical workers of `ability`.
    pub fn quick(n_workers: usize, ability: f64, seed: u64) -> Self {
        SimPlatform::new(SimConfig::new(WorkerPool::uniform(n_workers, ability), seed))
    }

    /// The roster this platform simulates.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Total events processed so far (submitted runs and abandonments) —
    /// the E13 throughput metric.
    pub fn events(&self) -> u64 {
        self.world.lock().events
    }

    fn bump(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Validates what can be checked before the world is touched.
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

    #[cfg(test)]
    fn total_tasks(&self) -> usize {
        self.world.lock().tasks.len()
    }
}

impl CrowdPlatform for SimPlatform {
    fn name(&self) -> &str {
        "sim"
    }

    fn create_project(&self, name: &str) -> Result<ProjectId> {
        self.bump();
        Ok(self.world.lock().create_project(name))
    }

    fn project(&self, id: ProjectId) -> Result<Project> {
        self.world.lock().project(id)
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
        self.world.lock().publish(project, specs)
    }

    fn task(&self, id: TaskId) -> Result<Task> {
        self.bump();
        self.world.lock().tasks.get(&id).cloned().ok_or(Error::UnknownTask(id))
    }

    /// Bulk fetch: one API call serving every task from a single
    /// consistent snapshot. An unknown id fails the whole call.
    fn fetch_runs_bulk(&self, tasks: &[TaskId]) -> Result<Vec<Vec<TaskRun>>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        self.bump();
        let world = self.world.lock();
        tasks
            .iter()
            .map(|&t| world.runs.get(&t).cloned().ok_or(Error::UnknownTask(t)))
            .collect()
    }

    /// Bulk status probe from one consistent snapshot. **Free** — no
    /// API-call bump — like every status probe; see the trait-level
    /// contract on [`are_complete`](CrowdPlatform::are_complete).
    fn are_complete(&self, tasks: &[TaskId]) -> Result<Vec<Option<bool>>> {
        Ok(self.world.lock().status(tasks))
    }

    fn step(&self) -> Result<bool> {
        self.world.lock().step()
    }

    /// The trait default's probe → drain → probe, under one lock hold so
    /// the event loop runs without a lock round-trip per event. Like the
    /// default, draining may progress unlisted open tasks; already-completed
    /// tasks never change. Already-satisfied (or unknown) task lists return
    /// before any simulation runs.
    fn run_until_complete(&self, tasks: &[TaskId]) -> Result<()> {
        let mut world = self.world.lock();
        if still_open(tasks, &world.status(tasks))? == 0 {
            return Ok(());
        }
        while world.step()? {}
        let open = still_open(tasks, &world.status(tasks))?;
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

    fn now(&self) -> SimTime {
        self.world.lock().clock
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

    #[test]
    fn events_counted() {
        let pool = WorkerPool::new(
            (1..=8u64)
                .map(|id| {
                    let mut w = crate::sim::worker::WorkerProfile::with_ability(id, 1.0);
                    w.abandon_p = 0.0;
                    w
                })
                .collect(),
        );
        let p = SimPlatform::new(SimConfig::new(pool, 17));
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
}

//! The simulated world behind [`SimPlatform`](crate::SimPlatform): one
//! discrete-event loop over every project, task, run, and worker.
//!
//! The world owns *all* state an event touches — the project registry and
//! id counters, tasks, runs, the open-task queue, the worker availability
//! heap, the clock, and one RNG seeded with the platform seed — and the
//! platform drives it under a single lock, so a seed and the ordered call
//! sequence determine every answer bit for bit.
//!
//! The matching hot path is O(1) amortized per event:
//!
//! * `open` is an **append-only queue with tombstones**: completing a task
//!   nulls its slot instead of shifting the queue (the original engine's
//!   `open.retain` was O(open) per completion).
//! * `open_head` lazily skips the tombstoned prefix, so the global "oldest
//!   open task" is found without scanning.
//! * each worker keeps a **monotone cursor** into `open`: every slot before
//!   it is *permanently* ineligible for that worker (tombstoned, or already
//!   answered by them), so an eligibility scan resumes where it left off
//!   instead of rescanning a clone of the whole open list per event.
//! * worker profiles and per-task answer models are indexed up front
//!   (`HashMap` lookups instead of the old O(pool) linear scan and the old
//!   per-event payload parse).

use crate::error::{Error, Result};
use crate::sim::answer::AnswerModel;
use crate::sim::latency::lognormal;
use crate::sim::worker::WorkerProfile;
use crate::types::{
    Project, ProjectId, SimTime, Task, TaskId, TaskRun, TaskSpec, TaskStatus, WorkerId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The whole simulated platform state.
pub(crate) struct World {
    /// Projects by id.
    projects: HashMap<ProjectId, Project>,
    /// Id the next created project receives.
    next_project: ProjectId,
    /// Id the next published task receives.
    next_task: TaskId,
    /// Every published task, by id.
    pub(crate) tasks: HashMap<TaskId, Task>,
    /// Runs collected per task.
    pub(crate) runs: HashMap<TaskId, Vec<TaskRun>>,
    /// Workers who already *submitted* a run for the task (the platform
    /// invariant: at most one run per worker per task).
    answered_by: HashMap<TaskId, HashSet<WorkerId>>,
    /// Answer model parsed once at publish time (the original engine
    /// re-extracted it from the payload on every event).
    models: HashMap<TaskId, Option<AnswerModel>>,
    /// Open tasks in publish order; completion tombstones the slot.
    open: Vec<Option<TaskId>>,
    /// First possibly-live slot of `open`, advanced lazily past tombstones.
    open_head: usize,
    /// Live (non-tombstoned) entries in `open`.
    open_live: usize,
    /// Workers ready to pick up tasks, keyed by availability time.
    available: BinaryHeap<Reverse<(SimTime, WorkerId)>>,
    /// Workers parked because no eligible task existed when they came up.
    parked: Vec<(WorkerId, SimTime)>,
    /// Per-worker resume point into `open`; monotone, never rewinds.
    cursor: HashMap<WorkerId, usize>,
    /// The roster, indexed for O(1) profile lookup.
    profiles: HashMap<WorkerId, WorkerProfile>,
    /// The virtual clock (simulated milliseconds).
    pub(crate) clock: SimTime,
    rng: StdRng,
    /// Events processed (submitted runs *and* abandonments).
    pub(crate) events: u64,
}

impl World {
    /// Builds an empty world over `workers` (in roster order — their
    /// position is the initial availability stagger) with an RNG seeded
    /// with `seed`.
    pub(crate) fn new(workers: Vec<WorkerProfile>, seed: u64) -> Self {
        let mut available = BinaryHeap::with_capacity(workers.len());
        let mut profiles = HashMap::with_capacity(workers.len());
        for (i, w) in workers.into_iter().enumerate() {
            // Tiny stagger so initial pickup order interleaves naturally.
            available.push(Reverse((i as SimTime, w.id)));
            profiles.insert(w.id, w);
        }
        World {
            projects: HashMap::new(),
            next_project: 1,
            next_task: 1,
            tasks: HashMap::new(),
            runs: HashMap::new(),
            answered_by: HashMap::new(),
            models: HashMap::new(),
            open: Vec::new(),
            open_head: 0,
            open_live: 0,
            available,
            parked: Vec::new(),
            cursor: HashMap::new(),
            profiles,
            clock: 0,
            rng: StdRng::seed_from_u64(seed),
            events: 0,
        }
    }

    /// Registers a project stamped with the current clock.
    pub(crate) fn create_project(&mut self, name: &str) -> ProjectId {
        let id = self.next_project;
        self.next_project += 1;
        let project = Project { id, name: name.to_string(), created_at: self.clock };
        self.projects.insert(id, project);
        id
    }

    /// Looks up a project.
    pub(crate) fn project(&self, id: ProjectId) -> Result<Project> {
        self.projects.get(&id).cloned().ok_or(Error::UnknownProject(id))
    }

    /// Registers already-validated specs as tasks of `project`, with
    /// consecutive ids stamped with the current clock, and wakes parked
    /// workers for the new work.
    pub(crate) fn publish(
        &mut self,
        project: ProjectId,
        specs: Vec<TaskSpec>,
    ) -> Result<Vec<Task>> {
        if !self.projects.contains_key(&project) {
            return Err(Error::UnknownProject(project));
        }
        let tasks: Vec<Task> = specs
            .into_iter()
            .map(|spec| {
                let task = Task {
                    id: self.next_task,
                    project_id: project,
                    payload: spec.payload,
                    n_assignments: spec.n_assignments,
                    published_at: self.clock,
                    status: TaskStatus::Open,
                };
                self.next_task += 1;
                self.insert_task(task.clone());
                task
            })
            .collect();
        self.wake_parked();
        Ok(tasks)
    }

    /// Completion status per task: `None` for ids the world does not know.
    pub(crate) fn status(&self, tasks: &[TaskId]) -> Vec<Option<bool>> {
        tasks
            .iter()
            .map(|t| self.tasks.get(t).map(|task| task.status == TaskStatus::Completed))
            .collect()
    }

    /// Registers a task and appends it to the open queue.
    fn insert_task(&mut self, task: Task) {
        let id = task.id;
        self.models.insert(id, AnswerModel::extract(&task.payload));
        self.tasks.insert(id, task);
        self.runs.insert(id, Vec::new());
        self.answered_by.insert(id, HashSet::new());
        self.open.push(Some(id));
        self.open_live += 1;
    }

    /// Re-queues every parked worker (new work may have arrived, or a
    /// completion may have freed up an eligible slot).
    fn wake_parked(&mut self) {
        let clock = self.clock;
        for (w, at) in std::mem::take(&mut self.parked) {
            self.available.push(Reverse((at.max(clock), w)));
        }
    }

    /// Processes one event: pops the earliest-available worker, matches
    /// them with the oldest open task they have not answered, and samples
    /// their think-time and answer (or abandonment). Returns `false` when
    /// no further progress is possible.
    pub(crate) fn step(&mut self) -> Result<bool> {
        if self.open_live == 0 {
            return Ok(false);
        }
        // Pop workers until one can be matched with an open task.
        while let Some(Reverse((avail_at, worker_id))) = self.available.pop() {
            // Advance the global head past the tombstoned prefix (paid once
            // per completed task over the world's whole lifetime).
            while self.open.get(self.open_head) == Some(&None) {
                self.open_head += 1;
            }
            // Resume this worker's scan where it permanently left off.
            let mut pos =
                self.cursor.get(&worker_id).copied().unwrap_or(0).max(self.open_head);
            let mut found = None;
            while pos < self.open.len() {
                match self.open[pos] {
                    // Tombstone: permanently ineligible for everyone.
                    None => pos += 1,
                    Some(tid) => {
                        if self.answered_by[&tid].contains(&worker_id) {
                            // Answered tasks never reopen: skip permanently.
                            pos += 1;
                        } else {
                            found = Some((pos, tid));
                            break;
                        }
                    }
                }
            }
            // `pos` only ever advanced past permanently-ineligible slots
            // (or stopped on the candidate), so the cursor stays sound even
            // if the worker abandons the candidate below.
            self.cursor.insert(worker_id, pos);
            let Some((slot, task_id)) = found else {
                self.parked.push((worker_id, avail_at));
                continue;
            };

            self.clock = self.clock.max(avail_at);
            let assigned_at = self.clock;
            let profile = &self.profiles[&worker_id];
            let think_ms =
                lognormal(&mut self.rng, profile.speed_median_ms.max(1.0), profile.speed_sigma)
                    .ceil()
                    .max(1.0) as SimTime;
            let submitted_at = assigned_at + think_ms;

            let abandons = self.rng.gen::<f64>() < profile.abandon_p;
            self.events += 1;
            if abandons {
                // The worker wastes the time but submits nothing; the slot
                // stays open and the worker may retry later.
                self.available.push(Reverse((submitted_at, worker_id)));
                return Ok(true);
            }

            let task = self.tasks.get(&task_id).ok_or(Error::UnknownTask(task_id))?;
            let n_assignments = task.n_assignments;
            let answer = match &self.models[&task_id] {
                Some(model) => model.sample(profile, &mut self.rng),
                // Payloads without a model get an opaque echo answer, so
                // plumbing tests don't need to construct models.
                None => serde_json::json!({ "echo": task.payload }),
            };
            let runs = self.runs.get_mut(&task_id).expect("runs exist");
            runs.push(TaskRun { task_id, worker_id, answer, assigned_at, submitted_at });
            let done = runs.len() as u32 >= n_assignments;
            self.answered_by.get_mut(&task_id).expect("set exists").insert(worker_id);

            if done {
                self.tasks.get_mut(&task_id).expect("task exists").status =
                    TaskStatus::Completed;
                self.open[slot] = None;
                self.open_live -= 1;
                // Task list changed: parked workers may now have work.
                self.wake_parked();
            }
            self.available.push(Reverse((submitted_at, worker_id)));
            return Ok(true);
        }
        // Every worker is parked: redundancy cannot be met.
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TaskStatus;

    fn task(id: TaskId, n: u32) -> Task {
        Task {
            id,
            project_id: 1,
            payload: serde_json::json!({ "raw": id }),
            n_assignments: n,
            published_at: 0,
            status: TaskStatus::Open,
        }
    }

    fn world(n_workers: u64) -> World {
        let workers =
            (1..=n_workers).map(|id| WorkerProfile::with_ability(id, 1.0)).collect();
        World::new(workers, 7)
    }

    #[test]
    fn completion_tombstones_instead_of_shifting() {
        let mut s = world(3);
        for id in 1..=3 {
            s.insert_task(task(id, 1));
        }
        assert_eq!(s.open_live, 3);
        while s.step().unwrap() {}
        assert_eq!(s.open_live, 0);
        // The queue itself never shrank — completion is O(1).
        assert_eq!(s.open.len(), 3);
        assert!(s.open.iter().all(Option::is_none));
        assert!(s.tasks.values().all(|t| t.status == TaskStatus::Completed));
    }

    #[test]
    fn cursors_never_rewind() {
        let mut s = world(2);
        for id in 1..=6 {
            s.insert_task(task(id, 2));
        }
        let mut last: HashMap<WorkerId, usize> = HashMap::new();
        while s.step().unwrap() {
            for (&w, &c) in &s.cursor {
                assert!(c >= last.get(&w).copied().unwrap_or(0), "cursor rewound");
                last.insert(w, c);
            }
        }
        assert_eq!(s.open_live, 0);
    }

    #[test]
    fn empty_world_makes_no_progress() {
        let mut s = world(0);
        assert!(!s.step().unwrap());
        s.insert_task(task(1, 1));
        // A task but no workers: the world stalls rather than panics.
        assert!(!s.step().unwrap());
        assert_eq!(s.events, 0);
    }
}

//! Pins the simulation engine's exact behavior against a recorded fixture.
//!
//! The fixture (`tests/fixtures/golden_seed_world.json`) was recorded
//! from an earlier engine, before the O(1) matching rewrite. The current
//! engine must reproduce it bit-for-bit — every task record, every run,
//! every timestamp, the final clock, and the API-call count — which is the
//! ground truth behind the per-seed determinism contract.
//!
//! Regenerate (only when the engine's behavior is *intentionally* changed)
//! with `GOLDEN_REGEN=1 cargo test -p reprowd-platform --test golden_engine`.

use reprowd_platform::{
    AnswerModel, CrowdPlatform, SimConfig, SimPlatform, TaskSpec, WorkerPool,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_seed_world.json"
);

fn label_spec(truth: usize, difficulty: f64, n: u32) -> TaskSpec {
    let model = AnswerModel::Label {
        truth,
        labels: vec!["Yes".into(), "No".into()],
        difficulty,
    };
    TaskSpec {
        payload: model.embed(serde_json::json!({ "url": format!("img{truth}.jpg") })),
        n_assignments: n,
    }
}

/// A canonical session exercising every engine path: a mixed-ability pool
/// with heavy abandoners, bulk + single publishes interleaved with manual
/// stepping (so mid-flight parking/waking is covered), biased workers,
/// modelless payloads, and varied redundancy.
fn golden_world() -> String {
    let mut pool = WorkerPool::mixture(3, 4, 3, 9).with_biased(2, 1, 0.8, 0.7);
    pool.workers[1].abandon_p = 0.35;
    pool.workers[5].abandon_p = 0.5;
    let p = SimPlatform::new(SimConfig::new(pool, 1234));

    let proj = p.create_project("golden").unwrap();
    let batch: Vec<TaskSpec> = (0..12)
        .map(|i| label_spec(i % 2, 0.1 * (i % 4) as f64, 1 + (i % 3) as u32))
        .collect();
    let mut ids: Vec<u64> =
        p.publish_tasks(proj, batch).unwrap().iter().map(|t| t.id).collect();

    // Drive partway so the second wave lands on a warm, partially-parked
    // world, then publish more tasks one by one (including modelless ones).
    for _ in 0..20 {
        p.step().unwrap();
    }
    for i in 0..8 {
        let spec = if i % 3 == 0 {
            TaskSpec { payload: serde_json::json!({ "raw": i }), n_assignments: 2 }
        } else {
            label_spec(i % 2, 0.3, 3)
        };
        ids.push(p.publish_task(proj, spec).unwrap().id);
    }
    p.run_until_complete(&ids).unwrap();

    let tasks: Vec<_> = ids.iter().map(|&id| p.task(id).unwrap()).collect();
    let runs = p.fetch_runs_bulk(&ids).unwrap();
    serde_json::to_string(&serde_json::json!({
        "tasks": tasks,
        "runs": runs,
        "now": p.now(),
        "api_calls": p.api_calls(),
    }))
    .unwrap()
}

#[test]
fn engine_matches_recorded_pre_shard_behavior() {
    let world = golden_world();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(FIXTURE, &world).unwrap();
        return;
    }
    let recorded = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists; regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        world, recorded,
        "engine diverged from the recorded pre-shard behavior"
    );
}

//! A rerun's cache pass looks rows up in parallel slices of at least 1,024
//! rows. These tests run tables large enough to span several slices and
//! check that the pass still behaves as one serial loop: the same columns,
//! the same `RunStats`, zero platform calls, and the error of the
//! lowest-index bad row.

use reprowd::core::hash::{hash_value, hex};
use reprowd::core::store::ExperimentStore;
use reprowd::core::{CrowdContext, CrowdData, ExecutionConfig};
use reprowd::platform::{CrowdPlatform, FailingPlatform, SimPlatform};
use reprowd::prelude::*;
use std::sync::Arc;

/// Enough rows for at least two slices of the cache pass.
const ROWS: usize = 5_000;

fn objects(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            val!({
                "url": format!("img{i}.jpg"),
                "_sim": {"kind": "label", "truth": i % 2, "labels": ["Yes", "No"], "difficulty": 0.1}
            })
        })
        .collect()
}

fn presenter() -> Presenter {
    Presenter::image_label("Is this a cat?", &["Yes", "No"])
}

fn label_job(cc: &CrowdContext) -> reprowd::core::Result<CrowdData> {
    cc.crowddata("parallel")?
        .data(objects(ROWS))?
        .presenter(presenter())?
        .publish(3)?
        .collect()?
        .majority_vote()
}

/// A store holding a finished run of the label job, and that run.
fn finished_run() -> (Arc<MemoryStore>, CrowdData) {
    let store = Arc::new(MemoryStore::new());
    let sim = Arc::new(SimPlatform::quick(7, 0.9, 11));
    let cc = CrowdContext::with_config(
        sim as Arc<dyn CrowdPlatform>,
        Arc::clone(&store) as Arc<dyn Backend>,
        ExecutionConfig::default(),
    )
    .unwrap();
    let cd = label_job(&cc).unwrap();
    (store, cd)
}

/// A context over `store` whose platform refuses every call.
fn offline(store: &Arc<MemoryStore>) -> (CrowdContext, Arc<FailingPlatform<SimPlatform>>) {
    let failing = Arc::new(FailingPlatform::new(Arc::new(SimPlatform::quick(7, 0.9, 11)), 0));
    let cc = CrowdContext::with_config(
        Arc::clone(&failing) as Arc<dyn CrowdPlatform>,
        Arc::clone(store) as Arc<dyn Backend>,
        ExecutionConfig::default(),
    )
    .unwrap();
    (cc, failing)
}

#[test]
fn a_multi_slice_rerun_is_free_and_identical() {
    let (store, first) = finished_run();
    let (cc, failing) = offline(&store);
    let rerun = label_job(&cc).unwrap();
    assert_eq!(failing.inner().api_calls(), 0, "a cached rerun makes no platform call");
    assert_eq!(failing.remaining(), 0);
    for column in ["object", "task", "result", "mv"] {
        assert_eq!(rerun.column(column).unwrap(), first.column(column).unwrap(), "{column}");
    }
    let hashes = |cd: &CrowdData| cd.rows().iter().map(|r| r.hash.clone()).collect::<Vec<_>>();
    assert_eq!(hashes(&rerun), hashes(&first));
    // Every row holds its own cells, not a neighbour slice's.
    for row in rerun.rows() {
        assert_eq!(row.hash, hex(hash_value(&row.object)), "row {}", row.index);
        let task = row.task.as_ref().expect("every row has a task");
        assert_eq!(task.object, row.object, "row {}", row.index);
        let runs = &row.result.as_ref().expect("every row has a result").runs;
        assert!(runs.iter().all(|run| run.task_id == task.task.id), "row {}", row.index);
    }
    let stats = rerun.run_stats();
    assert_eq!(stats.tasks_reused, ROWS as u64);
    assert_eq!(stats.results_reused, ROWS as u64);
    assert_eq!(
        (stats.tasks_published, stats.results_collected, stats.tasks_republished),
        (0, 0, 0)
    );
}

/// The raw store key of row `i`'s task cell.
fn task_key(cd: &CrowdData, i: usize) -> Vec<u8> {
    let key = ExperimentStore::row_key(cd.name(), &presenter().fingerprint(), &cd.rows()[i].hash);
    format!("t/task/{key}").into_bytes()
}

/// Reruns `publish` over `store` after corrupting two rows' task cells:
/// `early` gets `early_bad`, `late` gets `late_bad`. Returns the error.
fn publish_over_corrupt_cells(
    early: usize,
    early_bad: fn(&str) -> String,
    late: usize,
    late_bad: fn(&str) -> String,
) -> String {
    let (store, first) = finished_run();
    for (i, bad) in [(early, early_bad), (late, late_bad)] {
        let key = task_key(&first, i);
        let cell = String::from_utf8(store.get(&key).unwrap().expect("cell exists")).unwrap();
        store.set(&key, bad(&cell).as_bytes()).unwrap();
    }
    let (cc, failing) = offline(&store);
    let err = cc
        .crowddata("parallel")
        .unwrap()
        .data(objects(ROWS))
        .unwrap()
        .presenter(presenter())
        .unwrap()
        .publish(3)
        .err()
        .expect("a corrupt cell fails the cache pass");
    assert_eq!(failing.inner().api_calls(), 0, "a failed cache pass makes no platform call");
    err.to_string()
}

fn truncated(cell: &str) -> String {
    cell[..cell.len() / 2].to_string()
}

fn wrong_type(cell: &str) -> String {
    assert!(cell.starts_with(r#"{"n_assignments":3,"#), "{cell}");
    cell.replacen(r#""n_assignments":3"#, r#""n_assignments":"3""#, 1)
}

#[test]
fn the_lowest_index_corrupt_cell_wins_in_every_slice_order() {
    // Both cells fail to decode; only the mistyped one names a type.
    let mistyped = |e: &str| {
        assert!(e.contains("codec error"), "{e}");
        e.contains("expected unsigned integer")
    };
    // The earlier row sits in the first slice, the later in the last.
    let err = publish_over_corrupt_cells(700, truncated, ROWS - 300, wrong_type);
    assert!(!mistyped(&err), "the truncated cell comes first: {err}");
    let err = publish_over_corrupt_cells(700, wrong_type, ROWS - 300, truncated);
    assert!(mistyped(&err), "the mistyped cell comes first: {err}");
    // Both in the last slice.
    let err = publish_over_corrupt_cells(ROWS - 2, truncated, ROWS - 1, wrong_type);
    assert!(!mistyped(&err), "{err}");
    let err = publish_over_corrupt_cells(ROWS - 2, wrong_type, ROWS - 1, truncated);
    assert!(mistyped(&err), "{err}");
}

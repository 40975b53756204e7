//! Databases written by an earlier build still rerun for free.
//!
//! `tests/fixtures/legacy_db/` holds an on-disk database written by the
//! classic label program and a streamed experiment, plus the columns those
//! runs produced. The test reruns both programs over a copy of that
//! database against a fresh simulated crowd behind a zero-budget
//! [`FailingPlatform`]: any platform call would fail. The rerun must issue
//! no API call and no round-trip, return the recorded columns, and leave
//! every database file byte-identical.
//!
//! Regenerate (only when the on-disk format is *intentionally* changed)
//! with `LEGACY_DB_REGEN=1 cargo test -p reprowd-core --test legacy_db`.

use reprowd_core::context::CrowdContext;
use reprowd_core::exec::{BatchMetricsSnapshot, ExecutionConfig};
use reprowd_core::pipeline::{run_stream, StreamSpec};
use reprowd_core::presenter::Presenter;
use reprowd_core::value::Value;
use reprowd_platform::{CrowdPlatform, FailingPlatform, SimPlatform};
use reprowd_storage::SyncPolicy;
use serde_json::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FIXTURE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/legacy_db");
const DB_FILE: &str = "legacy.rwlog";
const COLUMNS_FILE: &str = "columns.json";

fn objects(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            let img = if i == 5 { 2 } else { i };
            json!({
                "url": format!("img{img}.jpg"),
                "_sim": {"kind": "label", "truth": img % 2, "labels": ["Yes", "No"], "difficulty": 0.2}
            })
        })
        .collect()
}

fn presenter() -> Presenter {
    Presenter::image_label("Is this a cat?", &["Yes", "No"])
}

fn context(platform: Arc<dyn CrowdPlatform>, db: &Path) -> CrowdContext {
    CrowdContext::on_disk_with(platform, db, SyncPolicy::Never, ExecutionConfig::with_batch_size(4))
        .unwrap()
}

/// Both programs; returns their columns.
fn programs(cc: &CrowdContext) -> Value {
    let cd = cc
        .crowddata("labels")
        .unwrap()
        .data(objects(11))
        .unwrap()
        .presenter(presenter())
        .unwrap()
        .publish(3)
        .unwrap()
        .collect()
        .unwrap()
        .majority_vote()
        .unwrap();
    let spec = StreamSpec { experiment: "stream".into(), presenter: presenter(), n_assignments: 2 };
    let mut streamed = Vec::new();
    run_stream(cc, &spec, objects(9).into_iter(), |row| {
        streamed.push(json!([row.index, row.object, row.result.runs]));
        Ok(())
    })
    .unwrap();
    json!({
        "classic": {
            "task": cd.column("task").unwrap(),
            "result": cd.column("result").unwrap(),
            "mv": cd.column("mv").unwrap(),
        },
        "stream": streamed,
    })
}

/// Every file of the database family, by name.
fn db_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name() != COLUMNS_FILE)
        .map(|e| (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap()))
        .collect()
}

fn regenerate() {
    let dir = PathBuf::from(FIXTURE_DIR);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let platform = Arc::new(SimPlatform::quick(5, 0.8, 2017));
    let columns = {
        let cc = context(platform, &dir.join(DB_FILE));
        programs(&cc)
    };
    std::fs::write(dir.join(COLUMNS_FILE), serde_json::to_string_pretty(&columns).unwrap() + "\n")
        .unwrap();
}

#[test]
fn legacy_database_reruns_with_zero_platform_calls() {
    if std::env::var_os("LEGACY_DB_REGEN").is_some() {
        regenerate();
        return;
    }
    let fixture = PathBuf::from(FIXTURE_DIR);
    let original = db_files(&fixture);
    assert!(original.contains_key(DB_FILE), "fixture database exists");
    let work = std::env::temp_dir().join(format!("reprowd-legacy-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    for (name, bytes) in &original {
        std::fs::write(work.join(name), bytes).unwrap();
    }

    let sim = Arc::new(SimPlatform::quick(5, 0.8, 99));
    let platform = Arc::new(FailingPlatform::new(Arc::clone(&sim), 0));
    let (columns, metrics) = {
        let cc = context(platform, &work.join(DB_FILE));
        (programs(&cc), cc.batch_metrics())
    };
    assert_eq!(sim.api_calls(), 0, "a cached rerun makes no platform call");
    assert_eq!(metrics, BatchMetricsSnapshot::default(), "and no round-trip");
    let recorded: Value =
        serde_json::from_str(&std::fs::read_to_string(fixture.join(COLUMNS_FILE)).unwrap())
            .unwrap();
    assert_eq!(columns, recorded, "rerun columns equal the recorded ones");
    assert_eq!(db_files(&work), original, "the rerun wrote nothing");
    std::fs::remove_dir_all(&work).unwrap();
}

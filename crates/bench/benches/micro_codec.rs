//! Criterion micro-benchmarks of the cell codec: JSON encode and decode of
//! the persisted `task` and `result` cells, and the canonical encoding of a
//! row's object that every cache key hashes.
//!
//! The cells are the first task and result rows of the committed legacy
//! database (`crates/core/tests/fixtures/legacy_db`). `task_decode_keep_10k`
//! decodes 10,000 task cells into one `Vec` and drops it, as a rerun's
//! cache pass does.

use criterion::{criterion_group, criterion_main, Criterion};
use reprowd_core::store::{StoredResult, StoredTask};
use reprowd_core::value::canonical;
use std::hint::black_box;

const TASK: &str = r#"{"n_assignments":3,"object":{"_sim":{"difficulty":0.2,"kind":"label","labels":["Yes","No"],"truth":0},"url":"img0.jpg"},"task":{"id":1,"n_assignments":3,"payload":{"_sim":{"difficulty":0.2,"kind":"label","labels":["Yes","No"],"truth":0},"object":{"_sim":{"difficulty":0.2,"kind":"label","labels":["Yes","No"],"truth":0},"url":"img0.jpg"},"ui":{"kind":{"kind":"single_choice","labels":["Yes","No"]},"presenter":"image_label","question":"Is this a cat?"}},"project_id":1,"published_at":0,"status":"Open"}}"#;
const RESULT: &str = r#"{"runs":[{"answer":"Yes","assigned_at":0,"submitted_at":43143,"task_id":1,"worker_id":1},{"answer":"No","assigned_at":1,"submitted_at":27105,"task_id":1,"worker_id":2},{"answer":"No","assigned_at":2,"submitted_at":49474,"task_id":1,"worker_id":3}]}"#;

fn bench_codec(c: &mut Criterion) {
    let task: StoredTask = serde_json::from_str(TASK).expect("task cell parses");
    let result: StoredResult = serde_json::from_str(RESULT).expect("result cell parses");
    // The codec must reproduce the stored bytes, or the timings are moot.
    assert_eq!(serde_json::to_vec(&task).unwrap(), TASK.as_bytes());
    assert_eq!(serde_json::to_vec(&result).unwrap(), RESULT.as_bytes());

    let mut g = c.benchmark_group("codec");
    g.bench_function("task_encode", |b| b.iter(|| serde_json::to_vec(black_box(&task)).unwrap()));
    g.bench_function("result_encode", |b| {
        b.iter(|| serde_json::to_vec(black_box(&result)).unwrap())
    });
    g.bench_function("task_decode", |b| {
        b.iter(|| serde_json::from_slice::<StoredTask>(black_box(TASK.as_bytes())).unwrap())
    });
    g.bench_function("result_decode", |b| {
        b.iter(|| serde_json::from_slice::<StoredResult>(black_box(RESULT.as_bytes())).unwrap())
    });
    g.bench_function("canonical_object", |b| b.iter(|| canonical(black_box(&task.object))));
    // A rerun decodes every cell and keeps them all: the allocator and
    // memory cost a warm single-cell loop hides.
    g.bench_function("task_decode_keep_10k", |b| {
        b.iter(|| {
            let cells: Vec<StoredTask> = (0..10_000)
                .map(|_| serde_json::from_slice(black_box(TASK.as_bytes())).unwrap())
                .collect();
            drop(black_box(cells));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);

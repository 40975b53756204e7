//! The exact bytes the JSON codec writes for every persisted cell type.
//!
//! A database file is the sharable artifact and a cache key hashes the
//! canonical encoding of a row's object, so these bytes are a format: a
//! codec change that alters one of them orphans every cache hit in every
//! shared database. The expected strings were recorded from the tree-based
//! encoder (`to_json_value` then print) and must never be edited to make a
//! codec change pass.

use reprowd_core::store::{Manifest, StoredResult, StoredTask};
use reprowd_core::value::canonical;
use reprowd_platform::types::TaskStatus;
use reprowd_platform::{AnswerModel, Task, TaskRun};
use serde_json::{json, Value};

/// The task cell of the first row of the committed legacy database.
pub fn stored_task() -> StoredTask {
    let sim = json!({"difficulty": 0.2, "kind": "label", "labels": ["Yes", "No"], "truth": 0});
    let object = json!({"_sim": sim.clone(), "url": "img0.jpg"});
    StoredTask {
        task: Task {
            id: 1,
            project_id: 1,
            payload: json!({
                "_sim": sim,
                "object": object.clone(),
                "ui": {
                    "kind": {"kind": "single_choice", "labels": ["Yes", "No"]},
                    "presenter": "image_label",
                    "question": "Is this a cat?"
                }
            }),
            n_assignments: 3,
            published_at: 0,
            status: TaskStatus::Open,
        },
        object,
        n_assignments: 3,
    }
}

/// A result cell with three runs.
pub fn stored_result() -> StoredResult {
    StoredResult {
        runs: (0..3u64)
            .map(|i| TaskRun {
                task_id: 1,
                worker_id: 10 + i,
                answer: json!(if i == 1 { "No" } else { "Yes" }),
                assigned_at: 100 * i,
                submitted_at: 100 * i + 42,
            })
            .collect(),
    }
}

/// A value that exercises every escape and number form the writer knows.
pub fn tricky_value() -> Value {
    json!({
        "quote\"d": "a\"b\\c\u{1}d\u{7f}e\u{e9}\u{1F600}\n\r\t\u{8}\u{c}\u{1f}/",
        "floats": [1.0, -4e17, 0.1, -0.0, 2.5e-8],
        "ints": [-3, 0, i64::MIN, i64::MAX, u64::MAX],
        "empty": {"o": {}, "a": [], "s": ""},
        "nested": [[{}], {"k": [[]]}, null, true, false],
        "\u{e9}\u{1F600}": "\u{0}"
    })
}

const TASK: &str = r#"{"n_assignments":3,"object":{"_sim":{"difficulty":0.2,"kind":"label","labels":["Yes","No"],"truth":0},"url":"img0.jpg"},"task":{"id":1,"n_assignments":3,"payload":{"_sim":{"difficulty":0.2,"kind":"label","labels":["Yes","No"],"truth":0},"object":{"_sim":{"difficulty":0.2,"kind":"label","labels":["Yes","No"],"truth":0},"url":"img0.jpg"},"ui":{"kind":{"kind":"single_choice","labels":["Yes","No"]},"presenter":"image_label","question":"Is this a cat?"}},"project_id":1,"published_at":0,"status":"Open"}}"#;
const RESULT: &str = r#"{"runs":[{"answer":"Yes","assigned_at":0,"submitted_at":42,"task_id":1,"worker_id":10},{"answer":"No","assigned_at":100,"submitted_at":142,"task_id":1,"worker_id":11},{"answer":"Yes","assigned_at":200,"submitted_at":242,"task_id":1,"worker_id":12}]}"#;
const MANIFEST: &str = r#"{"n_assignments":null,"name":"labels","presenter_fingerprint":null,"project_id":null,"version":1}"#;
const STATUS_OPEN: &str = r#""Open""#;
const STATUS_COMPLETED: &str = r#""Completed""#;
const LABEL_MODEL: &str = r#"{"difficulty":0.25,"kind":"label","labels":["Yes","No"],"truth":1}"#;
const FIXED_MODEL: &str = r#"{"kind":"fixed","value":{"a":null,"b":[1,"x"]}}"#;
const TRICKY: &str = "{\"empty\":{\"a\":[],\"o\":{},\"s\":\"\"},\"floats\":[1.0,-400000000000000000.0,0.1,-0.0,0.000000025],\"ints\":[-3,0,-9223372036854775808,9223372036854775807,18446744073709551615],\"nested\":[[{}],{\"k\":[[]]},null,true,false],\"quote\\\"d\":\"a\\\"b\\\\c\\u0001d\u{7f}eé😀\\n\\r\\t\\b\\f\\u001f/\",\"é😀\":\"\\u0000\"}";
const TRICKY_PRETTY: &str = "{\n  \"empty\": {\n    \"a\": [],\n    \"o\": {},\n    \"s\": \"\"\n  },\n  \"floats\": [\n    1.0,\n    -400000000000000000.0,\n    0.1,\n    -0.0,\n    0.000000025\n  ],\n  \"ints\": [\n    -3,\n    0,\n    -9223372036854775808,\n    9223372036854775807,\n    18446744073709551615\n  ],\n  \"nested\": [\n    [\n      {}\n    ],\n    {\n      \"k\": [\n        []\n      ]\n    },\n    null,\n    true,\n    false\n  ],\n  \"quote\\\"d\": \"a\\\"b\\\\c\\u0001d\u{7f}eé😀\\n\\r\\t\\b\\f\\u001f/\",\n  \"é😀\": \"\\u0000\"\n}";

#[test]
fn persisted_cells_encode_to_pinned_bytes() {
    assert_eq!(serde_json::to_string(&stored_task()).unwrap(), TASK);
    assert_eq!(serde_json::to_vec(&stored_task()).unwrap(), TASK.as_bytes());
    assert_eq!(serde_json::to_string(&stored_result()).unwrap(), RESULT);
    assert_eq!(serde_json::to_string(&Manifest::new("labels")).unwrap(), MANIFEST);
    assert_eq!(serde_json::to_string(&TaskStatus::Open).unwrap(), STATUS_OPEN);
    assert_eq!(serde_json::to_string(&TaskStatus::Completed).unwrap(), STATUS_COMPLETED);
}

#[test]
fn answer_models_encode_to_pinned_bytes() {
    let label =
        AnswerModel::Label { truth: 1, labels: vec!["Yes".into(), "No".into()], difficulty: 0.25 };
    assert_eq!(serde_json::to_string(&label).unwrap(), LABEL_MODEL);
    let fixed = AnswerModel::Fixed { value: json!({"b": [1, "x"], "a": null}) };
    assert_eq!(serde_json::to_string(&fixed).unwrap(), FIXED_MODEL);
}

#[test]
fn values_encode_to_pinned_bytes() {
    let v = tricky_value();
    assert_eq!(serde_json::to_string(&v).unwrap(), TRICKY);
    assert_eq!(v.to_string(), TRICKY);
    assert_eq!(canonical(&v), TRICKY);
    assert_eq!(serde_json::to_string_pretty(&v).unwrap(), TRICKY_PRETTY);
}

#[test]
fn pinned_bytes_decode_back() {
    assert_eq!(serde_json::from_str::<StoredTask>(TASK).unwrap(), stored_task());
    assert_eq!(serde_json::from_str::<StoredResult>(RESULT).unwrap(), stored_result());
    assert_eq!(serde_json::from_str::<Manifest>(MANIFEST).unwrap(), Manifest::new("labels"));
    assert_eq!(serde_json::from_str::<Value>(TRICKY).unwrap(), tricky_value());
    assert_eq!(serde_json::from_str::<Value>(TRICKY_PRETTY).unwrap(), tricky_value());
}

#[test]
fn extreme_floats_encode_to_pinned_bytes() {
    let big = format!("1{}.0", "0".repeat(300));
    let tiny = format!("-0.{}1", "0".repeat(299));
    assert_eq!(serde_json::to_string(&json!([1e300, -1e-300])).unwrap(), format!("[{big},{tiny}]"));
    assert_eq!(serde_json::from_str::<Value>(&big).unwrap(), json!(1e300));
    assert_eq!(serde_json::from_str::<Value>(&tiny).unwrap(), json!(-1e-300));
}

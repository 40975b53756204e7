//! The direct JSON path agrees with the tree path it stands in for.
//!
//! `serde_json::to_string`/`from_str` write and read derived structs
//! straight from text (`Serialize::write_json`,
//! `Deserialize::from_json_parser`). `to_json_value`/`from_json_value` go
//! through a `Value` tree and are the reference. These tests pin the two
//! together: the same bytes out, and on every input either equal values or
//! an error from both.

use proptest::prelude::*;
use proptest::TestRng;
use reprowd_core::presenter::Presenter;
use reprowd_core::store::{Manifest, StoredResult, StoredTask};
use reprowd_platform::types::TaskStatus;
use reprowd_platform::{AnswerModel, Project, Task, TaskRun, TaskSpec};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::fmt::Debug;

fn direct<T: Serialize + ?Sized>(x: &T) -> String {
    let mut out = String::new();
    x.write_json(&mut out);
    out
}

fn via_tree<T: Serialize + ?Sized>(x: &T) -> String {
    let mut out = String::new();
    x.to_json_value().write_json(&mut out);
    out
}

fn assert_same_bytes<T: Serialize + ?Sized>(x: &T) {
    let tree = via_tree(x);
    assert_eq!(direct(x), tree);
    assert_eq!(serde_json::to_string(x).unwrap(), tree);
    assert_eq!(serde_json::to_vec(x).unwrap(), tree.as_bytes());
}

/// Reads `text` both ways. Both must fail, or both must succeed with equal
/// values; returns the value when they succeed.
fn read_both<T: Deserialize + PartialEq + Debug>(text: &str) -> Option<T> {
    let tree = Value::parse(text).and_then(|v| T::from_json_value(&v));
    let direct = serde_json::from_str::<T>(text);
    match (tree, direct) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "paths read different values from {text}");
            Some(b)
        }
        (Err(_), Err(_)) => None,
        (a, b) => panic!("paths disagree on {text}:\n  tree: {a:?}\ndirect: {b:?}"),
    }
}

fn task(id: u64, payload: Value) -> Task {
    Task {
        id,
        project_id: 7,
        payload,
        n_assignments: 3,
        published_at: 1_700_000_000_123,
        status: TaskStatus::Completed,
    }
}

fn stored_task(object: Value) -> StoredTask {
    let payload = json!({"object": object.clone(), "ui": {"presenter": "image_label"}});
    StoredTask { task: task(41, payload), object, n_assignments: 3 }
}

fn run(worker_id: u64, answer: Value) -> TaskRun {
    TaskRun { task_id: 41, worker_id, answer, assigned_at: 5, submitted_at: u64::MAX }
}

fn stored_result() -> StoredResult {
    StoredResult {
        runs: vec![run(1, json!("Yes")), run(2, json!({"pick": [1, 2]})), run(3, json!(null))],
    }
}

fn manifest_full() -> Manifest {
    Manifest {
        name: "quote\"d\\name\u{1}é".into(),
        version: 1,
        presenter_fingerprint: Some("8a73e947a64ac0a5".into()),
        project_id: Some(u64::MAX),
        n_assignments: Some(0),
    }
}

fn answer_models() -> Vec<AnswerModel> {
    vec![
        AnswerModel::Label {
            truth: 1,
            labels: vec!["Yes".into(), "No\n".into()],
            difficulty: 0.25,
        },
        AnswerModel::Compare { p_first: 1.0 },
        AnswerModel::Match { is_match: true, ambiguity: -0.0 },
        AnswerModel::Fixed { value: json!({"b": [1, "x"], "a": null}) },
    ]
}

#[test]
fn persisted_types_write_the_same_bytes_both_ways() {
    let object = json!({"_sim": {"kind": "label", "truth": 0}, "url": "img\"0\".jpg", "n": -3});
    assert_same_bytes(&stored_task(object));
    assert_same_bytes(&stored_task(Value::Null));
    assert_same_bytes(&stored_result());
    assert_same_bytes(&StoredResult { runs: vec![] });
    assert_same_bytes(&Manifest::new("labels"));
    assert_same_bytes(&manifest_full());
    assert_same_bytes(&TaskStatus::Open);
    assert_same_bytes(&TaskStatus::Completed);
    for m in answer_models() {
        assert_same_bytes(&m);
    }
    assert_same_bytes(&task(1, json!([])));
    assert_same_bytes(&run(9, json!(1.5)));
    assert_same_bytes(&Project { id: 1, name: "labels".into(), created_at: 0 });
    assert_same_bytes(&TaskSpec { payload: json!({"q": "?"}), n_assignments: 1 });
    assert_same_bytes(&Presenter::image_label("Is this a cat?", &["Yes", "No"]));
}

#[test]
fn containers_and_strings_write_the_same_bytes_both_ways() {
    assert_same_bytes("a\"b\\c\u{0}\u{1f}\u{7f}é😀");
    assert_same_bytes(&String::from("\u{8}\u{c}\n\r\t/"));
    assert_same_bytes(&Some(manifest_full()));
    assert_same_bytes(&None::<Manifest>);
    assert_same_bytes(&vec![stored_result(), StoredResult { runs: vec![] }]);
    assert_same_bytes(&[Some(1u32), None][..]);
    assert_same_bytes(&Box::new(stored_result()));
    assert_same_bytes(&&&manifest_full());
    assert_same_bytes(&json!({"b": {}, "a": [[], {}], "": ""}));
}

#[test]
fn persisted_types_read_the_same_values_both_ways() {
    let object = json!({"_sim": {"kind": "label", "truth": 0}, "url": "img\"0\".jpg"});
    let st = stored_task(object);
    assert_eq!(read_both::<StoredTask>(&serde_json::to_string(&st).unwrap()), Some(st));
    let sr = stored_result();
    assert_eq!(read_both::<StoredResult>(&serde_json::to_string(&sr).unwrap()), Some(sr));
    for m in [Manifest::new("labels"), manifest_full()] {
        assert_eq!(read_both::<Manifest>(&serde_json::to_string(&m).unwrap()), Some(m));
    }
    for m in answer_models() {
        assert_eq!(read_both::<AnswerModel>(&serde_json::to_string(&m).unwrap()), Some(m));
    }
    assert_eq!(read_both::<TaskStatus>(r#""Open""#), Some(TaskStatus::Open));
    assert_eq!(read_both::<TaskStatus>(r#""open""#), None);
    let p = Presenter::image_label("Is this a cat?", &["Yes", "No"]);
    assert_eq!(read_both::<Presenter>(&serde_json::to_string(&p).unwrap()), Some(p));
}

#[test]
fn missing_fields_read_as_null() {
    let m = read_both::<Manifest>(r#"{"name":"x","version":1}"#).unwrap();
    assert_eq!(m, Manifest::new("x"));
    // Required fields cannot read `null`.
    assert_eq!(read_both::<Manifest>(r#"{"version":1}"#), None);
    assert_eq!(read_both::<Manifest>(r#"{"name":"x"}"#), None);
    assert_eq!(read_both::<StoredResult>("{}"), None);
    // A `Value` field reads a missing key as `Value::Null`.
    let text = r#"{"n_assignments":2,"task":{"id":1,"n_assignments":2,"payload":null,"project_id":1,"published_at":0,"status":"Open"}}"#;
    assert_eq!(read_both::<StoredTask>(text).unwrap().object, Value::Null);
    let text = r#"{"id":1,"n_assignments":2,"project_id":1,"published_at":0,"status":"Open"}"#;
    assert_eq!(read_both::<Task>(text).unwrap().payload, Value::Null);
}

#[test]
fn null_reads_as_none_for_options_only() {
    let text = r#"{"name":"x","version":1,"project_id":null,"n_assignments":null,"presenter_fingerprint":null}"#;
    assert_eq!(read_both::<Manifest>(text), Some(Manifest::new("x")));
    assert_eq!(read_both::<Manifest>(r#"{"name":null,"version":1}"#), None);
    assert_eq!(read_both::<Option<Manifest>>("null"), Some(None));
    assert_eq!(read_both::<Option<Manifest>>(" null "), Some(None));
    assert_eq!(read_both::<Option<Manifest>>("nul"), None);
    assert_eq!(read_both::<Option<String>>(r#""null""#), Some(Some("null".into())));
}

#[test]
fn unknown_keys_are_parsed_and_dropped() {
    let text = r#"{"zz":[1,{"a":"é😀"}],"name":"x","version":1,"extra":null,"name2":{}}"#;
    assert_eq!(read_both::<Manifest>(text), Some(Manifest::new("x")));
    // ...but still parsed: malformed JSON under an unknown key fails.
    assert_eq!(read_both::<Manifest>(r#"{"name":"x","version":1,"zz":[1,]}"#), None);
    assert_eq!(read_both::<Manifest>(r#"{"name":"x","version":1,"zz":"\uD800"}"#), None);
    assert_eq!(read_both::<Manifest>(r#"{"name":"x","version":1,"zz":01x}"#), None);
}

#[test]
fn duplicate_keys_last_one_wins() {
    let m = read_both::<Manifest>(r#"{"name":"a","version":1,"name":"b"}"#).unwrap();
    assert_eq!(m.name, "b");
    // An ill-typed earlier occurrence is overridden by a later good one...
    let m = read_both::<Manifest>(r#"{"version":"one","name":"a","version":2}"#).unwrap();
    assert_eq!(m.version, 2);
    let text = r#"{"runs":{"not":"an array"},"runs":[]}"#;
    assert_eq!(read_both::<StoredResult>(text), Some(StoredResult { runs: vec![] }));
    // ...and a good earlier occurrence does not save an ill-typed later one.
    assert_eq!(read_both::<Manifest>(r#"{"version":2,"name":"a","version":"two"}"#), None);
    assert_eq!(
        read_both::<Manifest>(r#"{"name":"a","version":1,"project_id":3,"project_id":null}"#),
        Some(Manifest::new("a"))
    );
}

#[test]
fn wrong_types_fail_at_every_level() {
    let good = serde_json::to_string(&stored_task(json!({"u": 1}))).unwrap();
    assert!(read_both::<StoredTask>(&good).is_some());
    let bad = [
        // The cell itself.
        "[]".to_string(),
        "null".to_string(),
        r#""task""#.to_string(),
        // A struct field.
        good.replacen(r#""task":{"#, r#""task":1,"ignored":{"#, 1),
        good.replacen(r#""n_assignments":3,"object""#, r#""n_assignments":-3,"object""#, 1),
        good.replacen(r#""n_assignments":3,"object""#, r#""n_assignments":3.0,"object""#, 1),
        good.replacen(r#""n_assignments":3,"object""#, r#""n_assignments":4294967296,"object""#, 1),
        // A field of the nested struct.
        good.replacen(r#""id":41"#, r#""id":"41""#, 1),
        good.replacen(r#""status":"Completed""#, r#""status":"Closed""#, 1),
        good.replacen(r#""status":"Completed""#, r#""status":1"#, 1),
        good.replacen(r#""published_at":1700000000123"#, r#""published_at":null"#, 1),
    ];
    for text in &bad {
        assert_ne!(text, &good);
        assert_eq!(read_both::<StoredTask>(text), None, "{text}");
    }
    let good = serde_json::to_string(&stored_result()).unwrap();
    assert!(read_both::<StoredResult>(&good).is_some());
    for text in [
        r#"{"runs":null}"#.to_string(),
        r#"{"runs":{}}"#.to_string(),
        r#"{"runs":[1]}"#.to_string(),
        good.replacen(r#""worker_id":2"#, r#""worker_id":-2"#, 1),
        good.replacen(r#""worker_id":2"#, r#""worker_id":[2]"#, 1),
    ] {
        assert_eq!(read_both::<StoredResult>(&text), None, "{text}");
    }
}

#[test]
fn malformed_text_fails_both_ways() {
    let text = serde_json::to_string(&stored_task(json!({"u": "é😀\n"}))).unwrap();
    // Every proper prefix is truncated JSON.
    for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert_eq!(read_both::<StoredTask>(&text[..end]), None, "prefix {end}");
    }
    for t in [
        r#"{"name":"x","version":1"#,
        r#"{"name":"x" "version":1}"#,
        r#"{"name":"x",}"#,
        r#"{name:"x"}"#,
    ] {
        assert_eq!(read_both::<Manifest>(t), None, "{t}");
    }
}

#[test]
fn trailing_characters_are_rejected() {
    let good = serde_json::to_string(&stored_result()).unwrap();
    for text in
        [format!("{good} x"), format!("{good}}}"), format!("{good}{good}"), format!("{good},")]
    {
        assert_eq!(read_both::<StoredResult>(&text), None, "{text}");
    }
    // Surrounding whitespace is fine.
    assert!(read_both::<StoredResult>(&format!(" \n\t{good}\r\n ")).is_some());
}

#[test]
fn nesting_limit_counts_struct_levels() {
    let nested = |levels: usize| format!("{}1{}", "[".repeat(levels), "]".repeat(levels));
    // `object` sits one level inside the cell: 127 arrays make 128 levels.
    let cell = |levels: usize| {
        format!(
            r#"{{"n_assignments":1,"object":{},"task":{{"id":1,"n_assignments":1,"payload":null,"project_id":1,"published_at":0,"status":"Open"}}}}"#,
            nested(levels)
        )
    };
    assert!(read_both::<StoredTask>(&cell(127)).is_some());
    assert_eq!(read_both::<StoredTask>(&cell(128)), None);
    assert_eq!(read_both::<StoredTask>(&cell(100_000)), None);
    // `payload` sits two levels inside the cell.
    let cell = |levels: usize| {
        format!(
            r#"{{"n_assignments":1,"object":null,"task":{{"id":1,"n_assignments":1,"payload":{},"project_id":1,"published_at":0,"status":"Open"}}}}"#,
            nested(levels)
        )
    };
    assert!(read_both::<StoredTask>(&cell(126)).is_some());
    assert_eq!(read_both::<StoredTask>(&cell(127)), None);
    // Under an unknown key, too.
    let unknown = |levels: usize| format!(r#"{{"runs":[],"zz":{}}}"#, nested(levels));
    assert!(read_both::<StoredResult>(&unknown(127)).is_some());
    assert_eq!(read_both::<StoredResult>(&unknown(128)), None);
}

#[test]
fn surrogates_are_checked_in_struct_fields() {
    let name = |escaped: &str| format!(r#"{{"name":"{escaped}","version":1}}"#);
    assert_eq!(read_both::<Manifest>(&name(r"\ud83d\uDE00")).unwrap().name, "😀");
    assert_eq!(read_both::<Manifest>(&name(r"\u00e9\uFFFD")).unwrap().name, "é\u{fffd}");
    for bad in [
        r"\uD800",
        r"\uD800x",
        r"\uD800\u0041",
        r"\uD800\uD800",
        r"\uDBFF\uE000",
        r"\uD800\n",
        r"\uDC00",
        r"\uDFFF\uD800",
    ] {
        assert_eq!(read_both::<Manifest>(&name(bad)), None, "{bad}");
    }
}

// ---------------------------------------------------------------------------
// Arbitrary values
// ---------------------------------------------------------------------------

/// Characters that exercise every branch of the string writer.
fn arb_string() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
        '\u{1f}', '\u{7f}', 'é', '😀', '\u{2028}', '\u{fffd}',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..6)
        .prop_map(|cs| cs.into_iter().collect::<String>())
}

fn arb_number(rng: &mut TestRng) -> Value {
    match (0u8..5).generate(rng) {
        0 => json!(any::<i64>().generate(rng)),
        1 => json!((i64::MAX as u64 + 1..=u64::MAX).generate(rng)),
        2 => json!((-1e12f64..1e12).generate(rng)),
        3 => json!((-1e-9f64..1e-9).generate(rng)),
        _ => json!(prop::sample::select(vec![0.0, -0.0, 1.0, 1e300, -4e17, 1e-300, f64::MAX])
            .generate(rng)),
    }
}

/// A `Value` tree at most `depth` containers deep.
struct ArbValue {
    depth: u32,
}

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let kinds = if self.depth == 0 { 5 } else { 7 };
        let inner = || ArbValue { depth: self.depth - 1 };
        match (0u8..kinds).generate(rng) {
            0 => Value::Null,
            1 => Value::Bool(any::<bool>().generate(rng)),
            2 => arb_number(rng),
            3 => Value::String(arb_string().generate(rng)),
            4 => json!(any::<u32>().generate(rng)),
            5 => Value::Array(prop::collection::vec(inner(), 0..4).generate(rng)),
            _ => Value::Object(
                prop::collection::vec((arb_string(), inner()), 0..4)
                    .generate(rng)
                    .into_iter()
                    .collect(),
            ),
        }
    }
}

/// The compact encoder the direct writer replaced: it printed a tree one
/// `char` at a time. Kept here as an independent oracle for the bytes.
fn reference_json(v: &Value) -> String {
    fn escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => match (n.as_i64(), n.as_u64(), n.as_f64()) {
            (Some(i), _, _) => i.to_string(),
            (None, Some(u), _) => u.to_string(),
            (None, None, Some(f)) => {
                let s = f.to_string();
                if s.contains(['.', 'e', 'E']) {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            _ => unreachable!("a number is an integer or a float"),
        },
        Value::String(s) => escaped(s),
        Value::Array(a) => {
            format!("[{}]", a.iter().map(reference_json).collect::<Vec<_>>().join(","))
        }
        Value::Object(m) => format!(
            "{{{}}}",
            m.iter()
                .map(|(k, v)| format!("{}:{}", escaped(k), reference_json(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn values_round_trip_and_match_the_reference_bytes(v in ArbValue { depth: 4 }) {
        let text = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(&text, &reference_json(&v));
        prop_assert_eq!(&text, &via_tree(&v));
        prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), v.clone());
        prop_assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn cells_round_trip_and_both_paths_agree(
        object in ArbValue { depth: 3 },
        payload in ArbValue { depth: 3 },
        answers in prop::collection::vec(ArbValue { depth: 2 }, 0..4),
        name in arb_string(),
    ) {
        let st = StoredTask { task: task(1, payload), object, n_assignments: 2 };
        let text = serde_json::to_string(&st).unwrap();
        prop_assert_eq!(&text, &via_tree(&st));
        prop_assert_eq!(&text, &reference_json(&st.to_json_value()));
        prop_assert_eq!(read_both::<StoredTask>(&text), Some(st));

        let sr = StoredResult {
            runs: answers.into_iter().enumerate().map(|(i, a)| run(i as u64, a)).collect(),
        };
        let text = serde_json::to_string(&sr).unwrap();
        prop_assert_eq!(&text, &via_tree(&sr));
        prop_assert_eq!(read_both::<StoredResult>(&text), Some(sr));

        let m = Manifest { presenter_fingerprint: Some(name.clone()), ..Manifest::new(&name) };
        let text = serde_json::to_string(&m).unwrap();
        prop_assert_eq!(&text, &via_tree(&m));
        prop_assert_eq!(read_both::<Manifest>(&text), Some(m));
    }
}

//! The JSON object map behaves as the `BTreeMap<String, Value>` it stands in
//! for: same contents and same iteration order after any sequence of
//! operations, and parsed objects come out sorted with the last repeated
//! key winning, whichever reader parses them.

use proptest::prelude::*;
use reprowd_core::store::StoredTask;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// Keys that collide often and cover `str` ordering corners: a prefix, an
/// upper-case letter, NUL, and multi-byte characters.
const KEYS: [&str; 10] = ["", "a", "aa", "ab", "b", "B", "a\u{0}", "é", "z", "😀"];

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, i64),
    Remove(usize),
    Get(usize),
    OrInsert(usize, i64),
    GetMut(usize, i64),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..5, 0..KEYS.len(), -3i64..3).prop_map(|(kind, k, n)| match kind {
        0 => Op::Insert(k, n),
        1 => Op::Remove(k),
        2 => Op::Get(k),
        3 => Op::OrInsert(k, n),
        _ => Op::GetMut(k, n),
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn map_matches_a_btreemap_model(ops in prop::collection::vec(op(), 0..64)) {
        let mut map = Map::new();
        let mut model: BTreeMap<String, Value> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, n) => {
                    let key = KEYS[k].to_string();
                    prop_assert_eq!(map.insert(key.clone(), json!(n)), model.insert(key, json!(n)));
                }
                Op::Remove(k) => prop_assert_eq!(map.remove(KEYS[k]), model.remove(KEYS[k])),
                Op::Get(k) => {
                    prop_assert_eq!(map.get(KEYS[k]), model.get(KEYS[k]));
                    prop_assert_eq!(map.contains_key(KEYS[k]), model.contains_key(KEYS[k]));
                }
                Op::OrInsert(k, n) => {
                    let key = KEYS[k].to_string();
                    let got = map.entry(key.clone()).or_insert(json!(n)).clone();
                    prop_assert_eq!(got, model.entry(key).or_insert(json!(n)).clone());
                }
                Op::GetMut(k, n) => {
                    if let Some(v) = map.get_mut(KEYS[k]) {
                        *v = json!(n);
                    }
                    if let Some(v) = model.get_mut(KEYS[k]) {
                        *v = json!(n);
                    }
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            prop_assert!(map.iter().eq(model.iter()), "{:?} vs {:?}", map, model);
        }
        prop_assert!(map.keys().eq(model.keys()));
        prop_assert!(map.values().eq(model.values()));
        prop_assert!(map.clone().into_iter().eq(model.clone()));
        // Building from the same entries in any order gives the same map.
        let rebuilt: Map = model.clone().into_iter().rev().collect();
        prop_assert_eq!(&rebuilt, &map);
        let encoded = Value::Object(map).to_string();
        let reference = serde_json::to_string(&model).unwrap();
        prop_assert_eq!(encoded, reference);
    }
}

#[test]
fn collect_and_extend_keep_the_last_repeated_key() {
    let entries = [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5), ("b", 6)];
    let map: Map = entries.iter().map(|&(k, n)| (k.to_string(), json!(n))).collect();
    let model: BTreeMap<String, Value> =
        entries.iter().map(|&(k, n)| (k.to_string(), json!(n))).collect();
    assert!(map.iter().eq(model.iter()));
    assert_eq!(Value::Object(map.clone()).to_string(), r#"{"a":5,"b":6,"c":4}"#);

    let mut extended = map;
    extended.extend([("z".to_string(), json!(0)), ("a".to_string(), json!(9))]);
    assert_eq!(Value::Object(extended.clone()).to_string(), r#"{"a":9,"b":6,"c":4,"z":0}"#);
    for (_, v) in &mut extended {
        *v = json!(1);
    }
    assert!(extended.values().all(|v| *v == 1));
    assert_eq!(extended["z"], 1);
    assert_eq!(format!("{:?}", Map::new()), "{}");
}

/// A task cell whose `object` holds unsorted and repeated keys.
const UNSORTED_TASK: &str = r#"{"task":{"id":1,"project_id":2,"payload":{"z":1,"m":{"y":0,"x":1},"a":2,"z":3},
    "n_assignments":3,"published_at":4,"status":"Open"},
    "object":{"url":"u","b":[{"k":1,"j":2,"k":3}],"a":null,"url":"last"},"n_assignments":3}"#;

fn assert_sorted_last_wins(task: &StoredTask) {
    assert_eq!(task.object.to_string(), r#"{"a":null,"b":[{"j":2,"k":3}],"url":"last"}"#);
    assert_eq!(task.task.payload.to_string(), r#"{"a":2,"m":{"x":1,"y":0},"z":3}"#);
    let keys: Vec<&String> = task.object.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["a", "b", "url"]);
}

#[test]
fn unsorted_and_repeated_keys_parse_sorted_with_the_last_winning() {
    // The tree path: text → `Value` → struct.
    let tree = Value::parse(UNSORTED_TASK).unwrap();
    assert_eq!(tree["object"]["url"], "last");
    let via_tree: StoredTask = serde_json::from_value(tree.clone()).unwrap();
    assert_sorted_last_wins(&via_tree);
    // The struct reader: text → struct, no tree for the struct itself.
    let direct: StoredTask = serde_json::from_str(UNSORTED_TASK).unwrap();
    assert_sorted_last_wins(&direct);
    assert_eq!(direct, via_tree);
    // Re-encoding gives the canonical bytes either way.
    assert_eq!(serde_json::to_string(&direct).unwrap(), tree.to_string());
    assert_eq!(serde_json::from_str::<Value>(UNSORTED_TASK).unwrap(), tree);
}

#[test]
fn a_large_reverse_ordered_object_parses_and_reencodes_sorted() {
    let n = 100_000;
    let key = |i: usize| format!("k{i:06}");
    let mut text = String::from("{");
    for i in (0..n).rev() {
        if i + 1 < n {
            text.push(',');
        }
        text.push_str(&format!("\"{}\":{i}", key(i)));
    }
    text.push('}');
    let v: Value = serde_json::from_str(&text).unwrap();
    let map = v.as_object().unwrap();
    assert_eq!(map.len(), n);
    assert!(map.iter().enumerate().all(|(i, (k, v))| *k == key(i) && *v == i));
    let encoded = v.to_string();
    let expected: Vec<String> = (0..n).map(|i| format!("\"{}\":{i}", key(i))).collect();
    assert_eq!(encoded, format!("{{{}}}", expected.join(",")));
}

//! The JSON shapes the derive produces must be upstream serde's defaults,
//! and everything written must read back.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(pub String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Status {
    Pass,
    NeedsReview,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Event {
    Tick,
    Fail { sat: usize },
    Pair(u32, String),
    Wrapped(Newtype),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    /// Docs on fields are attributes too and must be skipped.
    pub id: u64,
    pub(crate) name: String,
    ratio: f64,
    maybe: Option<f64>,
    #[serde(default)]
    extra: Option<u32>,
    #[serde(default)]
    count: usize,
    tags: Vec<String>,
    by_row: BTreeMap<usize, f64>,
    by_name: HashMap<String, Vec<(String, bool)>>,
    status: Status,
    events: Vec<Event>,
    who: Newtype,
    pair: Pair,
    grid: [i32; 3],
}

fn record() -> Record {
    Record {
        id: u64::MAX,
        name: "quote \" slash \\ newline \n tab \t bell \u{7} é 🚀".into(),
        ratio: 0.1 + 0.2,
        maybe: None,
        extra: Some(3),
        count: 9,
        tags: vec!["a".into(), String::new()],
        by_row: [(7, 1.5), (11, -2.0)].into_iter().collect(),
        by_name: [("k".to_string(), vec![("v".to_string(), true)])].into_iter().collect(),
        status: Status::NeedsReview,
        events: vec![
            Event::Tick,
            Event::Fail { sat: 4 },
            Event::Pair(1, "x".into()),
            Event::Wrapped(Newtype("w".into())),
        ],
        who: Newtype("me".into()),
        pair: Pair(2, 1e21),
        grid: [-1, 0, 1],
    }
}

#[test]
fn shapes_match_upstream_defaults() {
    assert_eq!(serde_json::to_string(&Newtype("n".into())).unwrap(), r#""n""#);
    assert_eq!(serde_json::to_string(&Pair(1, 2.0)).unwrap(), "[1,2.0]");
    assert_eq!(serde_json::to_string(&Status::NeedsReview).unwrap(), r#""needs_review""#);
    assert_eq!(serde_json::to_string(&Event::Tick).unwrap(), r#""Tick""#);
    assert_eq!(serde_json::to_string(&Event::Fail { sat: 4 }).unwrap(), r#"{"Fail":{"sat":4}}"#);
    assert_eq!(serde_json::to_string(&Event::Pair(1, "x".into())).unwrap(), r#"{"Pair":[1,"x"]}"#);
    assert_eq!(
        serde_json::to_string(&Event::Wrapped(Newtype("w".into()))).unwrap(),
        r#"{"Wrapped":"w"}"#
    );
    let map: BTreeMap<usize, f64> = [(7, 1.5)].into_iter().collect();
    assert_eq!(serde_json::to_string(&map).unwrap(), r#"{"7":1.5}"#);
    assert_eq!(serde_json::to_string(&(None::<f64>, f64::NAN, 1.0f64)).unwrap(), "[null,null,1.0]");
}

#[test]
fn everything_written_reads_back() {
    let r = record();
    for text in [serde_json::to_string(&r).unwrap(), serde_json::to_string_pretty(&r).unwrap()] {
        let back: Record = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r, "{text}");
    }
    let bytes = serde_json::to_vec(&r).unwrap();
    assert_eq!(serde_json::from_slice::<Record>(&bytes).unwrap(), r);
}

#[test]
fn floats_round_trip_bit_for_bit() {
    for v in [0.1 + 0.2, 1e-7, 123456789.125, f64::MIN_POSITIVE, f64::MAX, -0.0, 5e-324] {
        let text = serde_json::to_string(&v).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
    }
}

#[test]
fn pretty_output_is_indented_like_upstream() {
    #[derive(Serialize)]
    struct Small {
        a: u8,
        b: Vec<u8>,
        c: Vec<u8>,
    }
    let text = serde_json::to_string_pretty(&Small { a: 1, b: vec![2], c: vec![] }).unwrap();
    assert_eq!(text, "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ],\n  \"c\": []\n}");
}

#[test]
fn absent_fields_default_or_fail_and_unknown_fields_are_skipped() {
    #[derive(Debug, PartialEq, Deserialize)]
    struct Entry {
        seed: u64,
        #[serde(default)]
        note: String,
        maybe: Option<u8>,
    }
    let e: Entry =
        serde_json::from_str(r#"{"unknown": {"deep": [1, "two", null]}, "seed": 17}"#).unwrap();
    assert_eq!(e, Entry { seed: 17, note: String::new(), maybe: None });
    let err = serde_json::from_str::<Entry>(r#"{"note": "n"}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `seed`"), "{err}");
}

#[test]
fn malformed_input_is_an_error_not_a_panic() {
    for bad in [
        "",
        "{",
        "[1,",
        r#"{"id": }"#,
        "nul",
        r#""open"#,
        "1 2",
        r#"{"Fail":{"sat":-1}}"#,
        r#""\u12""#,
    ] {
        assert!(serde_json::from_str::<Event>(bad).is_err(), "{bad:?} parsed");
        assert!(serde_json::from_str::<Vec<u32>>(bad).is_err(), "{bad:?} parsed");
    }
    assert!(
        serde_json::from_str::<Status>(r#""Pass""#).is_err(),
        "rename_all must apply on input too"
    );
    assert!(serde_json::from_str::<u8>("256").is_err());
}

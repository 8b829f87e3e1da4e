//! `../BENCHMARK.json` must name exactly the workloads and metrics the
//! harness emits, and the result line must be the JSON the driver reads.

use mpsoc_benchmark::harness::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use mpsoc_benchmark::json::{self, Value};

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

#[test]
fn benchmark_json_names_what_the_harness_emits() {
    let c = contract();
    let names = |key: &str| -> Vec<String> {
        c.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|e| field(e, "name").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.0));
    assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0));
    for (spec, (_, unit, better)) in c
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!((field(spec, "unit"), field(spec, "better")), (unit, better));
        let bound = spec.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{spec:?}");
    }
    for (spec, (_, unit, better, _)) in c
        .get("per_layer")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(PER_LAYER)
    {
        assert_eq!((field(spec, "unit"), field(spec, "better")), (unit, better));
    }
    for w in c.get("workloads").unwrap().as_arr().unwrap() {
        let why = field(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why:?}"
        );
    }
    assert_eq!(
        c.get("paths").unwrap().as_arr().unwrap(),
        [Value::Str("benchmark".into())]
    );
}

#[test]
fn result_line_is_the_object_the_driver_reads() {
    let outcome = Outcome {
        attempted: 12,
        failed: 0,
        metrics: vec![("setup_s", 0.25, "s"), ("work_per_s", 1.5e7, "1/s")],
    };
    let v = json::parse(&outcome.to_json()).expect("result line parses");
    let keys: Vec<&str> = v
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(12.0));
    let m = v.get("metrics").unwrap().get("work_per_s").unwrap();
    assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5e7));
    assert_eq!(field(m, "unit"), "1/s");
    let failing = Outcome {
        failed: 2,
        ..outcome
    };
    assert!(failing.to_json().starts_with("{\"correct\": false"));
}

#[test]
fn json_reader_round_trips_and_rejects_garbage() {
    let v = json::parse(r#"{"a": [1, -2.5e3, true, null], "s": "q\"\\\nA", "o": {}}"#).unwrap();
    assert_eq!(
        v.get("a").unwrap().as_arr().unwrap()[1],
        Value::Num(-2500.0)
    );
    assert_eq!(field(&v, "s"), "q\"\\\nA");
    assert_eq!(
        json::parse(&json::quote("tab\there \"x\"")).unwrap(),
        Value::Str("tab\there \"x\"".into())
    );
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "1 2", "\"open", "nul"] {
        assert!(json::parse(bad).is_err(), "{bad:?} should not parse");
    }
}

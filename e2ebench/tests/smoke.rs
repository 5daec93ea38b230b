//! Seconds-long shrunken runs of every workload: each declared metric is
//! printed with its declared unit. (That a perturbed pinned output is
//! reported as a failed trial is a unit test in `src/main.rs`.)

use std::path::Path;
use std::process::{Command, Output};

use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_bgpsim-e2ebench");

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object looking up {key}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        Value::Float(f) => *f,
        _ => panic!("not a number: {v:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        _ => panic!("not an array: {v:?}"),
    }
}

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: u8) -> Output {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "small"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    out
}

fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn assert_metrics(workload: &str, res: &Value, declared: &Value) {
    let Value::Object(metrics) = get(res, "metrics") else {
        panic!("metrics is not an object");
    };
    let declared = items(declared);
    assert_eq!(metrics.len(), declared.len(), "{workload}: metric count");
    for d in declared {
        let name = text(get(d, "name"));
        let m = get(get(res, "metrics"), name);
        assert_eq!(
            text(get(m, "unit")),
            text(get(d, "unit")),
            "{workload}: {name}"
        );
        assert!(number(get(m, "value")).is_finite(), "{workload}: {name}");
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let bench = benchmark();
    for w in items(get(&bench, "workloads")) {
        let name = text(get(w, "name"));
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let res = result(&run(name, trace));
            assert_eq!(
                get(&res, "correct"),
                &Value::Bool(true),
                "{name} trace {trace}"
            );
            assert_eq!(number(get(&res, "failed")), 0.0);
            assert!(number(get(&res, "attempted")) >= 1.0);
            assert_metrics(name, &res, get(&bench, key));
        }
    }
}

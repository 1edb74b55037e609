//! The benchmark's declarations, read from the `BENCHMARK.json` at the
//! repository root (embedded at build time so the program and the file
//! the driver reads cannot drift apart), plus the few gates that file has
//! no place for.

use std::collections::BTreeMap;

use serde_json::Value;

/// `BENCHMARK.json` as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_better: bool,
    /// Allowed worsening as a share of the base median (`end_to_end` only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// Workload names, in the order `run` executes them.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

/// How `compare` gates a metric that `BENCHMARK.json` declares under
/// `per_layer` (where the file has no `bound` key). These are the issue's
/// workload-specific end-to-end metrics: the driver wants every
/// `end_to_end` metric non-zero on every workload, so they live in the
/// ledger and are gated here instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// May worsen by this share of the base median.
    Share(f64),
    /// May worsen by this absolute amount.
    Abs(f64),
    /// Must be identical to the bit.
    Exact,
}

pub const LEDGER_GATES: [(&str, Gate); 7] = [
    ("failed_share", Gate::Exact),
    ("rt_des_ratio", Gate::Share(0.10)),
    ("sim_inference_s", Gate::Exact),
    ("tuner_model_err", Gate::Exact),
    ("lut_accuracy", Gate::Abs(1.0)),
    ("tuner.bnb.evaluated", Gate::Exact),
    ("sim.exec.sim_kernel_s", Gate::Exact),
];

/// Per-operator simulated and analytical times are exact too.
const EXACT_PREFIXES: [&str; 2] = ["sim.op.", "tuner.op."];

fn decls(v: &Value, key: &str) -> Vec<MetricDecl> {
    let Some(Value::Seq(items)) = v.get(key) else {
        panic!("BENCHMARK.json: `{key}` is not a list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("BENCHMARK.json: {key}.{k} is {other:?}"),
            };
            MetricDecl {
                name: s("name"),
                unit: s("unit"),
                higher_better: s("better") == "higher",
                bound: m.get("bound").and_then(as_f64),
            }
        })
        .collect()
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`. Panics on a malformed file:
    /// that is a defect of this package, not an input.
    pub fn load() -> Spec {
        let v: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Some(Value::Seq(ws)) = v.get("workloads") else {
            panic!("BENCHMARK.json: `workloads` is not a list");
        };
        let workloads = ws
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("BENCHMARK.json: workload name is {other:?}"),
            })
            .collect();
        Spec {
            run_seconds: v.get("run_seconds").and_then(as_f64).expect("run_seconds"),
            workloads,
            end_to_end: decls(&v, "end_to_end"),
            per_layer: decls(&v, "per_layer"),
        }
    }

    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The gate `compare` applies to `name`, if it has one.
    pub fn gate(&self, name: &str) -> Option<Gate> {
        if let Some(m) = self.end_to_end.iter().find(|m| m.name == name) {
            return m.bound.map(Gate::Share);
        }
        if EXACT_PREFIXES.iter().any(|p| name.starts_with(p)) {
            return Some(Gate::Exact);
        }
        LEDGER_GATES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, g)| g)
    }
}

/// Metric values of one workload run, by declared name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

//! Runs the built benchmark binary in `--smoke` mode and checks what it
//! emits against `BENCHMARK.json`: the contract the driver holds the
//! benchmark to, checked from this side.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn names(spec: &Value, key: &str) -> Vec<String> {
    let Some(Value::Seq(items)) = spec.get(key) else {
        panic!("BENCHMARK.json has no list `{key}`");
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: name is {other:?}"),
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pimdl-benchmark"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn declarations_fit_the_contract() {
    let spec: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
    let (workloads, e2e, layer) = (
        names(&spec, "workloads"),
        names(&spec, "end_to_end"),
        names(&spec, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layer.len()));
    assert!(e2e.contains(&"setup_s".to_string()));
    let all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layer).collect();
    assert!(all.iter().all(|n| valid_name(n)), "a name breaks the rules");
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
}

#[test]
fn smoke_run_emits_every_declared_end_to_end_metric_for_every_workload() {
    let spec: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
    let declared: BTreeSet<String> = names(&spec, "end_to_end")
        .into_iter()
        .chain(names(&spec, "per_layer"))
        .collect();
    let out_file = tmp("smoke-run.json");
    let out = bench()
        .args(["run", "--smoke", "--out"])
        .arg(&out_file)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "smoke run failed:\n{stdout}");

    // `workload metric value unit` lines, by workload.
    let mut seen: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split(' ').collect();
        assert_eq!(f.len(), 4, "not `workload metric value unit`: {line:?}");
        assert!(valid_name(f[1]), "bad metric name {:?}", f[1]);
        assert!(declared.contains(f[1]), "{} is not declared", f[1]);
        assert!(f[2].parse::<f64>().unwrap().is_finite(), "{line:?}");
        seen.entry(f[0].to_string())
            .or_default()
            .insert(f[1].to_string());
    }
    for workload in names(&spec, "workloads") {
        let metrics = seen
            .get(&workload)
            .unwrap_or_else(|| panic!("{workload} did not run"));
        for m in names(&spec, "end_to_end") {
            assert!(metrics.contains(&m), "{workload} lacks {m}");
        }
        assert!(metrics.contains("failed_share") && metrics.contains("host.calib_spin_ms"));
    }
    // The open loop reports how late its generator ran.
    assert!(seen["http_rt"].contains("client.send_lateness_p99_ms"));

    // The result file holds the run and the machine it ran on.
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    assert!(doc.get("machine").and_then(|m| m.get("nproc")).is_some());
    let Some(Value::Seq(runs)) = doc.get("runs") else {
        panic!("no runs in {doc:?}");
    };
    assert_eq!(runs.len(), 1);

    // A file compared with itself: nothing regresses, exact metrics identical.
    let cmp = bench()
        .arg("compare")
        .arg(&out_file)
        .arg(&out_file)
        .output()
        .unwrap();
    let text = String::from_utf8(cmp.stdout).unwrap();
    assert!(cmp.status.success(), "{text}");
    assert!(text.contains("tune_sim sim_inference_s") && text.contains("identical"));
    assert!(!text.contains("REGRESSED") && !text.contains("CHANGED"));
}

#[test]
fn traced_pass_emits_the_whole_ledger_and_a_consistent_span_file() {
    let spec: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
    let dir = tmp("smoke-trace");
    let out = bench()
        .args([
            "--workload",
            "fabric_small",
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", "1", "--smoke", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "traced pass failed:\n{stdout}");
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    let Some(Value::Map(metrics)) = last.get("metrics") else {
        panic!("no metrics in {last:?}");
    };
    let emitted: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
    assert_eq!(
        emitted,
        names(&spec, "per_layer").iter().collect::<Vec<_>>()
    );

    let spans: Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("trace-fabric_small.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(spans.get("consistent"), Some(&Value::Bool(true)));
    let Some(Value::Map(layers)) = spans.get("self_time_by_layer") else {
        panic!("no self times");
    };
    for layer in [
        "serve.codec.parse",
        "serve.shard.execute",
        "serve.fabric.frame_decode",
    ] {
        assert!(
            layers.iter().any(|(l, _)| l == layer),
            "no spans of {layer}"
        );
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = bench()
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

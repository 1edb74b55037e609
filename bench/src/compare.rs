//! `compare A.json B.json`: every (workload, metric) pair of two result
//! files with both medians, the ratio B ÷ A (base A), the bound, and a
//! verdict. A file holds one or more runs (`run --append` adds one), so
//! two interleaved sets of runs compare as two files.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::spec::{as_f64, Gate, Spec};
use crate::util::{iqr_share, median};
use crate::Res;

/// Results are in nominal-machine time (`reference.rs`), which was seen
/// to cancel the machine's movement to a few per cent while the reference
/// moved by up to 2×. A workload whose `host.speed_factor` differs by more
/// than this between the two sets was measured further apart than that
/// was checked for: verdicts on it are `unresolved`.
const SPEED_TOLERANCE: f64 = 0.30;

/// A run whose slice rates — quarter-second slices, in nominal-machine
/// time — spread more than this is noisy: the small closed loops spread
/// 0.2–0.3 on a usual day, everything else under 0.1.
pub const NOISY_SLICE_IQR: f64 = 0.35;

/// `workload → metric → value of each run`.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Res<Table> {
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path)?)?;
    let Some(Value::Seq(runs)) = doc.get("runs") else {
        return Err(format!("{}: no `runs` list", path.display()).into());
    };
    let mut table = Table::new();
    for run in runs {
        let Some(Value::Map(workloads)) = run.get("workloads") else {
            continue;
        };
        for (workload, result) in workloads {
            let Some(Value::Map(metrics)) = result.get("metrics") else {
                continue;
            };
            let row = table.entry(workload.clone()).or_default();
            for (name, v) in metrics {
                if let Some(v) = as_f64(v) {
                    row.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(table)
}

/// The verdict on one gated pair, before noise is considered.
fn judge(gate: Gate, higher_better: bool, a: f64, b: f64) -> &'static str {
    // How much worse B is than A, in the metric's own unit.
    let worse_by = if higher_better { a - b } else { b - a };
    match gate {
        Gate::Exact if a.to_bits() == b.to_bits() => "identical",
        Gate::Exact => "CHANGED",
        Gate::Share(s) if worse_by > s * a.abs() => "REGRESSED",
        Gate::Abs(x) if worse_by > x => "REGRESSED",
        _ => "unchanged",
    }
}

/// Prints the comparison; `Ok(false)` if any gated pair regressed or an
/// exact metric changed.
pub fn run(a_path: &Path, b_path: &Path) -> Res<bool> {
    let spec = Spec::load();
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!("workload metric median_A median_B ratio_B/A bound verdict");
    for (workload, a_row) in &a {
        let Some(b_row) = b.get(workload) else {
            println!("{workload} - - - - - missing-in-B");
            continue;
        };
        let med = |row: &BTreeMap<String, Vec<f64>>, name: &str| row.get(name).map(|v| median(v));
        let machine_moved = match (
            med(a_row, "host.speed_factor"),
            med(b_row, "host.speed_factor"),
        ) {
            (Some(x), Some(y)) => (y - x).abs() > SPEED_TOLERANCE * x,
            _ => false,
        };
        let noisy = [a_row, b_row]
            .iter()
            .any(|r| med(r, "client.slice_iqr_share").unwrap_or(0.0) > NOISY_SLICE_IQR);
        for (name, a_vals) in a_row {
            let Some(b_vals) = b_row.get(name) else {
                continue;
            };
            let (ma, mb) = (median(a_vals), median(b_vals));
            let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
            let gate = spec.gate(name);
            let higher_better = spec.decl(name).is_some_and(|d| d.higher_better);
            let bound = match gate {
                None => "-".to_string(),
                Some(Gate::Exact) => "exact".to_string(),
                Some(Gate::Share(s)) => format!("{:.0}%", s * 100.0),
                Some(Gate::Abs(x)) => format!("{x}abs"),
            };
            let verdict = match gate {
                None => "-",
                Some(g) => {
                    let v = judge(g, higher_better, ma, mb);
                    // Only a share-gated metric depends on the machine's
                    // speed. It is unresolved when the machine moved, the
                    // run was noisy, or either set's own spread exceeds
                    // the bound — unless B is worse anyway.
                    let shaky = match g {
                        Gate::Share(s) => {
                            machine_moved || noisy || iqr_share(a_vals) > s || iqr_share(b_vals) > s
                        }
                        Gate::Abs(_) | Gate::Exact => false,
                    };
                    if v == "unchanged" && shaky {
                        "unresolved"
                    } else {
                        v
                    }
                }
            };
            ok &= !matches!(verdict, "REGRESSED" | "CHANGED");
            println!("{workload} {name} {ma} {mb} {ratio:.4} {bound} {verdict}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_gate() {
        // Lower is better: 10 % bound.
        assert_eq!(judge(Gate::Share(0.1), false, 100.0, 109.0), "unchanged");
        assert_eq!(judge(Gate::Share(0.1), false, 100.0, 111.0), "REGRESSED");
        assert_eq!(judge(Gate::Share(0.1), false, 100.0, 50.0), "unchanged");
        // Higher is better.
        assert_eq!(judge(Gate::Share(0.1), true, 100.0, 89.0), "REGRESSED");
        assert_eq!(judge(Gate::Share(0.1), true, 100.0, 150.0), "unchanged");
        assert_eq!(judge(Gate::Abs(1.0), true, 99.0, 97.5), "REGRESSED");
        assert_eq!(judge(Gate::Exact, false, 0.1 + 0.2, 0.3), "CHANGED");
        assert_eq!(judge(Gate::Exact, false, 0.3, 0.3), "identical");
    }
}

//! Every numeric field of the built-in platforms, edited to hostile values:
//! each edited configuration is refused by `PlatformConfig::validate` with
//! a typed error naming the field, or tunes, allocates and prices without a
//! panic; a non-finite or negative value and a PE count past `MAX_PES` are
//! always refused. The walk is deterministic: a fixed list of edits per
//! field.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pimdl_sim::config::{PlatformConfig, MAX_PES};
use pimdl_sim::cost::estimate_cost;
use pimdl_sim::{LutWorkload, SimError};
use pimdl_tuner::{bnb, tune};

/// One numeric field of a configuration, borrowed for editing.
enum Slot<'a> {
    Int(&'a mut usize),
    Float(&'a mut f64),
}

type Field = (&'static str, fn(&mut PlatformConfig) -> Slot<'_>);

/// Every numeric field of `PlatformConfig`, nested ones included.
fn fields() -> Vec<Field> {
    vec![
        ("num_pes", |p| Slot::Int(&mut p.num_pes)),
        ("pe_freq_mhz", |p| Slot::Float(&mut p.pe_freq_mhz)),
        ("wram_bytes", |p| Slot::Int(&mut p.wram_bytes)),
        ("mram_bytes", |p| Slot::Int(&mut p.mram_bytes)),
        ("host_transfer.to_pim_peak_gbps", |p| {
            Slot::Float(&mut p.host_transfer.to_pim_peak_gbps)
        }),
        ("host_transfer.broadcast_peak_gbps", |p| {
            Slot::Float(&mut p.host_transfer.broadcast_peak_gbps)
        }),
        ("host_transfer.from_pim_peak_gbps", |p| {
            Slot::Float(&mut p.host_transfer.from_pim_peak_gbps)
        }),
        ("host_transfer.half_saturation_bytes", |p| {
            Slot::Float(&mut p.host_transfer.half_saturation_bytes)
        }),
        ("host_transfer.fixed_latency_s", |p| {
            Slot::Float(&mut p.host_transfer.fixed_latency_s)
        }),
        ("local_mem.peak_gbps", |p| {
            Slot::Float(&mut p.local_mem.peak_gbps)
        }),
        ("local_mem.half_saturation_bytes", |p| {
            Slot::Float(&mut p.local_mem.half_saturation_bytes)
        }),
        ("local_mem.access_overhead_s", |p| {
            Slot::Float(&mut p.local_mem.access_overhead_s)
        }),
        ("single_reduce_s", |p| Slot::Float(&mut p.single_reduce_s)),
        ("peak_internal_bw_gbps", |p| {
            Slot::Float(&mut p.peak_internal_bw_gbps)
        }),
        ("peak_gops", |p| Slot::Float(&mut p.peak_gops)),
        ("pim_power_w", |p| Slot::Float(&mut p.pim_power_w)),
        ("host_power_w", |p| Slot::Float(&mut p.host_power_w)),
        ("transfer_energy_pj_per_byte", |p| {
            Slot::Float(&mut p.transfer_energy_pj_per_byte)
        }),
    ]
}

/// A value written over a field.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Int(usize),
    Float(f64),
}

/// The edits of an integer field holding `n`: 0, 1, n ± 1, 2n and large
/// powers of two up to the type's maximum.
fn int_edits(n: usize) -> Vec<usize> {
    vec![
        0,
        1,
        n.saturating_sub(1),
        n.saturating_add(1),
        n.saturating_mul(2),
        1 << 20,
        1 << 40,
        1 << 62,
        usize::MAX,
    ]
}

/// The integer edits as floats, plus the non-finite, huge, tiny and
/// negative values.
fn float_edits(x: f64) -> Vec<f64> {
    let mut out: Vec<f64> = vec![0.0, 1.0, x - 1.0, x + 1.0, 2.0 * x];
    out.extend([20, 40, 62, 64].map(|e| 2f64.powi(e)));
    out.extend([
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e38,
        1e-300,
        -1.0,
    ]);
    out
}

/// What the system does with an edited platform once it loads: tune the
/// workload, walk its capacity frontier and price the mapping tuned on the
/// unedited platform and the one tuned on this one. Errors are fine; only
/// a panic is not.
fn exercise(platform: &PlatformConfig, w: &LutWorkload, baseline: &pimdl_sim::Mapping) {
    let tuned = tune(platform, w);
    let _ = bnb::pair_frontier(platform, w);
    let _ = estimate_cost(platform, w, baseline);
    if let Ok(tuned) = tuned {
        let _ = estimate_cost(platform, w, &tuned.mapping);
    }
}

#[test]
fn every_platform_edit_is_refused_or_runs_without_panic() {
    let w = LutWorkload::new(64, 8, 16, 32).unwrap();
    let mut panicked = Vec::new();
    let (mut edits_walked, mut ran) = (0, 0);
    for base in PlatformConfig::all() {
        let baseline = tune(&base, &w).unwrap().mapping;
        for (name, slot) in fields() {
            let edits: Vec<Edit> = match slot(&mut base.clone()) {
                Slot::Int(n) => int_edits(*n).into_iter().map(Edit::Int).collect(),
                Slot::Float(x) => float_edits(*x).into_iter().map(Edit::Float).collect(),
            };
            for edit in edits {
                let mut p = base.clone();
                match (slot(&mut p), edit) {
                    (Slot::Int(field), Edit::Int(v)) => *field = v,
                    (Slot::Float(field), Edit::Float(v)) => *field = v,
                    _ => unreachable!("an edit has its field's type"),
                }
                edits_walked += 1;
                // Whatever else a field admits, these never load.
                let out_of_range = match edit {
                    Edit::Float(v) => !v.is_finite() || v < 0.0,
                    Edit::Int(v) => name == "num_pes" && !(1..=MAX_PES).contains(&v),
                };
                match p.validate() {
                    Err(SimError::InvalidPlatform { detail }) if detail.contains(name) => continue,
                    Err(other) => panic!("{name} = {edit:?}: refused as {other:?}"),
                    Ok(()) => assert!(!out_of_range, "{name} = {edit:?} loaded"),
                }
                ran += 1;
                let run = catch_unwind(AssertUnwindSafe(|| exercise(&p, &w, &baseline)));
                if run.is_err() {
                    panicked.push(format!("{:?} {name} = {edit:?}", base.kind));
                }
            }
        }
    }
    assert!(
        edits_walked > 700 && ran > 500,
        "walked {edits_walked} edits, ran {ran}"
    );
    assert!(panicked.is_empty(), "edits that panicked: {panicked:?}");
}

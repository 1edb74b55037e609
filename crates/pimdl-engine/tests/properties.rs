//! Property-based tests for the engine: residency planning invariants and
//! serving-report consistency.

use proptest::prelude::*;

use pimdl_engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl_engine::residency::{plan, OperatorFootprint};
use pimdl_engine::shapes::TransformerShape;
use pimdl_sim::cost::estimate_cost;
use pimdl_sim::{LutWorkload, PlatformConfig};
use pimdl_tuner::tune;

fn footprints(
    platform: &PlatformConfig,
    shapes: &[(usize, usize, usize)],
) -> Vec<OperatorFootprint<'static>> {
    shapes
        .iter()
        .filter_map(|&(n, cb, f)| {
            let workload = LutWorkload::new(n, cb, 16, f).ok()?;
            let mapping = tune(platform, &workload).ok()?.mapping;
            let report = estimate_cost(platform, &workload, &mapping).ok()?;
            Some(OperatorFootprint {
                name: "op",
                workload,
                mapping,
                report,
                layers: 2,
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Residency-plan invariants: resident bytes fit the capacity and sum
    /// correctly; the staging penalty is exactly the non-resident staging
    /// total; shrinking capacity never decreases the penalty.
    #[test]
    fn residency_plan_invariants(cap_kib in 1usize..512) {
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = 16;
        let fps = footprints(&platform, &[(64, 8, 32), (64, 8, 64), (64, 32, 32)]);
        prop_assume!(!fps.is_empty());

        platform.mram_bytes = cap_kib * 1024;
        let p = plan(&platform, &fps);
        prop_assert!(p.used_bytes <= p.capacity_bytes);
        let resident_sum: u64 = p
            .entries
            .iter()
            .filter(|e| e.resident)
            .map(|e| e.per_pe_bytes)
            .sum();
        prop_assert_eq!(resident_sum, p.used_bytes);
        let penalty: f64 = p
            .entries
            .iter()
            .filter(|e| !e.resident)
            .map(|e| e.staging_s)
            .sum();
        prop_assert!((penalty - p.staging_penalty_s).abs() < 1e-15);
        prop_assert!(p.used_bytes <= p.capacity_bytes);

        // Half the capacity ⇒ penalty does not decrease.
        platform.mram_bytes = cap_kib * 512;
        let tighter = plan(&platform, &fps);
        prop_assert!(tighter.staging_penalty_s >= p.staging_penalty_s - 1e-15);
    }

    /// Serving-report consistency across arbitrary small configurations:
    /// components sum to the total, all components are positive, and energy
    /// scales with latency.
    #[test]
    fn serve_report_consistency(
        batch in 1usize..6,
        seq_pow in 3u32..6,
        v in prop::sample::select(vec![2usize, 4, 8]),
        ct in prop::sample::select(vec![8usize, 16]),
    ) {
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = 64;
        let engine = PimDlEngine::new(platform);
        let shape = TransformerShape::tiny();
        let cfg = ServingConfig {
            batch,
            seq_len: 1 << seq_pow,
            v,
            ct,
        };
        let Ok(report) = engine.serve(&shape, &cfg) else {
            return Ok(()); // V may not divide a dim for this combo
        };
        let sum = report.lut_s + report.ccs_s + report.attention_s + report.other_s;
        prop_assert!((report.total_s - sum).abs() < 1e-12);
        prop_assert!(report.lut_s > 0.0 && report.ccs_s > 0.0);
        prop_assert!(report.energy.pim_j > 0.0);
        // PIM energy is static power × total time exactly.
        let expected_pim = engine.platform().pim_power_w * report.total_s;
        prop_assert!((report.energy.pim_j - expected_pim).abs() < 1e-9);
        prop_assert_eq!(report.per_linear.len(), 4);
    }
}

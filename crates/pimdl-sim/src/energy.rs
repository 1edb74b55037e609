//! Energy accounting (paper §6.3).
//!
//! Mirrors the paper's measurement methodology: PIM-DIMM energy is static
//! power × time (UPMEM has no DVFS, so static ≈ dynamic), host energy is
//! RAPL-style power × time, and host↔PIM link energy is charged per byte.

use serde::{Deserialize, Serialize};

/// Energy consumed by one kernel (or an aggregate of kernels), in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    /// PIM-module energy (static power × elapsed time).
    pub pim_j: f64,
    /// Host-processor energy over the same window.
    pub host_j: f64,
    /// Host↔PIM link energy (per-byte).
    pub transfer_j: f64,
}

impl EnergyReport {
    /// Total energy.
    pub fn total_j(&self) -> f64 {
        self.pim_j + self.host_j + self.transfer_j
    }

    /// Sums two reports.
    pub fn add(&self, other: &EnergyReport) -> EnergyReport {
        EnergyReport {
            pim_j: self.pim_j + other.pim_j,
            host_j: self.host_j + other.host_j,
            transfer_j: self.transfer_j + other.transfer_j,
        }
    }

    /// Energy of a time window with explicit powers and bytes.
    pub fn from_window(
        elapsed_s: f64,
        pim_power_w: f64,
        host_power_w: f64,
        link_bytes: f64,
        pj_per_byte: f64,
    ) -> EnergyReport {
        EnergyReport {
            pim_j: pim_power_w * elapsed_s,
            host_j: host_power_w * elapsed_s,
            transfer_j: link_bytes * pj_per_byte * 1e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn energy_scales_linearly_with_time() {
        let e1 = EnergyReport::from_window(1.0, 100.0, 50.0, 0.0, 0.0);
        let e2 = EnergyReport::from_window(2.0, 100.0, 50.0, 0.0, 0.0);
        assert!((e2.pim_j - 2.0 * e1.pim_j).abs() < 1e-12);
        assert!((e2.host_j - 2.0 * e1.host_j).abs() < 1e-12);
    }

    #[test]
    fn transfer_energy_per_byte() {
        let e = EnergyReport::from_window(0.0, 0.0, 0.0, 1e12, 20.0);
        assert!((e.transfer_j - 20.0).abs() < 1e-9); // 1e12 B × 20 pJ/B = 20 J
    }

    #[test]
    fn add_sums_componentwise() {
        let a = EnergyReport {
            pim_j: 1.0,
            host_j: 2.0,
            transfer_j: 3.0,
        };
        let b = EnergyReport {
            pim_j: 0.5,
            host_j: 0.25,
            transfer_j: 0.125,
        };
        let c = a.add(&b);
        assert_eq!(c.pim_j, 1.5);
        assert_eq!(c.host_j, 2.25);
        assert_eq!(c.transfer_j, 3.125);
        assert_eq!(EnergyReport::default().total_j(), 0.0);
    }
}

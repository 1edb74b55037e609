//! Network cost model for the distributed shard fabric.
//!
//! When shard workers become separate OS processes (DESIGN.md §13), every
//! dispatched batch crosses a socket twice: an `Execute` frame out and an
//! `ExecDone` frame back. The fabric DES (`pimdl-serve`'s
//! `SimShardEngine::with_network`) prices that crossing with an affine
//! model,
//!
//! ```text
//! frame_cost(bytes) = link_latency_s + per_byte_s * bytes
//! ```
//!
//! calibrated from *measured* loopback round-trips at two frame sizes:
//! the model's constants come from the real runtime. `pimdl-serve`'s
//! `fabric_loopback` test checks that the fitted line predicts an
//! intermediate frame size.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::Result;

/// Affine per-frame network cost: a fixed link latency plus a
/// serialization/copy term proportional to the frame size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Fixed one-way cost of moving one frame across the link (seconds):
    /// syscall entry, loopback queueing, wakeup of the peer.
    pub link_latency_s: f64,
    /// Marginal cost per payload byte (seconds/byte): serialization,
    /// copies, and checksumming on both ends.
    pub per_byte_s: f64,
}

impl NetworkModel {
    /// The free network: both terms zero. With this model the fabric DES
    /// degenerates to the in-process DES.
    pub fn zero() -> Self {
        NetworkModel {
            link_latency_s: 0.0,
            per_byte_s: 0.0,
        }
    }

    /// Checks the model for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkloadMismatch`] if either term is negative
    /// or non-finite (a negative cost would let large batches finish
    /// before they dispatch).
    pub fn validate(&self) -> Result<()> {
        if !self.link_latency_s.is_finite() || self.link_latency_s < 0.0 {
            return Err(SimError::WorkloadMismatch {
                detail: format!(
                    "network link_latency_s must be finite and >= 0, got {}",
                    self.link_latency_s
                ),
            });
        }
        if !self.per_byte_s.is_finite() || self.per_byte_s < 0.0 {
            return Err(SimError::WorkloadMismatch {
                detail: format!(
                    "network per_byte_s must be finite and >= 0, got {}",
                    self.per_byte_s
                ),
            });
        }
        Ok(())
    }

    /// One-way cost of a frame carrying `bytes` payload bytes.
    pub fn frame_cost_s(&self, bytes: usize) -> f64 {
        self.link_latency_s + self.per_byte_s * bytes as f64
    }

    /// Fits the affine model to two measured loopback round trips
    /// `(frame_bytes, rtt_s)`. Each round trip crosses the link twice, so
    /// the fitted one-way latency is half the extrapolated zero-byte RTT
    /// and the per-byte slope is half the RTT slope. Both terms are
    /// clamped to zero: on a noisy host the small-frame RTT can exceed
    /// the large-frame RTT, and a negative cost must never enter the DES.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkloadMismatch`] for non-finite/negative
    /// measurements or two samples at the same frame size (the slope
    /// would be undefined).
    pub fn calibrate(small: (usize, f64), large: (usize, f64)) -> Result<Self> {
        let (b0, t0) = small;
        let (b1, t1) = large;
        if !t0.is_finite() || !t1.is_finite() || t0 < 0.0 || t1 < 0.0 {
            return Err(SimError::WorkloadMismatch {
                detail: format!(
                    "network calibration needs finite non-negative RTTs, got {t0}/{t1}"
                ),
            });
        }
        if b0 == b1 {
            return Err(SimError::WorkloadMismatch {
                detail: format!("network calibration needs two distinct frame sizes, got {b0}"),
            });
        }
        let slope = ((t1 - t0) / (b1 as f64 - b0 as f64)).max(0.0);
        let intercept = (t0 - slope * b0 as f64).max(0.0);
        Ok(NetworkModel {
            link_latency_s: intercept / 2.0,
            per_byte_s: slope / 2.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_free_and_valid() {
        let m = NetworkModel::zero();
        m.validate().unwrap();
        assert_eq!(m.frame_cost_s(0), 0.0);
        assert_eq!(m.frame_cost_s(1 << 20), 0.0);
    }

    #[test]
    fn frame_cost_is_affine_in_bytes() {
        let m = NetworkModel {
            link_latency_s: 10e-6,
            per_byte_s: 1e-9,
        };
        m.validate().unwrap();
        assert!((m.frame_cost_s(0) - 10e-6).abs() < 1e-15);
        let d = m.frame_cost_s(2000) - m.frame_cost_s(1000);
        assert!((d - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn degenerate_models_are_rejected() {
        for (lat, per) in [
            (-1e-6, 0.0),
            (f64::NAN, 0.0),
            (f64::INFINITY, 0.0),
            (0.0, -1e-12),
            (0.0, f64::NAN),
        ] {
            let m = NetworkModel {
                link_latency_s: lat,
                per_byte_s: per,
            };
            assert!(m.validate().is_err(), "accepted {m:?}");
        }
    }

    #[test]
    fn calibration_recovers_a_synthetic_link() {
        // RTT = 2 * (20us + 2ns/B * bytes), sampled at two sizes.
        let rtt = |b: usize| 2.0 * (20e-6 + 2e-9 * b as f64);
        let m = NetworkModel::calibrate((64, rtt(64)), (65536, rtt(65536))).unwrap();
        assert!((m.link_latency_s - 20e-6).abs() < 1e-12, "{m:?}");
        assert!((m.per_byte_s - 2e-9).abs() < 1e-15, "{m:?}");
        m.validate().unwrap();
    }

    #[test]
    fn calibration_clamps_noise_to_zero() {
        // Noisy host: the small frame measured *slower* than the large
        // one — the slope clamps to 0 and the intercept stays the small
        // RTT, never a negative cost.
        let m = NetworkModel::calibrate((64, 100e-6), (65536, 80e-6)).unwrap();
        assert_eq!(m.per_byte_s, 0.0);
        assert!((m.link_latency_s - 50e-6).abs() < 1e-12);
        m.validate().unwrap();

        assert!(NetworkModel::calibrate((64, f64::NAN), (128, 1.0)).is_err());
        assert!(NetworkModel::calibrate((64, 1.0), (64, 2.0)).is_err());
        assert!(NetworkModel::calibrate((64, -1.0), (128, 1.0)).is_err());
    }
}

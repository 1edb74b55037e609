//! Learning-rate schedules.
//!
//! Deep post-norm transformers are sensitive to the early training phase;
//! a linear warmup followed by cosine decay (the BERT recipe) stabilizes
//! the 4-layer calibration models used in the accuracy experiments.

use serde::{Deserialize, Serialize};

/// A learning-rate schedule mapping an optimizer step index to a
/// multiplier on the base learning rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Schedule {
    /// Constant multiplier 1.
    #[default]
    Constant,
    /// Linear warmup over `warmup_steps`, then cosine decay to
    /// `floor` × base over the remaining steps up to `total_steps`.
    WarmupCosine {
        /// Steps of linear warmup from 0 to the base rate.
        warmup_steps: u64,
        /// Total steps of the run (decay horizon).
        total_steps: u64,
        /// Final multiplier at `total_steps` (e.g. 0.1).
        floor: f32,
    },
}

impl Schedule {
    /// Learning-rate multiplier at optimizer step `step` (1-based).
    pub fn multiplier(&self, step: u64) -> f32 {
        match *self {
            Schedule::Constant => 1.0,
            Schedule::WarmupCosine {
                warmup_steps,
                total_steps,
                floor,
            } => {
                if step <= warmup_steps {
                    step as f32 / warmup_steps.max(1) as f32
                } else if step >= total_steps {
                    floor
                } else {
                    let progress =
                        (step - warmup_steps) as f32 / (total_steps - warmup_steps).max(1) as f32;
                    let cosine = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
                    floor + (1.0 - floor) * cosine
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        for step in [1u64, 10, 1000] {
            assert_eq!(Schedule::Constant.multiplier(step), 1.0);
        }
        assert_eq!(Schedule::default(), Schedule::Constant);
    }

    #[test]
    fn warmup_ramps_linearly() {
        let s = Schedule::WarmupCosine {
            warmup_steps: 10,
            total_steps: 100,
            floor: 0.1,
        };
        assert!((s.multiplier(1) - 0.1).abs() < 1e-6);
        assert!((s.multiplier(5) - 0.5).abs() < 1e-6);
        assert!((s.multiplier(10) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_decays_to_floor() {
        let s = Schedule::WarmupCosine {
            warmup_steps: 10,
            total_steps: 100,
            floor: 0.1,
        };
        // Monotone decreasing after warmup.
        let mut prev = s.multiplier(10);
        for step in 11..=100 {
            let m = s.multiplier(step);
            assert!(m <= prev + 1e-6, "step {step}: {m} > {prev}");
            prev = m;
        }
        assert!((s.multiplier(100) - 0.1).abs() < 1e-5);
        assert!((s.multiplier(1000) - 0.1).abs() < 1e-6);
        // Midpoint of decay is halfway between floor and 1.
        let mid = s.multiplier(55);
        assert!((mid - 0.55).abs() < 0.02, "mid={mid}");
    }

    #[test]
    fn degenerate_horizons_are_safe() {
        let s = Schedule::WarmupCosine {
            warmup_steps: 1,
            total_steps: 1,
            floor: 0.1,
        };
        assert!(s.multiplier(1).is_finite());
        let s = Schedule::WarmupCosine {
            warmup_steps: 5,
            total_steps: 5,
            floor: 0.2,
        };
        assert_eq!(s.multiplier(6), 0.2);
    }
}

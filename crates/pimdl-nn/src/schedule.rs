//! Learning-rate schedules.
//!
//! Every training run in the workspace (dense models and eLUT-NN
//! calibration) uses the base rate unchanged, so a constant multiplier is
//! the one schedule [`TrainConfig`](crate::train::TrainConfig) offers.

use serde::{Deserialize, Serialize};

/// A learning-rate schedule mapping an optimizer step index to a
/// multiplier on the base learning rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Schedule {
    /// Constant multiplier 1.
    #[default]
    Constant,
}

impl Schedule {
    /// Learning-rate multiplier at optimizer step `step` (1-based).
    pub fn multiplier(&self, _step: u64) -> f32 {
        match *self {
            Schedule::Constant => 1.0,
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
}

use std::fmt;

use pimdl_sim::SimError;

/// Error type for the auto-tuner.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TuneError {
    /// The search space is empty: no legal mapping exists for this workload
    /// on this platform.
    NoLegalMapping {
        /// Explanation (workload/platform summary).
        detail: String,
    },
    /// An underlying simulator/validation error.
    Sim(SimError),
    /// An allocation request is malformed (unsupported `V`, empty op
    /// list, zero budget, …) — distinct from a well-formed request that
    /// merely has no feasible answer.
    InvalidConfig {
        /// What is wrong with the request.
        detail: String,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::NoLegalMapping { detail } => {
                write!(f, "no legal mapping found: {detail}")
            }
            TuneError::Sim(e) => write!(f, "simulator error: {e}"),
            TuneError::InvalidConfig { detail } => {
                write!(f, "invalid tuning request: {detail}")
            }
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for TuneError {
    fn from(e: SimError) -> Self {
        TuneError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let e = TuneError::NoLegalMapping {
            detail: "x".to_string(),
        };
        assert!(e.to_string().contains("no legal mapping"));
        assert!(e.source().is_none());

        let inner = SimError::IllegalMapping {
            detail: "y".to_string(),
        };
        let e = TuneError::from(inner);
        assert!(e.to_string().contains("simulator error"));
        assert!(e.source().is_some());
    }
}

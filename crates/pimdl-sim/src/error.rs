use std::fmt;

/// Error type for the DRAM-PIM simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The mapping is illegal for the workload/platform (tiling does not
    /// divide, PE count mismatch, WRAM overflow, ...).
    IllegalMapping {
        /// Explanation of the violated constraint.
        detail: String,
    },
    /// The workload description is inconsistent with the supplied data.
    WorkloadMismatch {
        /// Explanation of the inconsistency.
        detail: String,
    },
    /// An underlying tensor/LUT operation failed during functional
    /// execution.
    Execution {
        /// Explanation of the failure.
        detail: String,
    },
    /// A platform configuration read from outside is out of range
    /// ([`crate::PlatformConfig::validate`]).
    InvalidPlatform {
        /// The offending field and why.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IllegalMapping { detail } => write!(f, "illegal mapping: {detail}"),
            SimError::WorkloadMismatch { detail } => write!(f, "workload mismatch: {detail}"),
            SimError::Execution { detail } => write!(f, "execution failed: {detail}"),
            SimError::InvalidPlatform { detail } => write!(f, "invalid platform: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SimError::IllegalMapping { detail: "x".into() }
            .to_string()
            .contains("illegal mapping"));
        assert!(SimError::WorkloadMismatch { detail: "y".into() }
            .to_string()
            .contains("workload"));
        assert!(SimError::Execution { detail: "z".into() }
            .to_string()
            .contains("execution"));
        assert!(SimError::InvalidPlatform { detail: "p".into() }
            .to_string()
            .contains("platform"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}

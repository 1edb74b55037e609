use std::fmt;

/// Error type for tensor operations.
///
/// All fallible public functions in this crate return
/// [`Result<T, TensorError>`](crate::Result).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right-hand operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A dimension argument was invalid (for example zero where a positive
    /// size is required, or a split that does not divide evenly).
    InvalidDimension {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Explanation of what was wrong with the dimension.
        detail: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidDimension { op, detail } => {
                write!(f, "invalid dimension in {op}: {detail}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(
            err.to_string(),
            "shape mismatch in matmul: lhs is 2x3, rhs is 4x5"
        );
    }

    #[test]
    fn display_invalid_dimension() {
        let err = TensorError::InvalidDimension {
            op: "split",
            detail: "7 not divisible by 2".to_string(),
        };
        assert!(err.to_string().contains("split"));
        assert!(err.to_string().contains("7 not divisible by 2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}

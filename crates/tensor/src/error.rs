use std::fmt;

/// Errors produced by tensor construction and kernel dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data
    /// length supplied.
    ShapeDataMismatch {
        /// Product of the requested shape's dimensions.
        expected: usize,
        /// Length of the provided buffer.
        actual: usize,
    },
    /// Two operands have shapes that the operation cannot combine.
    ShapeMismatch {
        /// Name of the operation that was attempted.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// The operand's rank (number of dimensions) is not supported.
    RankMismatch {
        /// Name of the operation that was attempted.
        op: &'static str,
        /// Rank the operation expected.
        expected: usize,
        /// Rank the operand actually had.
        actual: usize,
    },
    /// Geometry (stride/padding/kernel) does not produce a valid output.
    InvalidGeometry(String),
    /// An operation that requires finite inputs encountered NaN or an
    /// infinity. Quantization refuses such values up front: they would
    /// otherwise be silently clamped into the i8 grid.
    NonFinite {
        /// Name of the operation that rejected the value.
        op: &'static str,
        /// Flat index of the first offending element.
        index: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape requires {expected} elements but buffer holds {actual}"
            ),
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => write!(f, "{op}: expected rank {expected}, got rank {actual}"),
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::NonFinite { op, index } => {
                write!(f, "{op}: non-finite value at flat index {index}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_data_mismatch() {
        let e = TensorError::ShapeDataMismatch {
            expected: 4,
            actual: 3,
        };
        assert_eq!(
            e.to_string(),
            "shape requires 4 elements but buffer holds 3"
        );
    }

    #[test]
    fn display_shape_mismatch_names_op() {
        let e = TensorError::ShapeMismatch {
            op: "add",
            lhs: vec![2, 2],
            rhs: vec![3],
        };
        assert!(e.to_string().contains("add"));
        assert!(e.to_string().contains("[2, 2]"));
    }

    #[test]
    fn display_rank_mismatch() {
        let e = TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("expected rank 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}

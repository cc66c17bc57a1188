//! Typed errors for the sparse linear-algebra layer.
//!
//! Library code in this crate must not panic on bad input: the solver
//! runs inside an intraoperative pipeline where a panic aborts the
//! surgery-time computation. Constructors return [`SparseError`]
//! instead, and callers decide whether to escalate, degrade, or abort.

use std::fmt;

/// Errors produced by sparse-matrix constructors and preconditioner
/// factorizations.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Raw CSR arrays violate a structural invariant (length mismatch,
    /// non-monotone `indptr`, unsorted/duplicate/out-of-range columns).
    InvalidCsr {
        /// What invariant was violated.
        reason: String,
    },
    /// Block-partition offsets are malformed (wrong endpoints, not
    /// strictly increasing, empty block).
    InvalidOffsets {
        /// What invariant was violated.
        reason: String,
    },
    /// A row range `lo..hi` does not fit the matrix it addresses.
    InvalidRange {
        /// Start of the range.
        lo: usize,
        /// End of the range (exclusive).
        hi: usize,
        /// Number of rows available.
        nrows: usize,
    },
    /// A vector handed to a solver entry point does not match the
    /// operator dimension — previously this was an `assert_eq!` that
    /// panicked the worker thread on a malformed RHS.
    DimensionMismatch {
        /// Which argument was the wrong shape (`"rhs"`, `"x0"`, …).
        what: &'static str,
        /// Length the operator requires.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A diagonal block of a block-Jacobi preconditioner is singular and
    /// could not be factorized — previously this was silently replaced
    /// by an identity factor, masking the singular system.
    SingularBlock {
        /// Index of the offending block.
        block: usize,
        /// Row range `(lo, hi)` of the block in the global matrix.
        rows: (usize, usize),
        /// Whether a diagonal-shift retry was attempted before giving up.
        shifted: bool,
    },
    /// A symmetric factorization (IC(0)) was handed a matrix whose
    /// sparsity pattern is not symmetric: entry `(row, col)` is stored
    /// but `(col, row)` is not.
    AsymmetricPattern {
        /// Row of the stored entry.
        row: usize,
        /// Column of the stored entry.
        col: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::InvalidCsr { reason } => write!(f, "invalid CSR structure: {reason}"),
            SparseError::InvalidOffsets { reason } => {
                write!(f, "invalid partition offsets: {reason}")
            }
            SparseError::InvalidRange { lo, hi, nrows } => {
                write!(f, "row range {lo}..{hi} out of bounds for {nrows} rows")
            }
            SparseError::DimensionMismatch { what, expected, got } => {
                write!(f, "{what} has length {got} but the operator requires {expected}")
            }
            SparseError::SingularBlock { block, rows, shifted } => {
                if *shifted {
                    write!(
                        f,
                        "diagonal block {block} (rows {}..{}) is singular even after a diagonal-shift retry",
                        rows.0, rows.1
                    )
                } else {
                    write!(f, "diagonal block {block} (rows {}..{}) is singular", rows.0, rows.1)
                }
            }
            SparseError::AsymmetricPattern { row, col } => write!(
                f,
                "sparsity pattern is not symmetric: ({row}, {col}) is stored but ({col}, {row}) is not"
            ),
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_block_and_shift() {
        let e = SparseError::SingularBlock { block: 2, rows: (4, 8), shifted: true };
        let s = e.to_string();
        assert!(s.contains("block 2") && s.contains("shift"), "{s}");
        let e = SparseError::SingularBlock { block: 0, rows: (0, 3), shifted: false };
        assert!(!e.to_string().contains("retry"));
    }

    #[test]
    fn dimension_mismatch_names_the_argument() {
        let e = SparseError::DimensionMismatch { what: "rhs", expected: 30, got: 7 };
        let s = e.to_string();
        assert!(s.contains("rhs") && s.contains("30") && s.contains('7'), "{s}");
    }

    #[test]
    fn asymmetric_pattern_names_both_positions() {
        let s = SparseError::AsymmetricPattern { row: 3, col: 9 }.to_string();
        assert!(s.contains("(3, 9)") && s.contains("(9, 3)"), "{s}");
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> =
            Box::new(SparseError::InvalidCsr { reason: "x".into() });
        assert!(e.to_string().contains("CSR"));
    }
}

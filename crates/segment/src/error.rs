//! Typed errors for the segmentation layer.
//!
//! Classifier construction used to `assert!` on malformed training data,
//! which turns a bad prototype set (an empty model, a site list with
//! mixed dimensionality, a NaN feature picked up from a corrupted scan)
//! into an intraoperative panic. These are input-validation failures and
//! are reported as values, matching the errors-vs-panics policy of the
//! sparse/FEM/mesh layers.

use brainshift_imaging::Dims;
use std::fmt;

/// A structural violation in classifier training data or input.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentError {
    /// A k-NN model was requested over zero prototypes.
    EmptyPrototypeSet,
    /// A prototype's feature vector has zero length.
    EmptyFeatureVector {
        /// Offending prototype index.
        index: usize,
    },
    /// A prototype's dimensionality disagrees with the first prototype's.
    InconsistentFeatureDim {
        /// Dimensionality of prototype 0.
        expected: usize,
        /// Dimensionality found.
        got: usize,
        /// Offending prototype index.
        index: usize,
    },
    /// A feature value is NaN or infinite, so it cannot be ordered along
    /// a kd-tree split axis (and would poison every distance it enters).
    NonFiniteFeature {
        /// Offending prototype index.
        index: usize,
        /// Offending feature axis.
        axis: usize,
    },
    /// A scan arrived on a grid other than the preoperative
    /// segmentation's, so the distance channels and prototype sites do
    /// not line up with its voxels.
    GridMismatch {
        /// Grid of the preoperative segmentation.
        expected: Dims,
        /// Grid of the scan.
        got: Dims,
    },
    /// A voxel listed for classification lies outside the grid.
    VoxelOutOfGrid {
        /// The offending linear voxel index.
        index: usize,
        /// Voxels in the grid.
        len: usize,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::EmptyPrototypeSet => {
                write!(f, "k-NN model requires at least one prototype")
            }
            SegmentError::EmptyFeatureVector { index } => {
                write!(f, "prototype {index} has an empty feature vector")
            }
            SegmentError::InconsistentFeatureDim { expected, got, index } => write!(
                f,
                "prototype {index} has {got} feature(s), expected {expected}"
            ),
            SegmentError::NonFiniteFeature { index, axis } => {
                write!(f, "prototype {index} has a non-finite feature on axis {axis}")
            }
            SegmentError::GridMismatch { expected, got } => write!(
                f,
                "scan grid {got:?} does not match the preoperative segmentation's {expected:?}"
            ),
            SegmentError::VoxelOutOfGrid { index, len } => {
                write!(f, "voxel {index} listed for classification lies outside a {len}-voxel grid")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_describe_the_violation() {
        assert!(SegmentError::EmptyPrototypeSet.to_string().contains("at least one"));
        let e = SegmentError::InconsistentFeatureDim { expected: 4, got: 2, index: 7 };
        assert!(e.to_string().contains("prototype 7"));
        assert!(e.to_string().contains("expected 4"));
        let e = SegmentError::NonFiniteFeature { index: 3, axis: 1 };
        assert!(e.to_string().contains("non-finite"));
        let e = SegmentError::GridMismatch { expected: Dims::new(4, 4, 4), got: Dims::new(4, 4, 3) };
        assert!(e.to_string().contains("does not match"));
        let e = SegmentError::VoxelOutOfGrid { index: 64, len: 64 };
        assert!(e.to_string().contains("outside"));
    }
}

//! # brainshift-segment
//!
//! Intraoperative tissue classification: the paper's k-NN segmentation
//! over a multichannel feature space (MR intensity + saturated distance
//! transforms of the registered preoperative tissue models), with
//! prototype-voxel statistical models that update automatically across
//! scans, plus the connected-component cleanup of the brain mask.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod classify;
pub mod error;
pub mod knn;
pub mod prototypes;

pub use classify::{
    dice, largest_component, Classification, Classifier, SegmentConfig,
};
pub use error::SegmentError;
pub use knn::{k_nearest_brute, KdTree, KnnScratch, Prototype, LEAF_SIZE};
pub use prototypes::PrototypeModel;

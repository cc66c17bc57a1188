//! # brainshift-register
//!
//! Rigid registration by maximization of mutual information (Wells et
//! al.), used in the paper to bring each intraoperative scan into the
//! preoperative coordinate frame before nonrigid correction: 6-DOF rigid
//! and 12-DOF affine transforms, one transform-aware MI metric, and one
//! multi-resolution coordinate-descent search that both models share.

#![warn(missing_docs)]
// No `unwrap()` or `panic!` in non-test code: registration runs inside
// `run_pipeline`, which returns typed errors. Test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod affine;
pub mod mi_metric;
pub mod rigid;
mod search;
pub mod transform;

pub use mi_metric::{mutual_information, MiConfig};
pub use affine::{register_affine, AffineRegConfig, AffineRegResult, AffineTransform};
pub use rigid::{apply_registration, register_rigid, RigidRegConfig, RigidRegResult};
pub use search::coordinate_descent;
pub use transform::RigidTransform;

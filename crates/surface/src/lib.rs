//! # brainshift-surface
//!
//! The paper's active-surface correspondence stage: an elastic membrane
//! (triangulated brain surface) iteratively deformed by image-derived
//! forces — a decreasing function of the data gradients with gray-level
//! priors — until it matches the target scan's brain surface. The
//! per-vertex displacements become the Dirichlet data of the biomechanical
//! volumetric simulation.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod band;
pub mod evolve;
pub mod forces;

pub use band::{Band, SurfaceError};
pub use evolve::{
    evolve_surface_with, ActiveSurfaceConfig, ActiveSurfaceResult, NeighborTable,
};
pub use forces::{DistanceForce, EdgeForce, ExternalForce};

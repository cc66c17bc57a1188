//! # brainshift-core
//!
//! The paper's primary contribution as a library: the intraoperative
//! nonrigid registration pipeline that captures volumetric brain
//! deformation during neurosurgery by biomechanical simulation —
//! MI rigid registration → k-NN tissue classification → active-surface
//! correspondence → linear-elastic FEM → dense deformation + resampling —
//! with stage timing (Figure 6) and quantitative accuracy metrics
//! (the measurable versions of Figures 4 and 5).

#![warn(missing_docs)]
// The intraoperative pipeline returns typed `Error`s instead of
// panicking on bad input. Test modules are exempt; descriptive
// `.expect()` on established invariants remains allowed.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod case;
pub mod error;
pub mod metrics;
pub mod pipeline;
pub mod sequence;
pub mod surgery;
pub mod timeline;

pub use case::{generate_elastic_case, ElasticCase, ElasticCaseOptions};
pub use error::Error;
pub use metrics::{field_error, intensity_residual, structure_overlaps, FieldErrorReport, ResidualReport};
pub use sequence::{
    generate_scan_sequence, run_scan_sequence, run_scan_sequence_with_faults, FaultInjection,
    ScanOutcome, ScanSequence, ScanStatus, SequenceResult,
};
pub use pipeline::{
    composite_warped, run_pipeline, PipelineConfig, PipelineResult, SurfaceForceKind,
};
pub use surgery::{PreparedSurgery, ScanRegistration};
pub use timeline::{StageTimings, Timeline};

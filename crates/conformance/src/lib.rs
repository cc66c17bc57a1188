//! # brainshift-conformance
//!
//! The correctness gate of the solver stack. The paper's claim is "fast
//! *and* faithful": the FEM solve must reproduce the volumetric
//! deformation the surface displacements imply, across every solve path
//! the repo has — cold GMRES, cold CG, the
//! warm per-surgery [`brainshift_fem::SolverContext`], and the
//! thread-message-passing distributed solver. This crate provides the
//! oracle hierarchy (DESIGN.md §10) that says the fields are *right*,
//! not merely self-consistent:
//!
//! 1. **Patch tests** ([`analytic`]) — any linear displacement field is
//!    an exact equilibrium state of a constant-strain element, so linear
//!    tets must reproduce it to solver precision (≤ 1e-8 relative).
//! 2. **Manufactured solutions** ([`mms`]) — a smooth equilibrium field
//!    imposed as Dirichlet data on refined meshes; the observed L2 error
//!    must shrink at order ≈ 2, the discretization's design order.
//! 3. **Differential harness** ([`differential`]) — one problem pushed
//!    through every solve path; all fields must agree pairwise to the
//!    Krylov tolerance (≤ 1e-6 relative).
//! 4. **Golden fields** ([`golden`]) — deterministic phantom cases whose
//!    solved displacement fields are quantized and hashed against
//!    checked-in goldens, catching silent numerical drift between PRs.
//!
//! The `conformance_report` binary runs all four and writes
//! `bench_out/conformance.json` next to the perf trajectories.

#![warn(missing_docs)]

pub mod analytic;
pub mod differential;
pub mod golden;
pub mod mms;
pub mod report;

pub use analytic::{
    linear_field, pure_shear_gradient, run_patch_test, uniaxial_stretch_gradient, PatchResult,
};
pub use differential::{
    run_differential, run_keypoint_recovery, DifferentialOptions, DifferentialResult,
    KeypointRecoveryResult, PathField,
};
pub use golden::{
    default_golden_cases, evaluate_goldens, evaluate_scenario_goldens, golden_field,
    parse_goldens, quantized_field_hash, scenario_golden_cases, scenario_golden_field, GoldenCase,
    GoldenOutcome, CHECKED_IN_GOLDENS, GOLDEN_QUANTUM_MM,
};
pub use mms::{run_mms, MmsLevel, MmsResult};
pub use report::{write_json_report, ConformanceReport};

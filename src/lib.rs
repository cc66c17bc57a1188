//! # brainshift
//!
//! A full Rust reproduction of *"Real-Time Biomechanical Simulation of
//! Volumetric Brain Deformation for Image Guided Neurosurgery"*
//! (Warfield, Ferrant, Gallez, Nabavi, Jolesz, Kikinis — SC 2000).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`imaging`] — volumes, the synthetic intraoperative-MRI phantom,
//!   distance transforms, resampling, similarity metrics;
//! * [`segment`] — k-NN tissue classification over multichannel features;
//! * [`register`] — MI rigid registration;
//! * [`mesh`] — the labeled-volume tetrahedral mesher;
//! * [`surface`] — the active-surface correspondence stage;
//! * [`sparse`] — CSR + CG/GMRES + block-Jacobi/IC(0) (the PETSc slice);
//! * [`cluster`] — machine models of the paper's three computers and the
//!   simulated-time cost accounting;
//! * [`fem`] — the linear-elastic tetrahedral FEM and the instrumented
//!   parallel assembly/solve;
//! * [`core`] — the intraoperative pipeline itself;
//! * [`conformance`] — the correctness oracles: analytic patch tests,
//!   manufactured-solution convergence, the differential solver harness,
//!   and golden-field regression (DESIGN.md §10);
//! * [`bench`] — the figure/table regeneration harness.
//!
//! Start with `examples/quickstart.rs`.

#![warn(missing_docs)]

pub use brainshift_bench as bench;
pub use brainshift_cluster as cluster;
pub use brainshift_conformance as conformance;
pub use brainshift_core as core;
pub use brainshift_fem as fem;
pub use brainshift_imaging as imaging;
pub use brainshift_mesh as mesh;
pub use brainshift_register as register;
pub use brainshift_segment as segment;
pub use brainshift_sparse as sparse;
pub use brainshift_surface as surface;

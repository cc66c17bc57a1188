//! # brainshift-fem
//!
//! The biomechanical finite-element engine of the paper: linear-elastic
//! tetrahedral elements (Zienkiewicz & Taylor formulation), per-tissue
//! material tables (homogeneous, as the paper used, and heterogeneous, as
//! it proposed), parallel global assembly, Dirichlet substitution of the
//! active-surface displacements, a Krylov solve driver (CG on block-Jacobi
//! IC(0) by default, the paper's GMRES + block Jacobi as a value), and
//! the simulated-cluster instrumentation that regenerates the paper's
//! timing figures.

#![warn(missing_docs)]
// The FEM layer returns typed `FemError`s instead of panicking on bad
// input. Test modules are exempt; descriptive `.expect()` on established
// invariants remains allowed.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod assembly;
pub mod bc;
pub mod context;
pub mod element;
pub mod error;
pub mod interpolate;
pub mod loads;
pub mod material;
pub mod simulate;
pub mod solver;

pub use assembly::assemble_stiffness;
pub use bc::{DirichletBcs, DirichletStructure};
pub use context::{ContextStats, ContextTimings, SolverContext};
pub use element::{stiffness_isotropic, TetShape};
pub use error::FemError;
pub use interpolate::{displacement_field_from_mesh, ResamplePlan};
pub use loads::assemble_directed_gravity;
pub use material::{Material, MaterialTable};
pub use simulate::{simulate_assemble_solve, SimTimings};
pub use solver::{
    solve_deformation, solve_with_loads, FemSolveConfig, FemSolution, KrylovKind, BLOCKS,
};

//! # brainshift-sparse
//!
//! From-scratch replacement for the slice of PETSc the paper uses: CSR
//! storage with a triplet builder, 3×3 node-block storage (PETSc's BAIJ)
//! for the reduced system and its factor, BLAS-1 kernels, a
//! reference dense LU, preconditioned CG and restarted GMRES, and
//! Jacobi / block-Jacobi / IC(0) preconditioners, plus the row-partitioning
//! helpers that drive the parallel decomposition (and its load imbalance,
//! the central subject of the paper's §3.2).

#![warn(missing_docs)]
// Numeric kernels must not panic on bad input: constructors return typed
// `SparseError`s instead. Test modules are exempt (`#[cfg(test)]` code
// compiles with `test` on); descriptive `.expect()` on established
// invariants remains allowed.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod bsr;
pub mod cg;
pub mod csr;
pub mod dense;
pub mod error;
pub mod gmres;
pub mod partition;
pub mod precond;
pub mod solver;

pub use bsr::{Block, BsrMatrix};
pub use cg::conjugate_gradient;
pub use csr::{CsrMatrix, TripletBuilder};
pub use error::SparseError;
pub use gmres::{gmres, gmres_with_workspace, KrylovWorkspace};
pub use precond::{
    BlockJacobiPrecond, Ic0, IdentityPrecond, JacobiPrecond, Preconditioner,
};
pub use solver::{KrylovKind, LinearOperator, SolveStats, SolverOptions, StopReason};

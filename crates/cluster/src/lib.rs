//! # brainshift-cluster
//!
//! Substitute for the paper's parallel hardware (DESIGN.md §2): machine
//! models of the Deep Flow Alpha cluster, the Sun Ultra HPC 6000 SMP and
//! the Ultra 80 pair; a deterministic simulated-time cost model in which
//! per-rank compute cost comes from the *real* partitioned data (so load
//! imbalance emerges naturally); and a genuine thread-backed
//! message-passing communicator for executing and verifying the
//! distributed algorithms.

#![warn(missing_docs)]
// Rank code must not panic on bad input: a refused partition or solve is
// a typed `SparseError` on every rank. Test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod comm;
pub mod dsolve;
pub mod machine;
pub mod sim;

pub use comm::{run_ranks, Comm};
pub use dsolve::{distributed_solve, RankSystem};
pub use machine::{CpuSpec, Interconnect, LinkSpec, MachineModel};
pub use sim::{PhaseCost, SimCluster};

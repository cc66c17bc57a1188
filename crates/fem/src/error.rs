//! Typed errors for the FEM layer.
//!
//! FEM constructors and solver entry points validate their inputs and
//! return [`FemError`] instead of panicking: a degenerate element, an
//! unconstrained system, or a singular preconditioner block must reach
//! the intraoperative pipeline as data it can react to (escalate,
//! degrade, skip the scan), not as an abort.

use brainshift_mesh::MeshError;
use brainshift_sparse::SparseError;
use std::fmt;

/// Errors raised while building or solving the biomechanical FEM system.
#[derive(Debug, Clone, PartialEq)]
pub enum FemError {
    /// The mesh failed structural or quality validation.
    Mesh(MeshError),
    /// The sparse layer rejected a matrix or preconditioner (including
    /// singular block-Jacobi blocks).
    Sparse(SparseError),
    /// An element's vertex configuration is degenerate (zero or
    /// near-zero volume) where it cannot be skipped.
    DegenerateElement {
        /// Signed volume of the offending element (mm³).
        volume: f64,
    },
    /// No Dirichlet boundary conditions were supplied: the elasticity
    /// operator has a rigid-body null space and the system is singular.
    Unconstrained,
    /// A constrained node index exceeds the mesh's node count.
    ConstrainedNodeOutOfRange {
        /// Offending node index.
        node: usize,
        /// Number of DOFs in the system.
        ndof: usize,
    },
    /// The boundary-condition set does not match the constrained node set
    /// the reduction structure (or the solver context holding it) was
    /// built with.
    BcSetMismatch {
        /// Constrained DOFs the context expects.
        expected: usize,
        /// Constrained DOFs the BC set provides.
        got: usize,
    },
    /// A node is in the constrained set but the BC set has no value for
    /// it.
    MissingBcValue {
        /// The node without a prescribed displacement.
        node: usize,
    },
    /// A prebuilt stiffness matrix, or a reduction structure split from
    /// one, does not match the mesh's equation count.
    MatrixShapeMismatch {
        /// Rows of the supplied matrix (DOFs the structure covers).
        rows: usize,
        /// Equations (3 × nodes) of the mesh.
        equations: usize,
    },
    /// A warm-start seed handed to a context does not have one entry per
    /// reduced unknown.
    SeedLengthMismatch {
        /// Length of the supplied seed.
        len: usize,
        /// Unknowns in the context's reduced system.
        unknowns: usize,
    },
    /// An externally assembled load vector does not match the mesh's
    /// equation count.
    LoadVectorMismatch {
        /// Length of the supplied load vector.
        len: usize,
        /// Equations (3 × nodes) of the mesh.
        equations: usize,
    },
    /// A nodal displacement vector does not have one entry per mesh node.
    NodalFieldMismatch {
        /// Length of the supplied displacement vector.
        len: usize,
        /// Nodes of the mesh.
        nodes: usize,
    },
    /// A simulated run asked for no CPUs, or for more than the machine
    /// has or the mesh has nodes to distribute.
    CpuCountOutOfRange {
        /// CPUs asked for.
        cpus: usize,
        /// Largest valid count: the smaller of the machine's CPUs and
        /// the mesh's nodes.
        max: usize,
    },
}

impl fmt::Display for FemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FemError::Mesh(e) => write!(f, "mesh error: {e}"),
            FemError::Sparse(e) => write!(f, "sparse error: {e}"),
            FemError::DegenerateElement { volume } => {
                write!(f, "degenerate element (volume {volume:.3e})")
            }
            FemError::Unconstrained => {
                write!(f, "system has no Dirichlet boundary conditions (singular)")
            }
            FemError::ConstrainedNodeOutOfRange { node, ndof } => {
                write!(f, "constrained node {node} out of range for {ndof} DOFs")
            }
            FemError::BcSetMismatch { expected, got } => {
                write!(f, "BC set has {got} constrained DOFs, context expects {expected}")
            }
            FemError::MissingBcValue { node } => {
                write!(f, "node {node} is in the constrained set but has no prescribed value")
            }
            FemError::MatrixShapeMismatch { rows, equations } => {
                write!(f, "stiffness matrix has {rows} rows, mesh has {equations} equations")
            }
            FemError::SeedLengthMismatch { len, unknowns } => {
                write!(f, "warm-start seed has {len} entries, context has {unknowns} unknowns")
            }
            FemError::LoadVectorMismatch { len, equations } => {
                write!(f, "load vector has {len} entries, mesh has {equations} equations")
            }
            FemError::NodalFieldMismatch { len, nodes } => {
                write!(f, "displacement vector has {len} entries, mesh has {nodes} nodes")
            }
            FemError::CpuCountOutOfRange { cpus, max } => {
                write!(f, "simulated run on {cpus} CPUs, valid counts are 1..={max}")
            }
        }
    }
}

impl std::error::Error for FemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FemError::Mesh(e) => Some(e),
            FemError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MeshError> for FemError {
    fn from(e: MeshError) -> Self {
        FemError::Mesh(e)
    }
}

impl From<SparseError> for FemError {
    fn from(e: SparseError) -> Self {
        FemError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_lower_layers_with_source() {
        let e = FemError::from(SparseError::SingularBlock { block: 1, rows: (0, 3), shifted: true });
        assert!(e.to_string().contains("singular"));
        assert!(std::error::Error::source(&e).is_some());
        let e = FemError::from(MeshError::InvertedTet { tet: 0, volume: -1.0 });
        assert!(matches!(e, FemError::Mesh(_)));
    }
}

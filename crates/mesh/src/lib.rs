//! # brainshift-mesh
//!
//! Tetrahedral meshing substrate: the paper's labeled-volume mesh
//! generator ("the volumetric counterpart of a marching tetrahedra surface
//! generation algorithm", Ferrant et al.), the unstructured tet mesh the
//! FEM runs on, boundary-surface extraction for the active-surface stage,
//! and per-element quality measures.

#![warn(missing_docs)]

pub mod error;
pub mod generator;
pub mod quality;
pub mod surface_extract;
pub mod tetmesh;
pub mod trisurface;

pub use error::MeshError;
pub use generator::{mesh_labeled_volume, MesherConfig};
pub use surface_extract::{boundary_nodes, extract_boundary, extract_boundary_of};
pub use tetmesh::TetMesh;
pub use trisurface::TriSurface;

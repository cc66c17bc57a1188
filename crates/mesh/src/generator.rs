//! Tetrahedral mesh generation from labeled 3-D medical images.
//!
//! The paper: "we have implemented a tetrahedral mesh generator
//! specifically suited for labeled 3D medical images. The mesh generator
//! can be seen as the volumetric counterpart of a marching tetrahedra
//! surface generation algorithm... for images containing multiple objects,
//! a fully connected and consistent tetrahedral mesh is obtained for every
//! cell. A segmentation of the image indicates the type of anatomical
//! structure the cell belongs to."
//!
//! Implementation: the labeled volume is traversed on a coarsened grid
//! (`step` voxels per mesh cell — "mesh elements that cover several image
//! pixels"); every grid cell whose content passes the `include` predicate
//! is split into five tetrahedra with alternating parity so faces of
//! neighboring cells match, and each tetrahedron carries the tissue label
//! found at its centroid.

use crate::tetmesh::{signed_volume, TetMesh};
use brainshift_imaging::volume::Volume;
use brainshift_imaging::Vec3;
use std::collections::HashMap;

/// Mesher configuration.
#[derive(Debug, Clone)]
pub struct MesherConfig {
    /// Edge length of a mesh cell, in voxels (≥1). Larger steps produce
    /// coarser meshes ("reducing the number of equations to solve").
    pub step: usize,
    /// Labels to include in the mesh (a cell is meshed if the label at any
    /// of its 8 corners, or its centroid, is in this set).
    pub include: fn(u8) -> bool,
}

impl Default for MesherConfig {
    fn default() -> Self {
        MesherConfig { step: 2, include: brainshift_imaging::labels::is_deformable }
    }
}

/// The five-tetrahedra decomposition of a cube, by corner bit-code
/// (bit0 = x, bit1 = y, bit2 = z). Even-parity cells use one diagonal
/// family, odd-parity cells the mirrored one, so shared faces agree.
const TETS_EVEN: [[usize; 4]; 5] = [
    // central tet on even corners {0b000, 0b011, 0b101, 0b110}
    [0b000, 0b011, 0b101, 0b110],
    [0b001, 0b000, 0b011, 0b101],
    [0b010, 0b000, 0b110, 0b011],
    [0b100, 0b000, 0b101, 0b110],
    [0b111, 0b011, 0b110, 0b101],
];
const TETS_ODD: [[usize; 4]; 5] = [
    // central tet on odd corners {0b001, 0b010, 0b100, 0b111}
    [0b001, 0b010, 0b100, 0b111],
    [0b000, 0b001, 0b010, 0b100],
    [0b011, 0b001, 0b111, 0b010],
    [0b101, 0b001, 0b100, 0b111],
    [0b110, 0b010, 0b111, 0b100],
];

/// Generate a tetrahedral mesh from a labeled volume.
///
/// ```
/// use brainshift_imaging::{Volume, Dims, Spacing, labels};
/// use brainshift_mesh::{mesh_labeled_volume, MesherConfig};
/// let seg = Volume::from_fn(Dims::new(4, 4, 4), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
/// let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
/// assert!(mesh.validate().is_ok());
/// assert_eq!(mesh.num_tets(), 4 * 4 * 4 * 5); // five tets per cell
/// ```
pub fn mesh_labeled_volume(seg: &Volume<u8>, cfg: &MesherConfig) -> TetMesh {
    assert!(cfg.step >= 1);
    let d = seg.dims();
    let sp = seg.spacing();
    let step = cfg.step;
    // Grid of mesh vertices: every `step` voxels, inclusive of the end.
    let gx = d.nx / step;
    let gy = d.ny / step;
    let gz = d.nz / step;
    assert!(gx >= 1 && gy >= 1 && gz >= 1, "volume too small for step {step}");

    let mut node_of: HashMap<(usize, usize, usize), usize> = HashMap::new();
    let mut mesh = TetMesh::empty();

    let vertex_world = |i: usize, j: usize, k: usize| -> Vec3 {
        Vec3::new(
            (i * step) as f64 * sp.dx,
            (j * step) as f64 * sp.dy,
            (k * step) as f64 * sp.dz,
        )
    };

    // Label sampling with clamping to the volume.
    let label_at_voxel = |x: usize, y: usize, z: usize| -> u8 {
        *seg.get(x.min(d.nx - 1), y.min(d.ny - 1), z.min(d.nz - 1))
    };

    for k in 0..gz {
        for j in 0..gy {
            for i in 0..gx {
                // Cell occupancy: centroid label decides inclusion and the
                // element label; corners give a fallback so thin structures
                // at cell corners still get meshed.
                let cx = i * step + step / 2;
                let cy = j * step + step / 2;
                let cz = k * step + step / 2;
                let centroid_label = label_at_voxel(cx, cy, cz);
                let mut cell_label = centroid_label;
                let mut keep = (cfg.include)(centroid_label);
                if !keep {
                    for bits in 0..8usize {
                        let vx = (i + (bits & 1)) * step;
                        let vy = (j + ((bits >> 1) & 1)) * step;
                        let vz = (k + ((bits >> 2) & 1)) * step;
                        let l = label_at_voxel(vx, vy, vz);
                        if (cfg.include)(l) {
                            keep = true;
                            cell_label = l;
                            break;
                        }
                    }
                }
                if !keep {
                    continue;
                }

                // Node indices of the 8 corners, created on demand (shared
                // across cells → the "fully connected and consistent" mesh).
                let mut corner_nodes = [0usize; 8];
                for (bits, cn) in corner_nodes.iter_mut().enumerate() {
                    let key = (i + (bits & 1), j + ((bits >> 1) & 1), k + ((bits >> 2) & 1));
                    *cn = *node_of.entry(key).or_insert_with(|| {
                        mesh.nodes.push(vertex_world(key.0, key.1, key.2));
                        mesh.nodes.len() - 1
                    });
                }

                let parity = (i + j + k) % 2;
                let table = if parity == 0 { &TETS_EVEN } else { &TETS_ODD };
                for tet_bits in table {
                    let mut tet = [
                        corner_nodes[tet_bits[0]],
                        corner_nodes[tet_bits[1]],
                        corner_nodes[tet_bits[2]],
                        corner_nodes[tet_bits[3]],
                    ];
                    // Enforce positive orientation.
                    let v = signed_volume(
                        mesh.nodes[tet[0]],
                        mesh.nodes[tet[1]],
                        mesh.nodes[tet[2]],
                        mesh.nodes[tet[3]],
                    );
                    if v < 0.0 {
                        tet.swap(2, 3);
                    }
                    // Per-tet label from the tet centroid voxel.
                    let c = (mesh.nodes[tet[0]] + mesh.nodes[tet[1]] + mesh.nodes[tet[2]] + mesh.nodes[tet[3]]) * 0.25;
                    let lx = (c.x / sp.dx).round().max(0.0) as usize;
                    let ly = (c.y / sp.dy).round().max(0.0) as usize;
                    let lz = (c.z / sp.dz).round().max(0.0) as usize;
                    let mut l = label_at_voxel(lx, ly, lz);
                    if !(cfg.include)(l) {
                        l = cell_label;
                    }
                    mesh.tets.push(tet);
                    mesh.tet_labels.push(l);
                }
            }
        }
    }
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::labels;
    use brainshift_imaging::phantom::{generate_preop, PhantomConfig};
    use brainshift_imaging::volume::{Dims, Spacing};

    fn block_volume() -> Volume<u8> {
        // A 8x8x8 volume with a 4³ block of BRAIN in the middle.
        Volume::from_fn(Dims::new(8, 8, 8), Spacing::iso(1.0), |x, y, z| {
            if (2..6).contains(&x) && (2..6).contains(&y) && (2..6).contains(&z) {
                labels::BRAIN
            } else {
                labels::BACKGROUND
            }
        })
    }

    #[test]
    fn meshes_block_with_valid_tets() {
        let seg = block_volume();
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        assert!(mesh.num_tets() > 0);
        assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());
        // All labels should be BRAIN.
        assert!(mesh.tet_labels.iter().all(|&l| l == labels::BRAIN));
    }

    #[test]
    fn cell_volume_is_preserved() {
        // 5 tets of a cube tile it exactly: total mesh volume = number of
        // meshed cells × cell volume.
        let seg = block_volume();
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        // Interior cells: a 4³ block has cells whose centroid lies in the
        // block; with step 1, centroid of cell (i..i+1) is at i + 0.5 → use
        // the label at rounded coordinates. Rather than counting exactly,
        // check the volume is a positive multiple of the cell volume.
        let v: f64 = (0..mesh.num_tets()).map(|t| mesh.tet_volume(t)).sum();
        assert!(v > 0.0);
        let cells = v / 1.0;
        assert!((cells - cells.round()).abs() < 1e-9, "volume {v} not integral");
    }

    #[test]
    fn faces_are_conforming() {
        // Every interior face must be shared by exactly 2 tets; boundary
        // faces by exactly 1. Any other count means non-conforming.
        let seg = block_volume();
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let mut face_count: HashMap<[usize; 3], usize> = HashMap::new();
        for tet in &mesh.tets {
            for f in [[tet[0], tet[1], tet[2]], [tet[0], tet[1], tet[3]], [tet[0], tet[2], tet[3]], [tet[1], tet[2], tet[3]]] {
                let mut key = f;
                key.sort_unstable();
                *face_count.entry(key).or_insert(0) += 1;
            }
        }
        for (face, count) in face_count {
            assert!(count == 1 || count == 2, "face {face:?} shared by {count} tets");
        }
    }

    #[test]
    fn step_two_coarsens() {
        let seg = block_volume();
        let fine = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let coarse = mesh_labeled_volume(&seg, &MesherConfig { step: 2, include: labels::is_deformable });
        assert!(coarse.num_nodes() < fine.num_nodes());
        assert!(coarse.num_tets() < fine.num_tets());
        assert!(coarse.validate().is_ok());
    }

    #[test]
    fn phantom_mesh_has_multiple_tissue_labels() {
        let cfg = PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.0),
            ..Default::default()
        };
        let scan = generate_preop(&cfg);
        let mesh = mesh_labeled_volume(&scan.labels, &MesherConfig { step: 2, include: labels::is_deformable });
        assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());
        let mut distinct: Vec<u8> = mesh.tet_labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 2, "only labels {distinct:?}");
        assert!(distinct.contains(&labels::BRAIN));
    }

    #[test]
    fn node_degrees_vary_on_unstructured_boundary() {
        // The paper attributes assembly imbalance to connectivity variance:
        // our mesher's boundary vs interior nodes indeed differ in degree.
        let seg = block_volume();
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let degs: Vec<usize> = mesh.node_adjacency().iter().map(Vec::len).collect();
        let min = degs.iter().min().unwrap();
        let max = degs.iter().max().unwrap();
        assert!(max > min, "degrees uniform: {min}..{max}");
    }

    #[test]
    fn empty_when_nothing_included() {
        let seg: Volume<u8> = Volume::zeros(Dims::new(8, 8, 8), Spacing::iso(1.0));
        let mesh = mesh_labeled_volume(&seg, &MesherConfig::default());
        assert_eq!(mesh.num_tets(), 0);
    }
}

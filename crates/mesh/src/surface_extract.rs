//! Boundary-surface extraction from tetrahedral meshes.
//!
//! Faces belonging to exactly one tetrahedron (or separating differently
//! labeled regions) form the boundary. Each extracted vertex remembers its
//! volumetric node, which lets active-surface displacements be imposed as
//! FEM Dirichlet conditions — the paper's "key concept... apply forces to
//! the volumetric model that will produce the same displacement field at
//! the surfaces as was obtained with the active surface algorithm".

use crate::tetmesh::TetMesh;
use crate::trisurface::TriSurface;
use std::collections::HashMap;

/// The four faces of a tet, each ordered so its outward normal (away from
/// the opposite node) follows the right-hand rule when the tet is
/// positively oriented.
fn tet_faces(tet: &[usize; 4]) -> [([usize; 3], usize); 4] {
    let [a, b, c, d] = *tet;
    [
        // face opposite d, opposite a, opposite b, opposite c
        ([a, c, b], d),
        ([b, c, d], a),
        ([a, d, c], b),
        ([a, b, d], c),
    ]
}

/// Extract the outer boundary of the whole mesh.
pub fn extract_boundary(mesh: &TetMesh) -> TriSurface {
    extract_boundary_of(mesh, |_| true)
}

/// Extract the boundary of the sub-region whose tet labels satisfy
/// `select`: faces owned by exactly one selected tet (with respect to
/// other selected tets) form the surface.
pub fn extract_boundary_of(mesh: &TetMesh, select: impl Fn(u8) -> bool) -> TriSurface {
    // Count selected-region faces.
    let mut face_info: HashMap<[usize; 3], (usize, [usize; 3])> = HashMap::new();
    for (t, tet) in mesh.tets.iter().enumerate() {
        if !select(mesh.tet_labels[t]) {
            continue;
        }
        for (face, _opp) in tet_faces(tet) {
            let mut key = face;
            key.sort_unstable();
            face_info
                .entry(key)
                .and_modify(|e| e.0 += 1)
                .or_insert((1, face));
        }
    }
    let mut vertex_of_node: HashMap<usize, usize> = HashMap::new();
    let mut surf = TriSurface { vertices: Vec::new(), triangles: Vec::new(), mesh_node: Vec::new() };
    let mut boundary_faces: Vec<[usize; 3]> = face_info
        .into_iter()
        .filter(|&(_, (count, _))| count == 1)
        .map(|(_, (_, oriented))| oriented)
        .collect();
    // Deterministic output regardless of hash order.
    boundary_faces.sort_unstable();
    for face in boundary_faces {
        let mut tri = [0usize; 3];
        for (slot, &node) in tri.iter_mut().zip(&face) {
            *slot = *vertex_of_node.entry(node).or_insert_with(|| {
                surf.vertices.push(mesh.nodes[node]);
                surf.mesh_node.push(node);
                surf.vertices.len() - 1
            });
        }
        surf.triangles.push(tri);
    }
    surf
}

/// Indices of the volumetric mesh nodes that lie on the outer boundary.
pub fn boundary_nodes(mesh: &TetMesh) -> Vec<usize> {
    let surf = extract_boundary(mesh);
    let mut nodes: Vec<usize> = surf.mesh_node;
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{mesh_labeled_volume, MesherConfig};
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_imaging::Vec3;

    fn block_mesh(n: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    #[test]
    fn cube_boundary_area() {
        // Mesh of an s³ cube of cells: boundary area = 6 s².
        let mesh = block_mesh(4);
        let surf = extract_boundary(&mesh);
        assert!(surf.validate().is_ok());
        let s = 4.0;
        assert!((surf.area() - 6.0 * s * s).abs() < 1e-9, "area {}", surf.area());
    }

    #[test]
    fn boundary_is_closed() {
        let mesh = block_mesh(3);
        let surf = extract_boundary(&mesh);
        let mut edges: HashMap<(usize, usize), usize> = HashMap::new();
        for tri in &surf.triangles {
            for i in 0..3 {
                let a = tri[i];
                let b = tri[(i + 1) % 3];
                *edges.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
        assert!(edges.values().all(|&c| c == 2), "boundary surface not closed");
    }

    #[test]
    fn normals_point_outward_from_cube() {
        let mesh = block_mesh(3);
        let surf = extract_boundary(&mesh);
        let center = Vec3::splat(1.5);
        let mut outward = 0usize;
        for t in 0..surf.triangles.len() {
            let n = surf.triangle_normal(t);
            let tri = surf.triangles[t];
            let c = (surf.vertices[tri[0]] + surf.vertices[tri[1]] + surf.vertices[tri[2]]) / 3.0;
            if n.dot(c - center) > 0.0 {
                outward += 1;
            }
        }
        assert_eq!(outward, surf.triangles.len(), "some normals point inward");
    }

    #[test]
    fn mesh_node_mapping_valid() {
        let mesh = block_mesh(3);
        let surf = extract_boundary(&mesh);
        for (v, &node) in surf.mesh_node.iter().enumerate() {
            assert!(node < mesh.num_nodes());
            assert!((surf.vertices[v] - mesh.nodes[node]).norm() < 1e-12);
        }
    }

    #[test]
    fn boundary_nodes_of_cube() {
        // 4³ cells → 5³ grid nodes, boundary nodes = 5³ − 3³ interior.
        let mesh = block_mesh(4);
        let bn = boundary_nodes(&mesh);
        assert_eq!(bn.len(), 125 - 27);
    }

    #[test]
    fn labeled_subregion_boundary() {
        // A two-label volume: extract only the inner label's boundary.
        let seg = Volume::from_fn(Dims::new(6, 6, 6), Spacing::iso(1.0), |x, y, z| {
            if (2..4).contains(&x) && (2..4).contains(&y) && (2..4).contains(&z) {
                labels::TUMOR
            } else {
                labels::BRAIN
            }
        });
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let tumor_surf = extract_boundary_of(&mesh, |l| l == labels::TUMOR);
        assert!(!tumor_surf.triangles.is_empty());
        assert!(tumor_surf.validate().is_ok());
        // Tumor sub-surface must be much smaller than the whole boundary.
        let whole = extract_boundary(&mesh);
        assert!(tumor_surf.area() < whole.area());
    }
}

//! Mesh-to-voxel displacement interpolation.
//!
//! The FEM produces displacements at mesh nodes; "for display of the
//! simulated deformation we need to resample a data set according to the
//! computed deformation" — that resampling needs the displacement at every
//! voxel, obtained here by barycentric interpolation within each
//! tetrahedron (the linear shape functions of the paper's Eq. 2).

use crate::error::FemError;
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{DisplacementField, Vec3};
use brainshift_mesh::TetMesh;
use rayon::prelude::*;

/// Interpolate nodal displacements onto a voxel grid. Voxels outside the
/// mesh get zero displacement. `tol` admits voxels slightly outside a tet
/// (barycentric coordinates ≥ −tol) so grid-aligned boundaries are covered.
/// Returns [`FemError::NodalFieldMismatch`] unless there is exactly one
/// displacement per mesh node.
pub fn displacement_field_from_mesh(
    mesh: &TetMesh,
    displacements: &[Vec3],
    dims: Dims,
    spacing: Spacing,
) -> Result<DisplacementField, FemError> {
    if displacements.len() != mesh.num_nodes() {
        return Err(FemError::NodalFieldMismatch {
            len: displacements.len(),
            nodes: mesh.num_nodes(),
        });
    }
    let tol = 1e-9;
    // Scatter per-tet into slabs of z to parallelize without locking:
    // each z-slab is processed independently, scanning the tets whose
    // bounding box intersects it. Precompute tet bounding boxes in voxel
    // coordinates.
    #[derive(Clone, Copy)]
    struct TetBox {
        t: usize,
        z0: usize,
        z1: usize,
    }
    let vox_of = |p: Vec3| Vec3::new(p.x / spacing.dx, p.y / spacing.dy, p.z / spacing.dz);
    let boxes: Vec<TetBox> = (0..mesh.num_tets())
        .filter_map(|t| {
            let tet = mesh.tets[t];
            let mut lo = Vec3::splat(f64::INFINITY);
            let mut hi = Vec3::splat(f64::NEG_INFINITY);
            for &n in &tet {
                let v = vox_of(mesh.nodes[n]);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let z0 = lo.z.ceil().max(0.0) as usize;
            let z1 = (hi.z.floor() as i64).min(dims.nz as i64 - 1);
            if z1 < z0 as i64 {
                return None;
            }
            Some(TetBox { t, z0, z1: z1 as usize })
        })
        .collect();
    // Bucket tets by z-slab.
    let mut by_z: Vec<Vec<usize>> = vec![Vec::new(); dims.nz];
    for b in &boxes {
        for z in b.z0..=b.z1 {
            by_z[z].push(b.t);
        }
    }

    let slab = dims.nx * dims.ny;
    let mut data = vec![Vec3::ZERO; dims.len()];
    data.par_chunks_mut(slab).enumerate().for_each(|(z, out)| {
        for &t in &by_z[z] {
            let tet = mesh.tets[t];
            let p = [
                mesh.nodes[tet[0]],
                mesh.nodes[tet[1]],
                mesh.nodes[tet[2]],
                mesh.nodes[tet[3]],
            ];
            // Voxel-space bounding box in x, y for this tet.
            let mut lo = Vec3::splat(f64::INFINITY);
            let mut hi = Vec3::splat(f64::NEG_INFINITY);
            for &q in &p {
                let v = vox_of(q);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let x0 = lo.x.ceil().max(0.0) as usize;
            let x1 = (hi.x.floor() as i64).min(dims.nx as i64 - 1);
            let y0 = lo.y.ceil().max(0.0) as usize;
            let y1 = (hi.y.floor() as i64).min(dims.ny as i64 - 1);
            if x1 < x0 as i64 || y1 < y0 as i64 {
                continue;
            }
            for y in y0..=(y1 as usize) {
                for x in x0..=(x1 as usize) {
                    let world = Vec3::new(x as f64 * spacing.dx, y as f64 * spacing.dy, z as f64 * spacing.dz);
                    if let Some(w) = brainshift_mesh::tetmesh::barycentric_in(p[0], p[1], p[2], p[3], world) {
                        if w.iter().all(|&wi| wi >= -tol) {
                            let u = displacements[tet[0]] * w[0]
                                + displacements[tet[1]] * w[1]
                                + displacements[tet[2]] * w[2]
                                + displacements[tet[3]] * w[3];
                            out[x + dims.nx * y] = u;
                        }
                    }
                }
            }
        }
    });
    let mut field = DisplacementField::zeros(dims, spacing);
    field.data_mut().copy_from_slice(&data);
    Ok(field)
}

/// Fraction of voxels in `mask_dims` covered by the mesh (diagnostic).
pub fn coverage_fraction(mesh: &TetMesh, dims: Dims, spacing: Spacing) -> f64 {
    let marker: Vec<Vec3> = vec![Vec3::new(1.0, 0.0, 0.0); mesh.num_nodes()];
    let f = displacement_field_from_mesh(mesh, &marker, dims, spacing)
        .expect("marker has one entry per node");
    let covered = f.data().iter().filter(|v| v.x > 0.5).count();
    covered as f64 / dims.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::Volume;
    use brainshift_mesh::{mesh_labeled_volume, MesherConfig};

    fn full_mesh(n: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    #[test]
    fn linear_nodal_field_interpolates_exactly() {
        let n = 4;
        let mesh = full_mesh(n);
        let disp: Vec<Vec3> = mesh
            .nodes
            .iter()
            .map(|p| Vec3::new(0.1 * p.x + 0.2 * p.y, -0.3 * p.z, 0.05 * p.x))
            .collect();
        let dims = Dims::new(n + 1, n + 1, n + 1);
        let f = displacement_field_from_mesh(&mesh, &disp, dims, Spacing::iso(1.0))
            .expect("one displacement per node");
        // Every voxel centre inside the meshed cube must see the linear
        // field exactly.
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let expect = Vec3::new(0.1 * x as f64 + 0.2 * y as f64, -0.3 * z as f64, 0.05 * x as f64);
                    let got = f.get(x, y, z);
                    assert!((got - expect).norm() < 1e-9, "({x},{y},{z}): {got:?}");
                }
            }
        }
    }

    #[test]
    fn outside_mesh_is_zero() {
        let mesh = full_mesh(2);
        let disp = vec![Vec3::new(1.0, 1.0, 1.0); mesh.num_nodes()];
        let dims = Dims::new(10, 10, 10);
        let f = displacement_field_from_mesh(&mesh, &disp, dims, Spacing::iso(1.0))
            .expect("one displacement per node");
        assert_eq!(f.get(9, 9, 9), Vec3::ZERO);
        assert!((f.get(1, 1, 1) - Vec3::new(1.0, 1.0, 1.0)).norm() < 1e-9);
    }

    #[test]
    fn wrong_node_count_is_a_typed_error() {
        let mesh = full_mesh(2);
        let disp = vec![Vec3::ZERO; mesh.num_nodes() - 1];
        let r = displacement_field_from_mesh(&mesh, &disp, Dims::new(3, 3, 3), Spacing::iso(1.0));
        assert!(matches!(r, Err(FemError::NodalFieldMismatch { .. })));
    }

    #[test]
    fn coverage_of_full_cube() {
        let mesh = full_mesh(4);
        // Voxels 0..=4 in each axis are inside the mesh: 5³ of 8³.
        let frac = coverage_fraction(&mesh, Dims::new(8, 8, 8), Spacing::iso(1.0));
        let expect = 125.0 / 512.0;
        assert!((frac - expect).abs() < 0.02, "{frac} vs {expect}");
    }

    #[test]
    fn anisotropic_spacing_respected() {
        let mesh = full_mesh(3); // nodes span 0..3 mm in each axis
        let disp: Vec<Vec3> = mesh.nodes.iter().map(|p| Vec3::new(p.z, 0.0, 0.0)).collect();
        // Grid with dz = 1.5 mm: voxel (0,0,2) is at z = 3.0 mm.
        let f = displacement_field_from_mesh(&mesh, &disp, Dims::new(4, 4, 3), Spacing::new(1.0, 1.0, 1.5))
            .expect("one displacement per node");
        assert!((f.get(0, 0, 2).x - 3.0).abs() < 1e-9);
        assert!((f.get(1, 1, 1).x - 1.5).abs() < 1e-9);
    }
}

//! Mesh-to-voxel displacement interpolation.
//!
//! The FEM produces displacements at mesh nodes; "for display of the
//! simulated deformation we need to resample a data set according to the
//! computed deformation" — that resampling needs the displacement at every
//! voxel, obtained here by barycentric interpolation within each
//! tetrahedron (the linear shape functions of the paper's Eq. 2).

use crate::element::TetShape;
use crate::error::FemError;
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{DisplacementField, Vec3};
use brainshift_mesh::TetMesh;
use rayon::prelude::*;

/// Barycentric admission slack: a voxel slightly outside a tet
/// (coordinates ≥ −`TOL`) still belongs to it, so grid-aligned mesh
/// boundaries are covered.
const TOL: f64 = 1e-9;

/// One covered voxel: which tet's nodes it interpolates, with what weights.
#[derive(Debug, Clone, Copy)]
struct Tap {
    /// Linear index of the voxel in the grid.
    voxel: u32,
    /// The covering tet's four node ids.
    nodes: [u32; 4],
    /// The voxel centre's barycentric coordinates in that tet.
    weights: [f64; 4],
}

/// The voxel → (tet, barycentric weights) map of one mesh on one grid.
///
/// Mesh and grid are fixed for a surgery, so the map is too: it is built
/// once (one traversal of every tet's voxel bounding box, one
/// [`TetShape::shape_values`] solve per candidate voxel) and every scan's
/// resampling is then one weighted sum per covered voxel. A voxel inside
/// several tets (on a shared face) keeps the **last** one in traversal
/// order — ascending tet index within its z-slab — which is what
/// overwriting the output voxel per tet, the formulation this replaces,
/// kept.
#[derive(Debug, Clone)]
pub struct ResamplePlan {
    dims: Dims,
    spacing: Spacing,
    /// Nodes of the mesh the plan was built for.
    nodes: usize,
    /// Covered voxels in ascending voxel order.
    taps: Vec<Tap>,
}

impl ResamplePlan {
    /// Build the map for `mesh` on the `dims` × `spacing` grid.
    pub fn new(mesh: &TetMesh, dims: Dims, spacing: Spacing) -> ResamplePlan {
        let vox_of = |p: Vec3| Vec3::new(p.x / spacing.dx, p.y / spacing.dy, p.z / spacing.dz);
        let corners = |t: usize| mesh.tets[t].map(|n| mesh.nodes[n]);
        // Voxel-space bounding box of a tet, clipped to the grid along
        // one axis; `None` when no voxel centre of that axis is inside.
        let clip = |lo: f64, hi: f64, n: usize| {
            let a = lo.ceil().max(0.0) as usize;
            let b = (hi.floor() as i64).min(n as i64 - 1);
            (b >= a as i64).then_some(a..=b as usize)
        };
        let bbox = |p: &[Vec3; 4]| {
            let mut lo = Vec3::splat(f64::INFINITY);
            let mut hi = Vec3::splat(f64::NEG_INFINITY);
            for &q in p {
                let v = vox_of(q);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (lo, hi)
        };
        // Bucket tets by the z-slabs their bounding box intersects, so
        // each slab is processed independently without locking.
        let mut by_z: Vec<Vec<usize>> = vec![Vec::new(); dims.nz];
        for t in 0..mesh.num_tets() {
            let (lo, hi) = bbox(&corners(t));
            for z in clip(lo.z, hi.z, dims.nz).into_iter().flatten() {
                by_z[z].push(t);
            }
        }

        let slab = dims.nx * dims.ny;
        let taps: Vec<Vec<Tap>> = by_z
            .par_iter()
            .enumerate()
            .map(|(z, tets)| {
                // Last covering tet per voxel of this slab.
                let mut last: Vec<Option<Tap>> = vec![None; slab];
                for &t in tets {
                    let p = corners(t);
                    let (lo, hi) = bbox(&p);
                    let (Some(xs), Some(ys)) = (clip(lo.x, hi.x, dims.nx), clip(lo.y, hi.y, dims.ny))
                    else {
                        continue;
                    };
                    for y in ys {
                        for x in xs.clone() {
                            let world = Vec3::new(
                                x as f64 * spacing.dx,
                                y as f64 * spacing.dy,
                                z as f64 * spacing.dz,
                            );
                            let Some(weights) = TetShape::shape_values(p, world) else {
                                continue;
                            };
                            if weights.iter().all(|&wi| wi >= -TOL) {
                                let i = x + dims.nx * y;
                                last[i] = Some(Tap {
                                    voxel: index_u32(i + slab * z),
                                    nodes: mesh.tets[t].map(index_u32),
                                    weights,
                                });
                            }
                        }
                    }
                }
                last.into_iter().flatten().collect()
            })
            .collect();
        ResamplePlan { dims, spacing, nodes: mesh.num_nodes(), taps: taps.concat() }
    }

    /// Interpolate nodal `displacements` onto the plan's grid. Voxels
    /// outside the mesh get zero displacement. Returns
    /// [`FemError::NodalFieldMismatch`] unless there is exactly one
    /// displacement per node of the mesh the plan was built for.
    pub fn apply(&self, displacements: &[Vec3]) -> Result<DisplacementField, FemError> {
        if displacements.len() != self.nodes {
            return Err(FemError::NodalFieldMismatch { len: displacements.len(), nodes: self.nodes });
        }
        let mut field = DisplacementField::zeros(self.dims, self.spacing);
        let data = field.data_mut();
        for tap in &self.taps {
            let [a, b, c, d] = tap.nodes.map(|n| displacements[n as usize]);
            let w = tap.weights;
            data[tap.voxel as usize] = a * w[0] + b * w[1] + c * w[2] + d * w[3];
        }
        Ok(field)
    }

    /// Voxels of the grid that lie inside the mesh.
    pub fn covered(&self) -> usize {
        self.taps.len()
    }
}

/// Voxel and node indices are stored as `u32` (a grid or mesh past 2³²
/// entries would need a displacement field of over 100 GB).
fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("voxel and node indices fit in 32 bits")
}

/// One-shot form of [`ResamplePlan`]: interpolate nodal displacements
/// onto a voxel grid, building the voxel → tet map for this call only.
/// Voxels outside the mesh get zero displacement. Returns
/// [`FemError::NodalFieldMismatch`] unless there is exactly one
/// displacement per mesh node.
pub fn displacement_field_from_mesh(
    mesh: &TetMesh,
    displacements: &[Vec3],
    dims: Dims,
    spacing: Spacing,
) -> Result<DisplacementField, FemError> {
    ResamplePlan::new(mesh, dims, spacing).apply(displacements)
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
        let frac = ResamplePlan::new(&mesh, Dims::new(8, 8, 8), Spacing::iso(1.0)).covered() as f64 / 512.0;
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

    /// The formulation `ResamplePlan` replaced, kept as the reference:
    /// every tet in ascending order overwrites the voxels it admits (the
    /// old slab-parallel loop visited a voxel's tets in the same order).
    /// Also returns how many tets admitted each voxel.
    fn overwrite_per_tet(
        mesh: &TetMesh,
        displacements: &[Vec3],
        dims: Dims,
        spacing: Spacing,
    ) -> (DisplacementField, Vec<u32>) {
        let mut field = DisplacementField::zeros(dims, spacing);
        let mut admitted = vec![0u32; dims.len()];
        for tet in &mesh.tets {
            let p = tet.map(|n| mesh.nodes[n]);
            for z in 0..dims.nz {
                for y in 0..dims.ny {
                    for x in 0..dims.nx {
                        let world =
                            Vec3::new(x as f64 * spacing.dx, y as f64 * spacing.dy, z as f64 * spacing.dz);
                        let Some(w) = brainshift_mesh::tetmesh::barycentric_in(p[0], p[1], p[2], p[3], world)
                        else {
                            continue;
                        };
                        if w.iter().all(|&wi| wi >= -TOL) {
                            let u = displacements[tet[0]] * w[0]
                                + displacements[tet[1]] * w[1]
                                + displacements[tet[2]] * w[2]
                                + displacements[tet[3]] * w[3];
                            field.set(x, y, z, u);
                            admitted[dims.index(x, y, z)] += 1;
                        }
                    }
                }
            }
        }
        (field, admitted)
    }

    /// An ellipsoidal "brain" on an anisotropic grid, meshed at step 2 so
    /// voxel centres fall on nodes, edges, shared faces and interiors.
    fn anisotropic_phantom() -> (TetMesh, Dims, Spacing) {
        let dims = Dims::new(14, 12, 9);
        let spacing = Spacing::new(0.9, 1.1, 2.5);
        let seg = Volume::from_fn(dims, spacing, |x, y, z| {
            let r = Vec3::new((x as f64 - 6.5) / 6.0, (y as f64 - 5.5) / 5.0, (z as f64 - 4.0) / 4.0);
            if r.norm() < 1.0 { labels::BRAIN } else { labels::BACKGROUND }
        });
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 2, include: labels::is_deformable });
        assert!(mesh.num_tets() > 100, "{} tets", mesh.num_tets());
        (mesh, dims, spacing)
    }

    #[test]
    fn plan_equals_the_overwrite_loop_bit_for_bit_and_keeps_the_last_tet() {
        use rand::{Rng, SeedableRng};
        let (mesh, dims, spacing) = anisotropic_phantom();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let plan = ResamplePlan::new(&mesh, dims, spacing);
        let mut shared_voxels = 0;
        for _ in 0..2 {
            // A rough nodal field: tets sharing a face interpolate it to
            // values that agree only up to rounding, so which tet a voxel
            // keeps is visible in the bits.
            let disp: Vec<Vec3> = (0..mesh.num_nodes())
                .map(|_| Vec3::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
                .collect();
            let (reference, admitted) = overwrite_per_tet(&mesh, &disp, dims, spacing);
            let got = plan.apply(&disp).expect("one displacement per node");
            assert_eq!((got.dims(), got.spacing()), (dims, spacing));
            for (i, (a, b)) in got.data().iter().zip(reference.data()).enumerate() {
                let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
                assert_eq!(bits(a), bits(b), "voxel {i}, admitted by {} tets", admitted[i]);
            }
            assert_eq!(plan.covered(), admitted.iter().filter(|&&n| n > 0).count());
            shared_voxels = admitted.iter().filter(|&&n| n > 1).count();
        }
        assert!(shared_voxels > 0, "no voxel on a shared face: last-writer-wins is not exercised");
        // The per-voxel cost README and DESIGN §17 quote.
        assert_eq!(std::mem::size_of::<Tap>(), 56);
    }

    #[test]
    fn plan_rejects_a_field_for_another_mesh() {
        let (mesh, dims, spacing) = anisotropic_phantom();
        let plan = ResamplePlan::new(&mesh, dims, spacing);
        let r = plan.apply(&vec![Vec3::ZERO; mesh.num_nodes() + 1]);
        match r {
            Err(FemError::NodalFieldMismatch { len, nodes }) => {
                assert_eq!((len, nodes), (mesh.num_nodes() + 1, mesh.num_nodes()));
            }
            other => panic!("expected NodalFieldMismatch, got {other:?}"),
        }
    }
}

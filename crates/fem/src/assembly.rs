//! Global stiffness assembly.
//!
//! The paper assembles `K` in parallel by "sending approximately equal
//! numbers of mesh nodes to each CPU"; because "different mesh nodes can
//! have different connectivity", per-CPU work differs — the assembly load
//! imbalance of §3.2. We provide (a) a real parallel assembly over threads
//! and (b) the per-rank work accounting the simulated cluster prices.

use crate::element::{stiffness_isotropic, TetShape, FLOPS_PER_ELEMENT};
use crate::material::MaterialTable;
use brainshift_mesh::TetMesh;
use brainshift_sparse::{CsrMatrix, TripletBuilder};
use rayon::prelude::*;

/// Assemble the global stiffness matrix `K` (3N × 3N) for a mesh and
/// material table. Degenerate elements are skipped.
pub fn assemble_stiffness(mesh: &TetMesh, materials: &MaterialTable) -> CsrMatrix {
    let ndof = mesh.num_equations();
    // Parallel over chunks of elements, one TripletBuilder per chunk,
    // merged at the end (rayon's data-parallel idiom from the guides).
    let chunk = 2048.max(mesh.num_tets() / (rayon::current_num_threads() * 4).max(1));
    let builders: Vec<TripletBuilder> = mesh
        .tets
        .par_chunks(chunk)
        .zip(mesh.tet_labels.par_chunks(chunk))
        .map(|(tets, tet_labels)| {
            let mut b = TripletBuilder::with_capacity(ndof, ndof, tets.len() * 144);
            for (tet, &label) in tets.iter().zip(tet_labels) {
                let p = [
                    mesh.nodes[tet[0]],
                    mesh.nodes[tet[1]],
                    mesh.nodes[tet[2]],
                    mesh.nodes[tet[3]],
                ];
                let Ok(shape) = TetShape::new(p) else { continue };
                let mat = materials.of(label);
                let ke = stiffness_isotropic(&shape, &mat);
                for (i, &ni) in tet.iter().enumerate() {
                    for (j, &nj) in tet.iter().enumerate() {
                        for a in 0..3 {
                            for c in 0..3 {
                                let v = ke[3 * i + a][3 * j + c];
                                if v != 0.0 {
                                    b.add(3 * ni + a, 3 * nj + c, v);
                                }
                            }
                        }
                    }
                }
            }
            b
        })
        .collect();
    let mut all = TripletBuilder::new(ndof, ndof);
    for b in builders {
        all.merge(b);
    }
    all.build()
}

/// Per-rank assembly work (flops) under a contiguous *node* partition
/// given by `node_offsets` (the paper's decomposition). Each element
/// contributes work to the rank(s) owning its nodes, proportionally —
/// nodes of higher connectivity accumulate more work, reproducing the
/// paper's assembly imbalance.
pub fn assembly_flops_per_rank(mesh: &TetMesh, node_offsets: &[usize]) -> Vec<f64> {
    let p = node_offsets.len() - 1;
    let mut flops = vec![0.0; p];
    let share = FLOPS_PER_ELEMENT / 4.0;
    for tet in &mesh.tets {
        for &n in tet {
            let rank = brainshift_sparse::partition::part_of(node_offsets, n);
            flops[rank] += share;
        }
    }
    flops
}

/// Per-node work weights (flops) for the improved, connectivity-balanced
/// partition the paper proposes as future work.
pub fn node_work_weights(mesh: &TetMesh) -> Vec<f64> {
    let mut w = vec![0.0; mesh.num_nodes()];
    let share = FLOPS_PER_ELEMENT / 4.0;
    for tet in &mesh.tets {
        for &n in tet {
            w[n] += share;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_mesh::{mesh_labeled_volume, MesherConfig};
    use brainshift_sparse::partition::even_offsets;

    pub(crate) fn block_mesh(n: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    #[test]
    fn stiffness_is_symmetric() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        assert_eq!(k.nrows(), mesh.num_equations());
        assert!(k.asymmetry() < 1e-12, "asymmetry {}", k.asymmetry());
    }

    #[test]
    fn rigid_translation_in_null_space() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let n = mesh.num_nodes();
        let mut u = vec![0.0; 3 * n];
        for i in 0..n {
            u[3 * i] = 1.0;
            u[3 * i + 1] = -2.0;
            u[3 * i + 2] = 0.5;
        }
        let mut f = vec![0.0; 3 * n];
        k.spmv(&u, &mut f);
        let fmax = f.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let kmax = k.values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(fmax < 1e-9 * kmax, "rigid translation produced force {fmax}");
    }

    #[test]
    fn diagonal_positive() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        for (i, d) in k.diagonal().iter().enumerate() {
            assert!(*d > 0.0, "diag[{i}] = {d}");
        }
    }

    #[test]
    fn heterogeneous_assembly_changes_matrix() {
        let seg = Volume::from_fn(Dims::new(4, 4, 4), Spacing::iso(1.0), |x, _, _| {
            if x < 2 {
                labels::BRAIN
            } else {
                labels::FALX
            }
        });
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let k_homo = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let k_het = assemble_stiffness(&mesh, &MaterialTable::heterogeneous());
        assert!(k_het.frobenius_norm() > k_homo.frobenius_norm() * 1.5);
    }

    #[test]
    fn per_rank_flops_sum_to_total() {
        let mesh = block_mesh(4);
        let offsets = even_offsets(mesh.num_nodes(), 4);
        let per = assembly_flops_per_rank(&mesh, &offsets);
        let total: f64 = per.iter().sum();
        assert!((total - mesh.num_tets() as f64 * FLOPS_PER_ELEMENT).abs() < 1e-6);
    }

    #[test]
    fn per_rank_flops_are_imbalanced_on_even_node_split() {
        // The paper's observation: equal node counts ≠ equal work.
        let mesh = block_mesh(6);
        let offsets = even_offsets(mesh.num_nodes(), 4);
        let per = assembly_flops_per_rank(&mesh, &offsets);
        let max = per.iter().copied().fold(0.0, f64::max);
        let mean = per.iter().sum::<f64>() / per.len() as f64;
        assert!(max / mean > 1.001, "unexpectedly perfect balance: {per:?}");
    }

    #[test]
    fn weighted_partition_improves_balance() {
        let mesh = block_mesh(6);
        let weights = node_work_weights(&mesh);
        let p = 4;
        let even = even_offsets(mesh.num_nodes(), p);
        let balanced = brainshift_sparse::partition::weighted_offsets(&weights, p);
        let imb_even = brainshift_sparse::partition::imbalance(&weights, &even);
        let imb_bal = brainshift_sparse::partition::imbalance(&weights, &balanced);
        assert!(imb_bal <= imb_even + 1e-12, "{imb_bal} vs {imb_even}");
    }

    #[test]
    fn matrix_sparsity_reasonable() {
        // ~15 neighbors incl. self × 3 DOF → nnz per row well under 100.
        let mesh = block_mesh(5);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let nnz_per_row = k.nnz() as f64 / k.nrows() as f64;
        assert!(nnz_per_row > 10.0 && nnz_per_row < 100.0, "{nnz_per_row}");
    }
}

//! Global stiffness assembly.
//!
//! The paper assembles `K` in parallel by "sending approximately equal
//! numbers of mesh nodes to each CPU"; because "different mesh nodes can
//! have different connectivity", per-CPU work differs — the assembly load
//! imbalance of §3.2. We provide (a) a real parallel assembly over node
//! ranges and (b) the per-rank work accounting the simulated cluster prices.

use crate::element::{stiffness_isotropic, TetShape, FLOPS_PER_ELEMENT};
use crate::material::MaterialTable;
use brainshift_mesh::TetMesh;
use brainshift_sparse::partition::even_offsets;
use brainshift_sparse::CsrMatrix;
use rayon::prelude::*;
use std::ops::Range;

/// Assemble the global stiffness matrix `K` (3N × 3N) for a mesh and
/// material table. Degenerate elements are skipped.
///
/// The nodes are split into one contiguous range per thread, as in the
/// paper, and each range owns the 3×3 node-pair blocks of its own rows.
/// A range walks the tets in ascending order, computes `Kᵉ` for every tet
/// with a node in it (a tet spanning two ranges is computed by both) and
/// adds that tet's nonzero entries of its rows into their blocks. So each
/// value is the sum of its nonzero contributions in ascending tet order —
/// the same bits at any thread count — and an entry is stored if and only
/// if some tet gave it a nonzero contribution, columns ascending.
pub fn assemble_stiffness(mesh: &TetMesh, materials: &MaterialTable) -> CsrMatrix {
    let pattern = NodePattern::new(mesh);
    let slots = 9 * pattern.neighbours.len();
    let mut blocks = vec![0.0; slots];
    let mut touched = vec![false; slots];
    let offsets = even_offsets(mesh.num_nodes(), rayon::current_num_threads());
    let mut ranges = Vec::with_capacity(offsets.len() - 1);
    let (mut blocks_rest, mut touched_rest) = (blocks.as_mut_slice(), touched.as_mut_slice());
    for w in offsets.windows(2) {
        let len = 9 * (pattern.start[w[1]] - pattern.start[w[0]]);
        let (b, b_tail) = blocks_rest.split_at_mut(len);
        let (t, t_tail) = touched_rest.split_at_mut(len);
        ranges.push((w[0]..w[1], b, t));
        (blocks_rest, touched_rest) = (b_tail, t_tail);
    }
    ranges
        .par_iter_mut()
        .for_each(|(nodes, b, t)| scatter_range(mesh, materials, &pattern, nodes.clone(), b, t));
    pattern.compact(&blocks, &touched, &offsets)
}

/// The 3×3-block pattern of `K`: for each node, the sorted nodes that
/// share a tet with it, the node itself included.
struct NodePattern {
    /// `neighbours[start[n]..start[n + 1]]` are node `n`'s neighbours.
    start: Vec<usize>,
    neighbours: Vec<usize>,
}

impl NodePattern {
    fn new(mesh: &TetMesh) -> Self {
        let n = mesh.num_nodes();
        // Node → tet incidence, by counting.
        let mut tet_start = vec![0usize; n + 1];
        for tet in &mesh.tets {
            for &v in tet {
                tet_start[v + 1] += 1;
            }
        }
        for v in 0..n {
            tet_start[v + 1] += tet_start[v];
        }
        let mut fill = tet_start.clone();
        let mut incident = vec![0usize; tet_start[n]];
        for (t, tet) in mesh.tets.iter().enumerate() {
            for &v in tet {
                incident[fill[v]] = t;
                fill[v] += 1;
            }
        }
        // Each node's neighbours, made unique by a stamp, then sorted.
        let mut stamp = vec![usize::MAX; n];
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        let mut neighbours = Vec::new();
        for v in 0..n {
            let first = neighbours.len();
            stamp[v] = v;
            neighbours.push(v);
            for &t in &incident[tet_start[v]..tet_start[v + 1]] {
                for &m in &mesh.tets[t] {
                    if stamp[m] != v {
                        stamp[m] = v;
                        neighbours.push(m);
                    }
                }
            }
            neighbours[first..].sort_unstable();
            start.push(neighbours.len());
        }
        NodePattern { start, neighbours }
    }

    /// CSR of the touched block entries: row `3n + a` lists, for each
    /// neighbour `m` of `n` in order, columns `3m + c` whose slot was
    /// touched. Each node range of `offsets` counts its rows' entries,
    /// takes its slices of `indices` and `values` from the prefix sum of
    /// the counts and writes its own rows, in parallel.
    fn compact(&self, blocks: &[f64], touched: &[bool], offsets: &[usize]) -> CsrMatrix {
        let ndof = 3 * (self.start.len() - 1);
        let mut indptr = vec![0usize; ndof + 1];
        let mut counts = Vec::with_capacity(offsets.len() - 1);
        let mut rest = &mut indptr[1..];
        for w in offsets.windows(2) {
            let (head, tail) = rest.split_at_mut(3 * (w[1] - w[0]));
            counts.push((w[0], head));
            rest = tail;
        }
        counts.par_iter_mut().for_each(|(first, rows)| {
            for (i, count) in rows.iter_mut().enumerate() {
                let (n, a) = (*first + i / 3, i % 3);
                let slots = (self.start[n]..self.start[n + 1]).map(|k| 9 * k + 3 * a);
                *count = slots.map(|s| touched[s..s + 3].iter().filter(|&&t| t).count()).sum();
            }
        });
        for i in 0..ndof {
            indptr[i + 1] += indptr[i];
        }
        let nnz = indptr[ndof];
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut ranges = Vec::with_capacity(offsets.len() - 1);
        let (mut indices_rest, mut values_rest) = (indices.as_mut_slice(), values.as_mut_slice());
        for w in offsets.windows(2) {
            let len = indptr[3 * w[1]] - indptr[3 * w[0]];
            let (i, i_tail) = indices_rest.split_at_mut(len);
            let (v, v_tail) = values_rest.split_at_mut(len);
            ranges.push((w[0]..w[1], i, v));
            (indices_rest, values_rest) = (i_tail, v_tail);
        }
        ranges.par_iter_mut().for_each(|(nodes, indices, values)| {
            let mut p = 0;
            for n in nodes.clone() {
                for a in 0..3 {
                    for k in self.start[n]..self.start[n + 1] {
                        let (s, col) = (9 * k + 3 * a, 3 * self.neighbours[k]);
                        for c in 0..3 {
                            if touched[s + c] {
                                indices[p] = col + c;
                                values[p] = blocks[s + c];
                                p += 1;
                            }
                        }
                    }
                }
            }
        });
        CsrMatrix::from_raw(ndof, ndof, indptr, indices, values)
            .expect("compacted rows have sorted, unique, in-range columns")
    }
}

/// Add the nonzero `Kᵉ` entries of the rows of `nodes` into their blocks,
/// tet by tet in ascending order. `blocks` and `touched` are the slots of
/// those rows, starting at node `nodes.start`'s first block.
fn scatter_range(
    mesh: &TetMesh,
    materials: &MaterialTable,
    pattern: &NodePattern,
    nodes: Range<usize>,
    blocks: &mut [f64],
    touched: &mut [bool],
) {
    let base = pattern.start[nodes.start];
    for (tet, &label) in mesh.tets.iter().zip(&mesh.tet_labels) {
        if !tet.iter().any(|n| nodes.contains(n)) {
            continue;
        }
        let Ok(shape) = TetShape::new(tet.map(|n| mesh.nodes[n])) else { continue };
        let ke = stiffness_isotropic(&shape, &materials.of(label));
        for (i, &ni) in tet.iter().enumerate() {
            if !nodes.contains(&ni) {
                continue;
            }
            let row = pattern.start[ni]..pattern.start[ni + 1];
            let row_neighbours = &pattern.neighbours[row.clone()];
            for (j, nj) in tet.iter().enumerate() {
                // Every node of a tet is in each of its nodes' lists.
                let Ok(k) = row_neighbours.binary_search(nj) else { continue };
                let slot = 9 * (row.start + k - base);
                for a in 0..3 {
                    for c in 0..3 {
                        let v = ke[3 * i + a][3 * j + c];
                        if v != 0.0 {
                            blocks[slot + 3 * a + c] += v;
                            touched[slot + 3 * a + c] = true;
                        }
                    }
                }
            }
        }
    }
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

    pub(crate) fn block_mesh(n: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    #[test]
    fn stiffness_is_symmetric() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        assert_eq!(k.nrows(), mesh.num_equations());
        assert_eq!(k, k.transpose(), "K is not symmetric bit for bit");
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
        let frobenius = |k: &CsrMatrix| k.values().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(frobenius(&k_het) > frobenius(&k_homo) * 1.5);
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

//! Dirichlet boundary conditions by substitution.
//!
//! The paper: "the surface displacements are applied as boundary
//! conditions, substituting known values for equations in the original
//! system, reducing the number of unknowns that must be solved for. This
//! has the effect of creating some imbalance, as the distribution of
//! surface displacements is not equal across CPUs." This module performs
//! exactly that substitution and exposes the per-rank free/constrained
//! counts that drive the solve-phase imbalance in the simulated cluster.

use crate::error::FemError;
use brainshift_imaging::Vec3;
use brainshift_sparse::partition::even_offsets;
use brainshift_sparse::{Block, BsrMatrix, CsrMatrix, SparseError};
use rayon::prelude::*;
use std::collections::HashMap;

/// A set of prescribed nodal displacements.
#[derive(Debug, Clone, Default)]
pub struct DirichletBcs {
    /// node index → prescribed displacement (mm).
    prescribed: HashMap<usize, Vec3>,
}

impl DirichletBcs {
    /// An empty set of boundary conditions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prescribe the displacement of a node (overwrites earlier values).
    pub fn set(&mut self, node: usize, u: Vec3) {
        self.prescribed.insert(node, u);
    }

    /// The prescribed displacement of `node`, if any.
    pub fn get(&self, node: usize) -> Option<Vec3> {
        self.prescribed.get(&node).copied()
    }

    /// Number of constrained nodes.
    pub fn len(&self) -> usize {
        self.prescribed.len()
    }

    /// True when no node is constrained.
    pub fn is_empty(&self) -> bool {
        self.prescribed.is_empty()
    }

    /// Iterate over `(node, displacement)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (usize, Vec3)> + '_ {
        self.prescribed.iter().map(|(&n, &u)| (n, u))
    }

    /// Expand to per-DOF prescribed values (`dof = 3*node + component`).
    pub fn dof_values(&self) -> HashMap<usize, f64> {
        let mut m = HashMap::with_capacity(self.prescribed.len() * 3);
        for (&node, &u) in &self.prescribed {
            m.insert(3 * node, u.x);
            m.insert(3 * node + 1, u.y);
            m.insert(3 * node + 2, u.z);
        }
        m
    }

    /// Constrained node indices, sorted ascending.
    pub fn nodes_sorted(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.prescribed.keys().copied().collect();
        nodes.sort_unstable();
        nodes
    }
}

/// The *structure* of a Dirichlet substitution: which DOFs are free, the
/// free-free block `K_ff`, and the free-constrained coupling block
/// `K_fc`, both in 3×3 node blocks: the substitution constrains whole
/// nodes, so a free node's three rows of `K` are one block row of each.
///
/// In the intraoperative sequence the constrained node set is fixed per
/// surgery (the brain's surface nodes) while the prescribed *values*
/// change on every scan. The structure — and therefore `K_ff` and any
/// preconditioner factored from it — can be built once and reused; each
/// scan only recomputes the load vector `f_f − K_fc·u_c`.
pub struct DirichletStructure {
    /// `K_ff`, the free-free block (the system actually solved).
    pub matrix: BsrMatrix,
    /// `K_fc`, free rows × compact constrained columns: couples
    /// prescribed values into the reduced right-hand side.
    pub coupling: BsrMatrix,
    /// Free DOF indices in original numbering.
    pub free_dofs: Vec<usize>,
    /// Original DOF → reduced index (`usize::MAX` for constrained DOFs).
    pub reduced_of_dof: Vec<usize>,
    /// Compact constrained index → original DOF.
    pub constrained_dofs: Vec<usize>,
}

impl DirichletStructure {
    /// Split `k` along the DOFs of `constrained_nodes` (deduplicated;
    /// order irrelevant). Returns
    /// [`FemError::ConstrainedNodeOutOfRange`] when a node index exceeds
    /// the matrix's DOF count, and a
    /// [`brainshift_sparse::SparseError::InvalidCsr`] when `k` is not a
    /// square matrix of whole nodes.
    pub fn new(k: &CsrMatrix, constrained_nodes: &[usize]) -> Result<Self, FemError> {
        let ndof = k.nrows();
        if !ndof.is_multiple_of(3) || k.ncols() != ndof {
            let reason = format!("a {ndof} × {} stiffness matrix is not three DOFs per node", k.ncols());
            return Err(SparseError::InvalidCsr { reason }.into());
        }
        let mut constrained = vec![false; ndof];
        for &node in constrained_nodes {
            for c in 0..3 {
                let dof = 3 * node + c;
                if dof >= ndof {
                    return Err(FemError::ConstrainedNodeOutOfRange { node, ndof });
                }
                constrained[dof] = true;
            }
        }
        let mut free_dofs = Vec::with_capacity(ndof);
        let mut constrained_dofs = Vec::with_capacity(constrained_nodes.len() * 3);
        let mut reduced_of_dof = vec![usize::MAX; ndof];
        let mut constrained_of_dof = vec![usize::MAX; ndof];
        for (dof, &is_c) in constrained.iter().enumerate() {
            if is_c {
                constrained_of_dof[dof] = constrained_dofs.len();
                constrained_dofs.push(dof);
            } else {
                reduced_of_dof[dof] = free_dofs.len();
                free_dofs.push(dof);
            }
        }
        let nfree = free_dofs.len();
        let nc = constrained_dofs.len();
        // Written block row by block row straight from K's node rows: both
        // DOF maps keep whole nodes in ascending order, so every block row's
        // block columns stay ascending and unique, and each block keeps the
        // values and the pattern of K's node-pair block. Each free node
        // first counts its blocks of each matrix, so every array is
        // allocated once at its size; then each range of free nodes writes
        // its own block rows, in parallel.
        let free_nodes: Vec<usize> = free_dofs.iter().step_by(3).map(|&dof| dof / 3).collect();
        let counts: Vec<[usize; 2]> = free_nodes
            .par_iter()
            .map(|&n| {
                let mut count = [0, 0];
                for m in k.node_blocks(n).columns() {
                    count[usize::from(reduced_of_dof[3 * m] == usize::MAX)] += 1;
                }
                count
            })
            .collect();
        let mut ptr = [vec![0usize], vec![0usize]];
        for c in &counts {
            for (p, &c) in ptr.iter_mut().zip(c) {
                p.push(p[p.len() - 1] + c);
            }
        }
        let mut ff = BlockArrays::zeroed(ptr[0][free_nodes.len()]);
        let mut fc = BlockArrays::zeroed(ptr[1][free_nodes.len()]);
        let offsets = even_offsets(free_nodes.len(), rayon::current_num_threads());
        let mut ranges = Vec::with_capacity(offsets.len() - 1);
        let (mut ff_rest, mut fc_rest) = (ff.slices(), fc.slices());
        for w in offsets.windows(2) {
            let (ff_here, ff_tail) = ff_rest.split_at(ptr[0][w[1]] - ptr[0][w[0]]);
            let (fc_here, fc_tail) = fc_rest.split_at(ptr[1][w[1]] - ptr[1][w[0]]);
            ranges.push((&free_nodes[w[0]..w[1]], ff_here, fc_here));
            (ff_rest, fc_rest) = (ff_tail, fc_tail);
        }
        ranges.par_iter_mut().for_each(|(nodes, ff, fc)| {
            let (mut p, mut q) = (0, 0);
            for &n in nodes.iter() {
                for (m, block, mask) in k.node_blocks(n) {
                    match reduced_of_dof[3 * m] {
                        usize::MAX => {
                            fc.set(q, constrained_of_dof[3 * m] / 3, block, mask);
                            q += 1;
                        }
                        rc => {
                            ff.set(p, rc / 3, block, mask);
                            p += 1;
                        }
                    }
                }
            }
        });
        let [ff_ptr, fc_ptr] = ptr;
        Ok(DirichletStructure {
            matrix: BsrMatrix::from_raw(nfree, nfree, ff_ptr, ff.indices, ff.blocks, ff.mask)?,
            coupling: BsrMatrix::from_raw(nfree, nc, fc_ptr, fc.indices, fc.blocks, fc.mask)?,
            free_dofs,
            reduced_of_dof,
            constrained_dofs,
        })
    }

    /// Number of free (solved-for) DOFs.
    pub fn num_free(&self) -> usize {
        self.free_dofs.len()
    }

    /// Heap footprint of the reduced blocks and DOF maps, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.matrix.memory_bytes()
            + self.coupling.memory_bytes()
            + std::mem::size_of_val(self.free_dofs.as_slice())
            + std::mem::size_of_val(self.reduced_of_dof.as_slice())
            + std::mem::size_of_val(self.constrained_dofs.as_slice())
    }

    /// Number of constrained DOFs.
    pub fn num_constrained(&self) -> usize {
        self.constrained_dofs.len()
    }

    /// Turn the prescribed values of `bcs` into the reduced right-hand
    /// side of one solve: gather them into the compact constrained vector
    /// `u_c` (length [`Self::num_constrained`]), then write
    /// `rhs = f_f − K_fc·u_c` (length [`Self::num_free`]), with the load
    /// vector `f` in original DOF numbering. `None` is the zero-load
    /// shortcut `rhs = −(K_fc·u_c)`, which differs from an explicit zero
    /// load only in the sign of zero entries: `−0.0` where `0.0 − 0.0`
    /// gives `+0.0`.
    ///
    /// Returns [`FemError::BcSetMismatch`] when `bcs` constrains another
    /// number of DOFs than this structure or `u_c` has the wrong length,
    /// [`FemError::MissingBcValue`] when a constrained node carries no
    /// prescribed displacement, [`FemError::LoadVectorMismatch`] when
    /// `loads` does not hold one entry per DOF, and a
    /// [`brainshift_sparse::SparseError::DimensionMismatch`] when `rhs`
    /// has the wrong length.
    pub fn rhs_into(
        &self,
        bcs: &DirichletBcs,
        loads: Option<&[f64]>,
        u_c: &mut [f64],
        rhs: &mut [f64],
    ) -> Result<(), FemError> {
        let nc = self.constrained_dofs.len();
        for got in [3 * bcs.len(), u_c.len()] {
            if got != nc {
                return Err(FemError::BcSetMismatch { expected: nc, got });
            }
        }
        if rhs.len() != self.free_dofs.len() {
            return Err(SparseError::DimensionMismatch {
                what: "rhs",
                expected: self.free_dofs.len(),
                got: rhs.len(),
            }
            .into());
        }
        let ndof = self.reduced_of_dof.len();
        if let Some(f) = loads.filter(|f| f.len() != ndof) {
            return Err(FemError::LoadVectorMismatch { len: f.len(), equations: ndof });
        }
        for (ci, &dof) in self.constrained_dofs.iter().enumerate() {
            let node = dof / 3;
            let u = bcs.get(node).ok_or(FemError::MissingBcValue { node })?;
            u_c[ci] = match dof % 3 {
                0 => u.x,
                1 => u.y,
                _ => u.z,
            };
        }
        self.coupling.spmv(u_c, rhs);
        match loads {
            Some(f) => {
                for (r, &dof) in rhs.iter_mut().zip(&self.free_dofs) {
                    *r = f[dof] - *r;
                }
            }
            None => rhs.iter_mut().for_each(|r| *r = -*r),
        }
        Ok(())
    }

    /// Scatter a reduced solution plus the prescribed values into a full
    /// DOF vector.
    pub fn expand_solution_into(&self, x_reduced: &[f64], u_c: &[f64], full: &mut [f64]) {
        debug_assert_eq!(x_reduced.len(), self.free_dofs.len());
        debug_assert_eq!(full.len(), self.reduced_of_dof.len());
        for (i, &dof) in self.free_dofs.iter().enumerate() {
            full[dof] = x_reduced[i];
        }
        for (ci, &dof) in self.constrained_dofs.iter().enumerate() {
            full[dof] = u_c[ci];
        }
    }

    /// Per-rank counts of (free, constrained) DOFs under contiguous DOF
    /// offsets — the quantity the paper blames for solver imbalance.
    pub fn rank_dof_counts(&self, dof_offsets: &[usize]) -> Vec<(usize, usize)> {
        let p = dof_offsets.len() - 1;
        let mut counts = vec![(0usize, 0usize); p];
        for (dof, &red) in self.reduced_of_dof.iter().enumerate() {
            let rank = brainshift_sparse::partition::part_of(dof_offsets, dof);
            if red != usize::MAX {
                counts[rank].0 += 1;
            } else {
                counts[rank].1 += 1;
            }
        }
        counts
    }
}

/// The block arrays of a node-blocked matrix being written.
struct BlockArrays {
    indices: Vec<u32>,
    blocks: Vec<Block>,
    mask: Vec<u16>,
}

impl BlockArrays {
    fn zeroed(n: usize) -> Self {
        BlockArrays { indices: vec![0; n], blocks: vec![[0.0; 9]; n], mask: vec![0; n] }
    }

    fn slices(&mut self) -> BlockSlices<'_> {
        BlockSlices { indices: &mut self.indices, blocks: &mut self.blocks, mask: &mut self.mask }
    }
}

/// One node range's share of [`BlockArrays`].
struct BlockSlices<'a> {
    indices: &'a mut [u32],
    blocks: &'a mut [Block],
    mask: &'a mut [u16],
}

impl<'a> BlockSlices<'a> {
    fn split_at(self, n: usize) -> (Self, Self) {
        let (i, i_tail) = self.indices.split_at_mut(n);
        let (b, b_tail) = self.blocks.split_at_mut(n);
        let (m, m_tail) = self.mask.split_at_mut(n);
        (BlockSlices { indices: i, blocks: b, mask: m }, BlockSlices { indices: i_tail, blocks: b_tail, mask: m_tail })
    }

    fn set(&mut self, p: usize, col: usize, block: Block, mask: u16) {
        self.indices[p] = u32::try_from(col).unwrap_or(u32::MAX);
        self.blocks[p] = block;
        self.mask[p] = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::assemble_stiffness;
    use crate::material::MaterialTable;
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig, TetMesh};
    use brainshift_sparse::TripletBuilder;

    fn block_mesh(n: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    /// The structure along the node set of `bcs`, its prescribed values
    /// and its reduced right-hand side under an explicit zero load.
    fn reduce(k: &CsrMatrix, bcs: &DirichletBcs) -> (DirichletStructure, Vec<f64>, Vec<f64>) {
        let s = DirichletStructure::new(k, &bcs.nodes_sorted()).expect("valid constrained set");
        let mut u_c = vec![0.0; s.num_constrained()];
        let mut rhs = vec![0.0; s.num_free()];
        s.rhs_into(bcs, Some(&vec![0.0; k.nrows()]), &mut u_c, &mut rhs).expect("complete BC values");
        (s, u_c, rhs)
    }

    fn fixed_surface(mesh: &TetMesh) -> DirichletBcs {
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(mesh).iter() {
            bcs.set(n, Vec3::ZERO);
        }
        bcs
    }

    #[test]
    fn reduction_removes_constrained_dofs() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let bcs = fixed_surface(&mesh);
        let (s, _, _) = reduce(&k, &bcs);
        assert_eq!(s.matrix.nrows(), k.nrows() - 3 * bcs.len());
        assert_eq!(s.free_dofs.len(), s.matrix.nrows());
    }

    #[test]
    fn zero_bc_zero_rhs_solution_is_zero() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let (s, u_c, rhs) = reduce(&k, &fixed_surface(&mesh));
        assert!(rhs.iter().all(|&v| v == 0.0));
        let mut full = vec![f64::NAN; k.nrows()];
        s.expand_solution_into(&vec![0.0; s.num_free()], &u_c, &mut full);
        assert!(full.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn expand_restores_prescribed_values() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let mut bcs = DirichletBcs::new();
        bcs.set(0, Vec3::new(1.0, 2.0, 3.0));
        let (s, u_c, _) = reduce(&k, &bcs);
        let mut full = vec![f64::NAN; k.nrows()];
        s.expand_solution_into(&vec![0.5; s.num_free()], &u_c, &mut full);
        assert_eq!(full[0], 1.0);
        assert_eq!(full[1], 2.0);
        assert_eq!(full[2], 3.0);
        assert_eq!(full[3], 0.5);
    }

    #[test]
    fn reduced_matrix_stays_symmetric() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let mut bcs = DirichletBcs::new();
        for (i, &n) in boundary_nodes(&mesh).iter().enumerate() {
            if i % 2 == 0 {
                bcs.set(n, Vec3::new(0.1, 0.0, 0.0));
            }
        }
        let (s, _, _) = reduce(&k, &bcs);
        let kff = s.matrix.to_csr();
        assert_eq!(kff, kff.transpose(), "K_ff is not symmetric bit for bit");
    }

    #[test]
    fn nonzero_bc_contributes_to_rhs() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let mut bcs = DirichletBcs::new();
        bcs.set(0, Vec3::new(1.0, 0.0, 0.0));
        let (_, _, rhs) = reduce(&k, &bcs);
        let rhs_norm: f64 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rhs_norm > 0.0, "coupling to prescribed DOF must load the rhs");
    }

    #[test]
    fn rank_counts_reflect_surface_concentration() {
        // In a contiguous node ordering from our mesher, surface nodes are
        // *not* evenly spread across ranks — the paper's solve imbalance.
        let mesh = block_mesh(5);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let (s, _, _) = reduce(&k, &fixed_surface(&mesh));
        let offsets = brainshift_sparse::partition::even_offsets(k.nrows(), 4);
        let counts = s.rank_dof_counts(&offsets);
        let frees: Vec<usize> = counts.iter().map(|c| c.0).collect();
        let min = *frees.iter().min().unwrap();
        let max = *frees.iter().max().unwrap();
        assert!(max > min, "free DOFs unexpectedly uniform: {frees:?}");
        // Total conserved.
        let total: usize = counts.iter().map(|c| c.0 + c.1).sum();
        assert_eq!(total, k.nrows());
    }

    #[test]
    fn structure_splits_k_exactly() {
        // K_ff x_f + K_fc u_c must reproduce K u on the free rows for any
        // assignment of free/constrained values.
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let ndof = k.nrows();
        let surface = boundary_nodes(&mesh);
        let s = DirichletStructure::new(&k, &surface).expect("valid constrained set");
        assert_eq!(s.num_free() + s.num_constrained(), ndof);

        let full: Vec<f64> = (0..ndof).map(|d| ((d as f64) * 0.37).sin()).collect();
        let x_f: Vec<f64> = s.free_dofs.iter().map(|&d| full[d]).collect();
        let u_c: Vec<f64> = s.constrained_dofs.iter().map(|&d| full[d]).collect();

        let mut k_full = vec![0.0; ndof];
        k.spmv(&full, &mut k_full);
        let mut kff_x = vec![0.0; s.num_free()];
        s.matrix.spmv(&x_f, &mut kff_x);
        let mut kfc_u = vec![0.0; s.num_free()];
        s.coupling.spmv(&u_c, &mut kfc_u);
        for (i, &dof) in s.free_dofs.iter().enumerate() {
            assert!(
                (kff_x[i] + kfc_u[i] - k_full[dof]).abs() < 1e-10,
                "row {i}: split product diverges from full product"
            );
        }
    }

    #[test]
    fn zero_load_shortcut_equals_an_explicit_zero_load_up_to_the_sign_of_zero() {
        let mesh = block_mesh(4);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let mut bcs = DirichletBcs::new();
        for (i, &n) in boundary_nodes(&mesh).iter().enumerate() {
            bcs.set(n, Vec3::new(0.1 * i as f64, -0.05, 0.02 * i as f64));
        }
        let (s, u_explicit, explicit) = reduce(&k, &bcs);
        let mut u_c = vec![0.0; s.num_constrained()];
        let mut shortcut = vec![0.0; s.num_free()];
        s.rhs_into(&bcs, None, &mut u_c, &mut shortcut).expect("complete BC values");
        assert_eq!(u_c, u_explicit);
        for (a, b) in shortcut.iter().zip(&explicit) {
            assert!(a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0), "{a} vs {b}");
        }
        // Interior rows with no constrained neighbour are where the two
        // forms differ: `−0.0` from the shortcut, `+0.0` from `0.0 − 0.0`.
        let signed = shortcut.iter().zip(&explicit).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
        assert!(signed > 0, "no zero row: the sign case is not exercised");
    }

    #[test]
    fn rhs_refuses_another_node_set_and_a_short_load_vector() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let bcs = fixed_surface(&mesh);
        let (s, mut u_c, mut rhs) = reduce(&k, &bcs);
        let mut fewer = DirichletBcs::new();
        fewer.set(bcs.nodes_sorted()[0], Vec3::ZERO);
        let r = s.rhs_into(&fewer, None, &mut u_c, &mut rhs);
        assert!(matches!(r, Err(FemError::BcSetMismatch { .. })), "{r:?}");
        // Same count, but one value sits on an interior node.
        let interior = (0..mesh.num_nodes()).find(|&n| bcs.get(n).is_none()).expect("interior node");
        let mut moved = DirichletBcs::new();
        for (n, u) in bcs.iter() {
            moved.set(if n == bcs.nodes_sorted()[0] { interior } else { n }, u);
        }
        let r = s.rhs_into(&moved, None, &mut u_c, &mut rhs);
        assert!(matches!(r, Err(FemError::MissingBcValue { .. })), "{r:?}");
        let r = s.rhs_into(&bcs, Some(&vec![0.0; k.nrows() - 1]), &mut u_c, &mut rhs);
        assert!(matches!(r, Err(FemError::LoadVectorMismatch { .. })), "{r:?}");
        let r = s.rhs_into(&bcs, None, &mut u_c, &mut rhs[1..]);
        assert!(matches!(r, Err(FemError::Sparse(SparseError::DimensionMismatch { .. }))), "{r:?}");
    }

    /// The blocks as scalar CSR through a `TripletBuilder` and its sort,
    /// as they were built before the node-block writer.
    fn triplet_blocks(k: &CsrMatrix, s: &DirichletStructure) -> (CsrMatrix, CsrMatrix) {
        let mut constrained_of_dof = vec![usize::MAX; k.nrows()];
        for (ci, &dof) in s.constrained_dofs.iter().enumerate() {
            constrained_of_dof[dof] = ci;
        }
        let mut bff = TripletBuilder::with_capacity(s.num_free(), s.num_free(), k.nnz());
        let mut bfc = TripletBuilder::new(s.num_free(), s.num_constrained());
        for (ri, &dof) in s.free_dofs.iter().enumerate() {
            let (cols, vals) = k.row(dof);
            for (&c, &v) in cols.iter().zip(vals) {
                match s.reduced_of_dof[c] {
                    usize::MAX => bfc.add(ri, constrained_of_dof[c], v),
                    rc => bff.add(ri, rc, v),
                }
            }
        }
        (bff.build(), bfc.build())
    }

    fn assert_bitwise_eq(a: &CsrMatrix, b: &CsrMatrix, what: &str) {
        assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()), "{what}: shape");
        assert_eq!(a.indptr(), b.indptr(), "{what}: indptr");
        assert_eq!(a.indices(), b.indices(), "{what}: indices");
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: value bits");
    }

    #[test]
    fn node_blocks_hold_the_triplet_construction_bit_for_bit() {
        let mesh = block_mesh(4);
        let k = assemble_stiffness(&mesh, &MaterialTable::heterogeneous());
        // Scattered constrained nodes, on the surface and inside, listed
        // out of order and with a repeat.
        let constrained = [97, 3, 40, 62, 3, 118, 11];
        let s = DirichletStructure::new(&k, &constrained).expect("valid constrained set");
        assert_eq!(s.num_constrained(), 3 * 6);
        let (kff, kfc) = triplet_blocks(&k, &s);
        let coupling = s.coupling.to_csr();
        assert_bitwise_eq(&s.matrix.to_csr(), &kff, "K_ff");
        assert_bitwise_eq(&coupling, &kfc, "K_fc");
        assert_eq!((s.matrix.nnz(), s.coupling.nnz()), (kff.nnz(), kfc.nnz()));
        // Both kinds of free row occur: with and without a constrained
        // neighbour (an empty K_fc row).
        let empty = (0..s.num_free()).filter(|&r| coupling.row(r).0.is_empty()).count();
        assert!(0 < empty && empty < s.num_free(), "{empty} of {} K_fc rows empty", s.num_free());

        // No constrained node at all: K_fc has no column.
        let s = DirichletStructure::new(&k, &[]).expect("empty constrained set");
        let (kff, kfc) = triplet_blocks(&k, &s);
        assert_bitwise_eq(&s.matrix.to_csr(), &kff, "K_ff, nothing constrained");
        assert_bitwise_eq(&s.coupling.to_csr(), &kfc, "K_fc, nothing constrained");
        assert_eq!(s.coupling.ncols(), 0);
        // A matrix that is not three DOFs per node is refused.
        let identity4 = CsrMatrix::from_raw(4, 4, (0..=4).collect(), (0..4).collect(), vec![1.0; 4]).unwrap();
        let r = DirichletStructure::new(&identity4, &[0]).err();
        assert!(matches!(r, Some(FemError::Sparse(SparseError::InvalidCsr { .. }))), "{r:?}");
    }

    #[test]
    fn expand_into_round_trips() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let surface = boundary_nodes(&mesh);
        let s = DirichletStructure::new(&k, &surface).expect("valid constrained set");
        let x: Vec<f64> = (0..s.num_free()).map(|i| i as f64).collect();
        let u: Vec<f64> = (0..s.num_constrained()).map(|i| -(i as f64)).collect();
        let mut full = vec![f64::NAN; k.nrows()];
        s.expand_solution_into(&x, &u, &mut full);
        for (i, &dof) in s.free_dofs.iter().enumerate() {
            assert_eq!(full[dof], i as f64);
        }
        for (ci, &dof) in s.constrained_dofs.iter().enumerate() {
            assert_eq!(full[dof], -(ci as f64));
        }
    }

    #[test]
    fn overwriting_bc_takes_last_value() {
        let mut bcs = DirichletBcs::new();
        bcs.set(3, Vec3::new(1.0, 1.0, 1.0));
        bcs.set(3, Vec3::new(2.0, 2.0, 2.0));
        assert_eq!(bcs.len(), 1);
        assert_eq!(bcs.get(3), Some(Vec3::new(2.0, 2.0, 2.0)));
    }
}

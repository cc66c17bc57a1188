//! Simulated-cluster execution of the parallel assembly and solve.
//!
//! This reproduces the paper's §3.2 measurement setup on modeled hardware
//! (DESIGN.md §2): the *numerics* run for real on the host (so iteration
//! counts, convergence and solutions are genuine), while per-rank flop
//! counts and message volumes — extracted from the actual partitioned
//! matrix and mesh — are priced by a [`MachineModel`]. Both of the paper's
//! load-imbalance mechanisms are present by construction:
//!
//! * assembly: equal node counts per CPU but unequal connectivity;
//! * solve: Dirichlet substitution removes unequal numbers of unknowns
//!   from each CPU's contiguous range.

use crate::assembly::assembly_flops_per_rank;
use crate::bc::{DirichletBcs, DirichletStructure};
use crate::error::FemError;
use brainshift_cluster::{MachineModel, SimCluster};
use brainshift_imaging::Vec3;
use brainshift_mesh::TetMesh;
use brainshift_sparse::partition::{even_offsets, part_of};
use brainshift_sparse::{gmres, BlockJacobiPrecond, SolverOptions};

/// Relative-residual tolerance of the real solve (PETSc's default rtol).
const TOLERANCE: f64 = 1e-5;
/// Iteration cap of the real solve.
const MAX_ITERATIONS: usize = 4000;
/// GMRES restart length (PETSc's default); it also bounds the modeled
/// orthogonalization depth.
const RESTART: usize = 30;
/// Voxels of the display volume for the resample-cost model: 256×256×60,
/// the paper's intraoperative MRI.
const RESAMPLE_VOXELS: usize = 256 * 256 * 60;

/// Modeled timings of one assemble+solve on `cpus` CPUs of a machine.
#[derive(Debug, Clone)]
pub struct SimTimings {
    /// Machine model name.
    pub machine: &'static str,
    /// Simulated CPU count.
    pub cpus: usize,
    /// Mesh distribution / setup time (overlappable per the paper).
    pub init_s: f64,
    /// Modeled stiffness-assembly wall-clock, seconds.
    pub assemble_s: f64,
    /// Modeled Krylov-solve wall-clock, seconds.
    pub solve_s: f64,
    /// Resampling the deformed volume (the paper's ~0.5 s step).
    pub resample_s: f64,
    /// GMRES iterations of the (real) solve.
    pub iterations: usize,
    /// Whether the solve reached tolerance.
    pub converged: bool,
    /// max/mean per-rank compute in each phase (1.0 = perfectly balanced).
    pub assembly_imbalance: f64,
    /// max/mean per-rank compute in the solve phase.
    pub solve_imbalance: f64,
    /// Problem sizes for reporting.
    pub total_equations: usize,
    /// Unknowns remaining after Dirichlet substitution.
    pub reduced_equations: usize,
}

impl SimTimings {
    /// The paper's Figure 7 "sum of initialization, assembly and solve".
    pub fn total_s(&self) -> f64 {
        self.init_s + self.assemble_s + self.solve_s
    }
}

/// Run the biomechanical system on a simulated machine with `cpus` CPUs.
///
/// `structure` is the stiffness matrix of `mesh` reduced along the node
/// set of `bcs`, the active-surface displacements; the prescribed values
/// are read from `bcs` on every call. The numerics do not depend on the
/// partition, only the pricing does, so a CPU-count sweep borrows one
/// structure for every point. The real solve is the paper's GMRES with
/// one block-Jacobi block per simulated rank, factored with IC(0) (on the
/// symmetric `K_ff`, the operator of PETSc's default ILU(0)).
///
/// Returns [`FemError::CpuCountOutOfRange`] unless
/// `1 ≤ cpus ≤ min(machine.max_cpus, mesh.num_nodes())`,
/// [`FemError::MatrixShapeMismatch`] when `structure` does not cover the
/// mesh's DOFs, and the errors of [`DirichletStructure::rhs_into`] when
/// `bcs` does not match its node set.
pub fn simulate_assemble_solve(
    mesh: &TetMesh,
    structure: &DirichletStructure,
    bcs: &DirichletBcs,
    machine: MachineModel,
    cpus: usize,
) -> Result<(SimTimings, Vec<Vec3>), FemError> {
    let max = machine.max_cpus.min(mesh.num_nodes());
    if cpus == 0 || cpus > max {
        return Err(FemError::CpuCountOutOfRange { cpus, max });
    }
    let ndof = mesh.num_equations();
    if structure.reduced_of_dof.len() != ndof {
        return Err(FemError::MatrixShapeMismatch {
            rows: structure.reduced_of_dof.len(),
            equations: ndof,
        });
    }
    let nfree = structure.num_free();
    let mut u_c = vec![0.0; structure.num_constrained()];
    let mut rhs = vec![0.0; nfree];
    structure.rhs_into(bcs, None, &mut u_c, &mut rhs)?;

    let machine_name = machine.name;
    let sim = SimCluster::new(machine, cpus);
    let node_offsets = even_offsets(mesh.num_nodes(), cpus);
    let dof_offsets: Vec<usize> = node_offsets.iter().map(|&n| 3 * n).collect();

    // ---- Init phase: distribute mesh from rank 0 (broadcast). ----
    let mesh_bytes = (mesh.num_nodes() * 24 + mesh.num_tets() * 17) as f64;
    let init_comm = if cpus > 1 {
        (cpus as f64).log2().ceil() * sim.machine().interconnect.worst_link(cpus).message(mesh_bytes)
    } else {
        0.0
    };
    // Local setup: index maps etc., ~50 flops per owned node.
    let init_flops: Vec<f64> = node_offsets
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 * 50.0)
        .collect();
    let init_s = sim.phase_cost(&init_flops, init_comm).wall();

    // ---- Assembly phase. ----
    let asm_flops = assembly_flops_per_rank(mesh, &node_offsets);
    // Off-rank element contributions must be communicated (PETSc's stash):
    // count stiffness entries whose row and column live on different ranks.
    let mut cross_entries = 0usize;
    for tet in &mesh.tets {
        for &ni in tet {
            let ri = part_of(&node_offsets, ni);
            for &nj in tet {
                if part_of(&node_offsets, nj) != ri {
                    cross_entries += 9; // 3×3 block
                }
            }
        }
    }
    let asm_comm = if cpus > 1 {
        // Entries are 16 bytes (index + value); spread over pairwise
        // exchanges, bounded by the busiest link.
        sim.machine()
            .interconnect
            .worst_link(cpus)
            .message(cross_entries as f64 * 16.0 / cpus as f64)
            + sim.allreduce_cost(8.0) // final assembly barrier
    } else {
        0.0
    };
    let assemble = sim.phase_cost(&asm_flops, asm_comm);
    let (assemble_s, assembly_imbalance) = (assemble.wall(), assemble.imbalance());

    // ---- Real numerics: the reduced solve on the host. ----
    // Reduced-system block offsets = cumulative free-DOF counts per rank
    // (ranks keep their contiguous ranges; substitution shrinks them
    // unevenly — the paper's solve imbalance).
    let mut red_offsets = Vec::with_capacity(cpus + 1);
    red_offsets.push(0usize);
    {
        let counts = structure.rank_dof_counts(&dof_offsets);
        let mut acc = 0;
        for &(free, _) in &counts {
            acc += free;
            red_offsets.push(acc);
        }
        debug_assert_eq!(acc, nfree);
    }
    // Guard: a rank with zero free DOFs would make an empty block; merge
    // such boundaries (rare, only for tiny meshes).
    red_offsets.dedup();
    let eff_blocks = red_offsets.len() - 1;

    // One incomplete-factorization block per rank, as PETSc defaults.
    let precond = BlockJacobiPrecond::from_offsets(&structure.matrix, &red_offsets)?;
    let mut x = vec![0.0; nfree];
    let solver = SolverOptions {
        tolerance: TOLERANCE,
        max_iterations: MAX_ITERATIONS,
        restart: RESTART,
        ..Default::default()
    };
    let stats = gmres(&structure.matrix, &precond, &rhs, &mut x, &solver)?;
    let mut full = vec![0.0; ndof];
    structure.expand_solution_into(&x, &u_c, &mut full);
    let displacements: Vec<Vec3> = (0..mesh.num_nodes())
        .map(|n| Vec3::new(full[3 * n], full[3 * n + 1], full[3 * n + 2]))
        .collect();

    // ---- Price the solve phase. ----
    // Per-rank local sizes from the real reduced matrix's scalar pattern.
    let kff = structure.matrix.to_csr();
    let mut rank_rows = vec![0usize; eff_blocks];
    let mut rank_nnz = vec![0usize; eff_blocks];
    let mut rank_ghost = vec![std::collections::HashSet::new(); eff_blocks];
    for r in 0..eff_blocks {
        for row in red_offsets[r]..red_offsets[r + 1] {
            rank_rows[r] += 1;
            let (cols, _) = kff.row(row);
            rank_nnz[r] += cols.len();
            for &c in cols {
                let owner = part_of(&red_offsets, c);
                if owner != r {
                    rank_ghost[r].insert(c);
                }
            }
        }
    }
    let iters = stats.iterations.max(1);
    // Mean orthogonalization depth over a restart cycle.
    let depth = ((iters.min(RESTART) + 1) as f64) / 2.0;
    let per_rank_flops: Vec<f64> = (0..eff_blocks)
        .map(|r| {
            let nloc = rank_rows[r] as f64;
            let nnz = rank_nnz[r] as f64;
            let spmv = 2.0 * nnz;
            let precond_apply = 4.0 * nnz; // PETSc ILU(0) fwd/bwd on the local block
            let orth = 4.0 * depth * nloc; // MGS dots + axpys
            let update = 6.0 * nloc;
            iters as f64 * (spmv + precond_apply + orth + update)
        })
        .collect();
    // Per-iteration comm: ghost exchange for SpMV + (depth + 2) allreduces.
    let max_ghost = rank_ghost.iter().map(|g| g.len()).max().unwrap_or(0);
    let max_neighbors = (eff_blocks - 1).min(2); // contiguous split → ~2 neighbors
    let per_iter_comm = sim.neighbor_exchange_cost(max_neighbors, max_ghost as f64 * 8.0)
        + (depth + 2.0) * sim.allreduce_cost(8.0);
    let solve_comm = iters as f64 * per_iter_comm;
    // Pad flops to the full rank count if blocks were merged.
    let mut flops_padded = per_rank_flops.clone();
    flops_padded.resize(cpus, 0.0);
    let solve = sim.phase_cost(&flops_padded, solve_comm);
    let (solve_s, solve_imbalance) = (solve.wall(), solve.imbalance());

    // ---- Resample cost (the ~0.5 s display step). ----
    // ~40 ops per voxel (trilinear + field lookup).
    let resample_flops = RESAMPLE_VOXELS as f64 * 40.0 / cpus as f64;
    let resample_s = sim.phase_cost(&vec![resample_flops; cpus], 0.0).wall();

    Ok((
        SimTimings {
            machine: machine_name,
            cpus,
            init_s,
            assemble_s,
            solve_s,
            resample_s,
            iterations: stats.iterations,
            converged: stats.converged(),
            assembly_imbalance,
            solve_imbalance,
            total_equations: ndof,
            reduced_equations: nfree,
        },
        displacements,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::assemble_stiffness;
    use crate::material::MaterialTable;
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};

    // Shadow the Result-returning entry point: these problems are built
    // consistently, so a refusal is a test bug.
    fn simulate_assemble_solve(
        mesh: &TetMesh,
        structure: &DirichletStructure,
        bcs: &DirichletBcs,
        machine: MachineModel,
        cpus: usize,
    ) -> (SimTimings, Vec<Vec3>) {
        super::simulate_assemble_solve(mesh, structure, bcs, machine, cpus).expect("consistent problem")
    }

    /// A cube of `n`³ voxels (spacing 2 mm) pushed down 1 mm at its top
    /// face and fixed on the rest of its surface, with the homogeneous
    /// stiffness matrix reduced along that surface.
    fn pushed_cube(n: usize) -> (TetMesh, DirichletStructure, DirichletBcs) {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(2.0), |_, _, _| labels::BRAIN);
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let mut bcs = DirichletBcs::new();
        let top = mesh.nodes.iter().map(|p| p.z).fold(f64::NEG_INFINITY, f64::max);
        for &n in boundary_nodes(&mesh).iter() {
            let p = mesh.nodes[n];
            let u = if (p.z - top).abs() < 1e-9 { Vec3::new(0.0, 0.0, -1.0) } else { Vec3::ZERO };
            bcs.set(n, u);
        }
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let structure = DirichletStructure::new(&k, &bcs.nodes_sorted()).expect("surface nodes are mesh nodes");
        (mesh, structure, bcs)
    }

    #[test]
    fn simulation_produces_converged_solve() {
        let (mesh, s, bcs) = pushed_cube(8);
        let (t, disp) = simulate_assemble_solve(&mesh, &s, &bcs, MachineModel::deep_flow(), 4);
        assert!(t.converged);
        assert!(t.iterations > 0);
        assert!(t.assemble_s > 0.0 && t.solve_s > 0.0);
        assert_eq!(disp.len(), mesh.num_nodes());
        // The pushed face moved.
        let max_u = disp.iter().map(|u| u.norm()).fold(0.0, f64::max);
        assert!(max_u >= 1.0 - 1e-6);
    }

    #[test]
    fn more_cpus_reduce_assembly_time() {
        let (mesh, s, bcs) = pushed_cube(8);
        let mut prev = f64::INFINITY;
        for cpus in [1usize, 2, 4, 8] {
            let (t, _) = simulate_assemble_solve(&mesh, &s, &bcs, MachineModel::deep_flow(), cpus);
            assert!(t.assemble_s < prev, "assembly not scaling at {cpus} cpus");
            prev = t.assemble_s;
        }
    }

    #[test]
    fn speedup_is_sublinear_due_to_imbalance_and_comm() {
        // Needs a mesh big enough that compute outweighs Ethernet latency
        // (the same reason the paper measured a 77 511-equation system).
        let (mesh, s, bcs) = pushed_cube(14);
        let run = |machine: MachineModel, cpus| simulate_assemble_solve(&mesh, &s, &bcs, machine, cpus).0;
        let t1 = run(MachineModel::deep_flow(), 1);
        let t8 = run(MachineModel::deep_flow(), 8);
        // Assembly is compute-dominated: real but sub-linear speedup
        // (comm scales with the cut surface, compute with the volume).
        let asm_speedup = t1.assemble_s / t8.assemble_s;
        assert!(asm_speedup > 2.0, "assembly speedup {asm_speedup}");
        assert!(asm_speedup < 8.0, "implausibly ideal: {asm_speedup}");
        assert!(t8.assembly_imbalance > 1.0);
        // On the SMP (cheap collectives) the total time must also drop;
        // on Fast Ethernet a mesh this small is latency-bound, which the
        // full 77k-equation benchmark — not this unit test — exercises.
        let s1 = run(MachineModel::ultra_hpc_6000(), 1);
        let s8 = run(MachineModel::ultra_hpc_6000(), 8);
        let speedup = s1.total_s() / s8.total_s();
        assert!(speedup > 1.5, "no total speedup on SMP: {speedup}");
        assert!(speedup < 8.0);
    }

    #[test]
    fn smp_scales_at_least_as_well_as_ethernet() {
        let (mesh, s, bcs) = pushed_cube(8);
        let run = |machine: MachineModel, cpus| simulate_assemble_solve(&mesh, &s, &bcs, machine, cpus).0;
        // Compare *scaling* (relative to its own 1-CPU run), isolating the
        // interconnect from CPU speed differences.
        let eth1 = run(MachineModel::deep_flow(), 1);
        let eth8 = run(MachineModel::deep_flow(), 8);
        let smp1 = run(MachineModel::ultra_hpc_6000(), 1);
        let smp8 = run(MachineModel::ultra_hpc_6000(), 8);
        let eth_speedup = eth1.solve_s / eth8.solve_s;
        let smp_speedup = smp1.solve_s / smp8.solve_s;
        assert!(
            smp_speedup >= eth_speedup,
            "SMP solve speedup {smp_speedup} < Ethernet {eth_speedup}"
        );
    }

    #[test]
    fn structure_for_another_node_set_or_mesh_is_a_typed_error() {
        let (mesh, s, bcs) = pushed_cube(8);
        let mut fewer = DirichletBcs::new();
        fewer.set(bcs.nodes_sorted()[0], Vec3::ZERO);
        let r = super::simulate_assemble_solve(&mesh, &s, &fewer, MachineModel::deep_flow(), 2);
        assert!(matches!(r, Err(FemError::BcSetMismatch { .. })));
        let (small, _, _) = pushed_cube(4);
        let r = super::simulate_assemble_solve(&small, &s, &bcs, MachineModel::deep_flow(), 2);
        assert!(matches!(r, Err(FemError::MatrixShapeMismatch { .. })));
    }

    #[test]
    fn more_cpus_than_mesh_nodes_is_a_typed_error() {
        // 1×1×2 voxels: 12 nodes, fewer than the SMP's 20 CPUs.
        let seg = Volume::from_fn(Dims::new(1, 1, 2), Spacing::iso(2.0), |_, _, _| labels::BRAIN);
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        assert_eq!(mesh.num_nodes(), 12);
        let mut bcs = DirichletBcs::new();
        bcs.set(0, Vec3::ZERO);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let s = DirichletStructure::new(&k, &bcs.nodes_sorted()).expect("node 0 is a mesh node");
        let r = super::simulate_assemble_solve(&mesh, &s, &bcs, MachineModel::ultra_hpc_6000(), 13);
        assert!(matches!(r, Err(FemError::CpuCountOutOfRange { cpus: 13, max: 12 })), "{r:?}");
    }

    #[test]
    fn resample_cost_is_subsecond_scale() {
        let (mesh, s, bcs) = pushed_cube(8);
        let (t, _) = simulate_assemble_solve(&mesh, &s, &bcs, MachineModel::deep_flow(), 8);
        // The paper quotes ~0.5 s for the resample.
        assert!(t.resample_s < 5.0, "{}", t.resample_s);
        assert!(t.resample_s > 0.0);
    }
}

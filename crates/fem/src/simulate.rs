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

use crate::assembly::{assembly_flops_per_rank, assemble_stiffness};
use crate::bc::{DirichletBcs, DirichletStructure};
use crate::error::FemError;
use crate::material::MaterialTable;
use brainshift_cluster::{MachineModel, SimCluster};
use brainshift_imaging::Vec3;
use brainshift_mesh::TetMesh;
use brainshift_sparse::partition::{even_offsets, part_of};
use brainshift_sparse::{gmres, BlockJacobiPrecond, BlockSolve, CsrMatrix, SolverOptions};

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

/// Options of the simulated run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Krylov solver settings for the real solve.
    pub solver: SolverOptions,
    /// Block-Jacobi sub-solver (ILU(0), as PETSc defaults).
    pub block_solve: BlockSolve,
    /// Voxels of the display volume for the resample-cost model.
    pub resample_voxels: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            solver: SolverOptions { tolerance: 1e-5, max_iterations: 4000, restart: 30, ..Default::default() },
            block_solve: BlockSolve::Ilu0,
            // 256×256×60, the paper's intraoperative MRI.
            resample_voxels: 256 * 256 * 60,
        }
    }
}

/// The assembled-and-reduced elastic problem shared across simulated
/// runs: the full stiffness matrix plus the Dirichlet split (`K_ff`,
/// `K_fc`) for one constrained node set.
///
/// A CPU-count sweep re-prices the same numerics on different modeled
/// machines; assembling and reducing once per sweep (instead of once per
/// point) mirrors the per-surgery [`crate::SolverContext`] and keeps the
/// figure benchmarks fast.
pub struct SimProblem {
    k: CsrMatrix,
    structure: DirichletStructure,
}

impl SimProblem {
    /// Assemble `mesh`/`materials` and reduce along the node set of
    /// `bcs`. The prescribed *values* may change between runs; the node
    /// set may not.
    pub fn new(mesh: &TetMesh, materials: &MaterialTable, bcs: &DirichletBcs) -> Self {
        let k = assemble_stiffness(mesh, materials);
        let structure = DirichletStructure::new(&k, &bcs.nodes_sorted())
            .expect("BC node set out of range for the assembled mesh");
        SimProblem { k, structure }
    }

    /// The assembled global stiffness matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.k
    }

    /// The cached Dirichlet reduction structure.
    pub fn structure(&self) -> &DirichletStructure {
        &self.structure
    }
}

/// Run the biomechanical system on a simulated machine with `cpus` CPUs.
///
/// `bcs` are the active-surface displacements. The assembled + reduced
/// problem may be passed via `prebuilt` to keep sweeps over CPU counts
/// fast (the numerics don't depend on the partition; only the pricing
/// does). A prebuilt problem must have been built for the same mesh and
/// the same constrained node set ([`FemError::BcSetMismatch`] /
/// [`FemError::MissingBcValue`] otherwise); the prescribed values are
/// re-read from `bcs` on every call.
pub fn simulate_assemble_solve(
    mesh: &TetMesh,
    materials: &MaterialTable,
    bcs: &DirichletBcs,
    machine: MachineModel,
    cpus: usize,
    opts: &SimOptions,
    prebuilt: Option<&SimProblem>,
) -> Result<(SimTimings, Vec<Vec3>), FemError> {
    let machine_name = machine.name;
    let sim = SimCluster::new(machine, cpus);
    let ndof = mesh.num_equations();
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
    let init_s = sim.record_phase("init", &init_flops, init_comm);

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
    let assemble_s = sim.record_phase("assemble", &asm_flops, asm_comm);
    let assembly_imbalance = sim.phases().last().expect("phase just recorded").imbalance();

    // ---- Real numerics: assemble + reduce + solve on the host. ----
    let owned_problem;
    let problem = match prebuilt {
        Some(p) => p,
        None => {
            owned_problem = SimProblem::new(mesh, materials, bcs);
            &owned_problem
        }
    };
    let structure = &problem.structure;
    if 3 * bcs.len() != structure.num_constrained() {
        return Err(FemError::BcSetMismatch {
            expected: structure.num_constrained(),
            got: 3 * bcs.len(),
        });
    }
    let nfree = structure.num_free();
    let mut u_c = vec![0.0; structure.num_constrained()];
    structure.gather_constrained(bcs, &mut u_c)?;
    let mut rhs = vec![0.0; nfree];
    structure.reduced_rhs_zero_f(&u_c, &mut rhs);

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

    let precond =
        BlockJacobiPrecond::from_offsets(&structure.matrix, &red_offsets, opts.block_solve)?;
    let mut x = vec![0.0; nfree];
    let stats = gmres(&structure.matrix, &precond, &rhs, &mut x, &opts.solver)?;
    let mut full = vec![0.0; ndof];
    structure.expand_solution_into(&x, &u_c, &mut full);
    let displacements: Vec<Vec3> = (0..mesh.num_nodes())
        .map(|n| Vec3::new(full[3 * n], full[3 * n + 1], full[3 * n + 2]))
        .collect();

    // ---- Price the solve phase. ----
    // Per-rank local sizes from the real reduced matrix.
    let mut rank_rows = vec![0usize; eff_blocks];
    let mut rank_nnz = vec![0usize; eff_blocks];
    let mut rank_ghost = vec![std::collections::HashSet::new(); eff_blocks];
    for r in 0..eff_blocks {
        for row in red_offsets[r]..red_offsets[r + 1] {
            rank_rows[r] += 1;
            let (cols, _) = structure.matrix.row(row);
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
    let restart = opts.solver.restart.max(1);
    // Mean orthogonalization depth over a restart cycle.
    let depth = ((iters.min(restart) + 1) as f64) / 2.0;
    let per_rank_flops: Vec<f64> = (0..eff_blocks)
        .map(|r| {
            let nloc = rank_rows[r] as f64;
            let nnz = rank_nnz[r] as f64;
            let spmv = 2.0 * nnz;
            let precond_apply = 4.0 * nnz; // ILU fwd/bwd on the local block
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
    let solve_s = sim.record_phase("solve", &flops_padded, solve_comm);
    let solve_imbalance = sim.phases().last().expect("phase just recorded").imbalance();

    // ---- Resample cost (the ~0.5 s display step). ----
    // ~40 ops per voxel (trilinear + field lookup).
    let resample_flops = opts.resample_voxels as f64 * 40.0 / cpus as f64;
    let resample_s = sim.record_phase("resample", &vec![resample_flops; cpus], 0.0);

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
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};

    // Shadow the Result-returning entry point: these problems are built
    // consistently, so a refusal is a test bug.
    fn simulate_assemble_solve(
        mesh: &TetMesh,
        materials: &MaterialTable,
        bcs: &DirichletBcs,
        machine: MachineModel,
        cpus: usize,
        opts: &SimOptions,
        prebuilt: Option<&SimProblem>,
    ) -> (SimTimings, Vec<Vec3>) {
        super::simulate_assemble_solve(mesh, materials, bcs, machine, cpus, opts, prebuilt)
            .expect("consistent problem")
    }

    fn test_problem() -> (TetMesh, DirichletBcs) {
        let seg = Volume::from_fn(Dims::new(8, 8, 8), Spacing::iso(2.0), |_, _, _| labels::BRAIN);
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let mut bcs = DirichletBcs::new();
        let (_, hi) = mesh.bounding_box();
        for &n in boundary_nodes(&mesh).iter() {
            let p = mesh.nodes[n];
            if (p.z - hi.z).abs() < 1e-9 {
                bcs.set(n, Vec3::new(0.0, 0.0, -1.0));
            } else {
                bcs.set(n, Vec3::ZERO);
            }
        }
        (mesh, bcs)
    }

    #[test]
    fn simulation_produces_converged_solve() {
        let (mesh, bcs) = test_problem();
        let (t, disp) = simulate_assemble_solve(
            &mesh,
            &MaterialTable::homogeneous(),
            &bcs,
            MachineModel::deep_flow(),
            4,
            &SimOptions::default(),
            None,
        );
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
        let (mesh, bcs) = test_problem();
        let k = SimProblem::new(&mesh, &MaterialTable::homogeneous(), &bcs);
        let mut prev = f64::INFINITY;
        for cpus in [1usize, 2, 4, 8] {
            let (t, _) = simulate_assemble_solve(
                &mesh,
                &MaterialTable::homogeneous(),
                &bcs,
                MachineModel::deep_flow(),
                cpus,
                &SimOptions::default(),
                Some(&k),
            );
            assert!(t.assemble_s < prev, "assembly not scaling at {cpus} cpus");
            prev = t.assemble_s;
        }
    }

    #[test]
    fn speedup_is_sublinear_due_to_imbalance_and_comm() {
        // Needs a mesh big enough that compute outweighs Ethernet latency
        // (the same reason the paper measured a 77 511-equation system).
        let seg = Volume::from_fn(Dims::new(14, 14, 14), Spacing::iso(2.0), |_, _, _| labels::BRAIN);
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let mut bcs = DirichletBcs::new();
        let (_, hi) = mesh.bounding_box();
        for &n in boundary_nodes(&mesh).iter() {
            let p = mesh.nodes[n];
            let u = if (p.z - hi.z).abs() < 1e-9 { Vec3::new(0.0, 0.0, -1.0) } else { Vec3::ZERO };
            bcs.set(n, u);
        }
        let k = SimProblem::new(&mesh, &MaterialTable::homogeneous(), &bcs);
        let run = |machine: MachineModel, cpus| {
            simulate_assemble_solve(
                &mesh,
                &MaterialTable::homogeneous(),
                &bcs,
                machine,
                cpus,
                &SimOptions::default(),
                Some(&k),
            )
            .0
        };
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
        let (mesh, bcs) = test_problem();
        let k = SimProblem::new(&mesh, &MaterialTable::homogeneous(), &bcs);
        let run = |machine: MachineModel, cpus| {
            simulate_assemble_solve(
                &mesh,
                &MaterialTable::homogeneous(),
                &bcs,
                machine,
                cpus,
                &SimOptions::default(),
                Some(&k),
            )
            .0
        };
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
    fn solution_independent_of_prebuilt_matrix() {
        let (mesh, bcs) = test_problem();
        let k = SimProblem::new(&mesh, &MaterialTable::homogeneous(), &bcs);
        let (_, d1) = simulate_assemble_solve(
            &mesh,
            &MaterialTable::homogeneous(),
            &bcs,
            MachineModel::deep_flow(),
            2,
            &SimOptions::default(),
            Some(&k),
        );
        let (_, d2) = simulate_assemble_solve(
            &mesh,
            &MaterialTable::homogeneous(),
            &bcs,
            MachineModel::deep_flow(),
            2,
            &SimOptions::default(),
            None,
        );
        for (a, b) in d1.iter().zip(&d2) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn prebuilt_problem_for_another_node_set_is_a_typed_error() {
        let (mesh, bcs) = test_problem();
        let k = SimProblem::new(&mesh, &MaterialTable::homogeneous(), &bcs);
        let mut fewer = DirichletBcs::new();
        fewer.set(bcs.nodes_sorted()[0], Vec3::ZERO);
        let r = super::simulate_assemble_solve(
            &mesh,
            &MaterialTable::homogeneous(),
            &fewer,
            MachineModel::deep_flow(),
            2,
            &SimOptions::default(),
            Some(&k),
        );
        assert!(matches!(r, Err(FemError::BcSetMismatch { .. })));
    }

    #[test]
    fn resample_cost_is_subsecond_scale() {
        let (mesh, bcs) = test_problem();
        let (t, _) = simulate_assemble_solve(
            &mesh,
            &MaterialTable::homogeneous(),
            &bcs,
            MachineModel::deep_flow(),
            8,
            &SimOptions::default(),
            None,
        );
        // The paper quotes ~0.5 s for the resample.
        assert!(t.resample_s < 5.0, "{}", t.resample_s);
        assert!(t.resample_s > 0.0);
    }
}

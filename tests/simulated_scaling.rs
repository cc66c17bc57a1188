//! Integration: shape invariants of the simulated-cluster timing model —
//! the properties the paper's Figures 7–9 exhibit must hold for any
//! reasonable problem, not just the headline configuration.

use brainshift_bench::problem_with_equations;
use brainshift_cluster::MachineModel;
use brainshift_fem::{simulate_assemble_solve, FemError, SimTimings};
use brainshift_imaging::Vec3;
use brainshift_persist::fnv1a;

fn sweep(machine: MachineModel, cpus: &[usize], eqs: usize) -> Vec<SimTimings> {
    let p = problem_with_equations(eqs);
    let structure = p.structure();
    cpus.iter()
        .map(|&c| {
            simulate_assemble_solve(&p.mesh, &structure, &p.bcs, machine.clone(), c)
                .expect("simulated problem is consistent")
                .0
        })
        .collect()
}

#[test]
fn assembly_time_strictly_decreases_with_cpus() {
    let ts = sweep(MachineModel::deep_flow(), &[1, 2, 4, 8, 16], 20_000);
    for w in ts.windows(2) {
        assert!(
            w[1].assemble_s < w[0].assemble_s,
            "assembly not decreasing: {} → {} at {} cpus",
            w[0].assemble_s,
            w[1].assemble_s,
            w[1].cpus
        );
    }
}

#[test]
fn speedup_sublinear_and_imbalance_present() {
    let ts = sweep(MachineModel::ultra_hpc_6000(), &[1, 4, 8, 16], 20_000);
    let s16 = ts[0].total_s() / ts[3].total_s();
    assert!(s16 > 2.0, "speedup at 16 cpus only {s16}");
    assert!(s16 < 16.0, "superlinear speedup is a model bug: {s16}");
    assert!(ts[3].assembly_imbalance > 1.0);
    assert!(ts[3].solve_imbalance > 1.0);
}

#[test]
fn smp_outscales_ethernet_on_solve() {
    let eth = sweep(MachineModel::deep_flow(), &[1, 8], 20_000);
    let smp = sweep(MachineModel::ultra_hpc_6000(), &[1, 8], 20_000);
    let eth_speedup = eth[0].solve_s / eth[1].solve_s;
    let smp_speedup = smp[0].solve_s / smp[1].solve_s;
    assert!(
        smp_speedup > eth_speedup,
        "SMP {smp_speedup:.2} vs Ethernet {eth_speedup:.2}"
    );
}

#[test]
fn larger_system_takes_proportionally_longer() {
    let small = sweep(MachineModel::ultra_hpc_6000(), &[8], 15_000);
    let large = sweep(MachineModel::ultra_hpc_6000(), &[8], 45_000);
    let ratio = large[0].assemble_s / small[0].assemble_s;
    assert!(
        (2.0..5.0).contains(&ratio),
        "3x equations should be ~3x assembly: ratio {ratio}"
    );
    // Equation counts actually near the targets.
    assert!((large[0].total_equations as f64 / small[0].total_equations as f64) > 2.5);
}

#[test]
fn hierarchical_machine_penalized_only_across_nodes() {
    // Ultra 80 pair: 4 CPUs stay inside one node (cheap), 8 spill onto
    // Ethernet — per-CPU efficiency must drop at the transition.
    let ts = sweep(MachineModel::ultra_80_pair(), &[1, 4, 8], 20_000);
    let eff4 = ts[0].solve_s / (ts[1].solve_s * 4.0);
    let eff8 = ts[0].solve_s / (ts[2].solve_s * 8.0);
    assert!(
        eff8 < eff4,
        "crossing the node boundary should cost efficiency: {eff4:.2} vs {eff8:.2}"
    );
}

#[test]
fn ten_second_claim_at_paper_scale() {
    // The headline: 77k equations, 16 Deep Flow CPUs, under 10 seconds.
    let p = problem_with_equations(77_511);
    let structure = p.structure();
    let (t, _) = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, MachineModel::deep_flow(), 16)
        .expect("simulated problem is consistent");
    assert!(t.converged);
    assert!(
        t.total_s() < 10.0,
        "total {} s at 16 CPUs — the paper's claim fails",
        t.total_s()
    );
    // The paper puts the visualization resample at about half a second.
    assert!(t.resample_s < 0.5, "modeled resample {} s at 16 CPUs", t.resample_s);
    // And 1 CPU must NOT meet the deadline (the parallelism is necessary).
    let (t1, _) = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, MachineModel::deep_flow(), 1)
        .expect("simulated problem is consistent");
    assert!(t1.total_s() > 10.0, "1 CPU already meets the deadline: {}", t1.total_s());
}

/// FNV-1a over the displacement bits, the iteration count, the
/// convergence flag and the bits of every modeled time and imbalance.
fn fig_numerics_hash(t: &SimTimings, displacements: &[Vec3]) -> u64 {
    let mut bytes: Vec<u8> = displacements
        .iter()
        .flat_map(|v| [v.x, v.y, v.z])
        .flat_map(|c| c.to_bits().to_le_bytes())
        .collect();
    bytes.extend((t.iterations as u64).to_le_bytes());
    bytes.push(u8::from(t.converged));
    for s in [t.init_s, t.assemble_s, t.solve_s, t.resample_s, t.assembly_imbalance, t.solve_imbalance] {
        bytes.extend(s.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn figure_numerics_are_bit_identical_to_the_parent() {
    // (machine, CPUs, hash, GMRES iterations), regenerated when the
    // per-rank blocks moved from ILU(0) to IC(0) — the iteration counts
    // did not move, the same operator in other rounding — again when
    // the assembly began summing each entry of `K` in tet order (the
    // iteration counts did not move either), and again when IC(0) moved
    // onto the filled node-block pattern (19 → 14 iterations at 1 CPU,
    // 31 → 29 at 3, 43 at 8); identical at RAYON_NUM_THREADS 1 and 4.
    let golden = [
        (MachineModel::deep_flow(), 1, 0xfd3b_3f3e_63f9_9331u64, 14usize),
        (MachineModel::deep_flow(), 3, 0xdd8b_37d2_29e6_a8e4, 29),
        (MachineModel::deep_flow(), 8, 0x3847_918c_f21e_ba00, 43),
        (MachineModel::ultra_80_pair(), 1, 0xea82_522d_b6d1_cb46, 14),
        (MachineModel::ultra_80_pair(), 3, 0x00d5_ffe6_9e8c_3119, 29),
        (MachineModel::ultra_80_pair(), 8, 0xb2e5_c36d_aa70_5994, 43),
    ];
    let p = problem_with_equations(9_000);
    let structure = p.structure();
    for (machine, cpus, hash, iterations) in golden {
        let name = machine.name;
        let (t, d) = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, machine, cpus)
            .expect("simulated problem is consistent");
        assert_eq!(t.iterations, iterations, "{name} at {cpus} CPUs");
        assert_eq!(fig_numerics_hash(&t, &d), hash, "{name} at {cpus} CPUs: {t:?}");
    }
}

#[test]
fn cpu_count_outside_the_machine_is_a_typed_error() {
    // The 16-CPU Deep Flow cluster: no CPUs and a 17th are refused, where
    // the cluster model used to assert.
    let p = problem_with_equations(9_000);
    let structure = p.structure();
    for cpus in [0, 17] {
        let r = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, MachineModel::deep_flow(), cpus);
        assert!(
            matches!(r, Err(FemError::CpuCountOutOfRange { cpus: c, max: 16 }) if c == cpus),
            "{cpus} CPUs: {:?}",
            r.map(|(t, _)| t)
        );
    }
}

//! Figure 8(a): assembling and solving the 77 511-equation system on the
//! Sun Ultra HPC 6000 (20× 250 MHz UltraSPARC-II, shared memory).

use brainshift_bench::{plot_log_series, print_timing_header, print_timing_row, problem_with_equations};
use brainshift_cluster::MachineModel;
use brainshift_fem::simulate_assemble_solve;

fn main() {
    let p = problem_with_equations(77_511);
    let structure = p.structure();
    print_timing_header(
        "Figure 8a — Ultra HPC 6000 SMP",
        p.mesh.num_equations(),
        MachineModel::ultra_hpc_6000().name,
    );
    let mut asm_series = Vec::new();
    let mut solve_series = Vec::new();
    for cpus in 1..=20 {
        let (t, _) = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, MachineModel::ultra_hpc_6000(), cpus)
            .expect("simulated problem is consistent");
        print_timing_row(&t);
        asm_series.push((cpus, t.assemble_s));
        solve_series.push((cpus, t.solve_s));
    }
    plot_log_series(&[("assemble", asm_series), ("solve", solve_series)], 60);
}

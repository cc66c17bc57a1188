//! Figure 8(b): assembling and solving the 77 511-equation system on two
//! Sun Ultra 80 servers (4× 450 MHz each) networked with Fast Ethernet.

use brainshift_bench::{plot_log_series, print_timing_header, print_timing_row, problem_with_equations};
use brainshift_cluster::MachineModel;
use brainshift_fem::simulate_assemble_solve;

fn main() {
    let p = problem_with_equations(77_511);
    let structure = p.structure();
    print_timing_header(
        "Figure 8b — 2x Ultra 80 over Fast Ethernet",
        p.mesh.num_equations(),
        MachineModel::ultra_80_pair().name,
    );
    let mut asm_series = Vec::new();
    let mut solve_series = Vec::new();
    for cpus in 1..=8 {
        let (t, _) = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, MachineModel::ultra_80_pair(), cpus)
            .expect("simulated problem is consistent");
        print_timing_row(&t);
        asm_series.push((cpus, t.assemble_s));
        solve_series.push((cpus, t.solve_s));
    }
    plot_log_series(&[("assemble", asm_series), ("solve", solve_series)], 60);
}

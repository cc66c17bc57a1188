//! Figure 7: assembling, solving, and init+assemble+solve time for the
//! 77 511-equation brain-deformation system on the 16-CPU Deep Flow
//! cluster (Fast Ethernet), versus CPU count.

use brainshift_bench::{plot_log_series, print_timing_header, print_timing_row, problem_with_equations};
use brainshift_cluster::MachineModel;
use brainshift_fem::simulate_assemble_solve;

fn main() {
    let target = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(77_511);
    let p = problem_with_equations(target);
    let structure = p.structure();
    print_timing_header(
        "Figure 7 — Deep Flow cluster",
        p.mesh.num_equations(),
        MachineModel::deep_flow().name,
    );
    let mut ten_second_cpus = None;
    let mut asm_series = Vec::new();
    let mut solve_series = Vec::new();
    for cpus in 1..=16 {
        let (t, _) = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, MachineModel::deep_flow(), cpus)
            .expect("simulated problem is consistent");
        print_timing_row(&t);
        asm_series.push((cpus, t.assemble_s));
        solve_series.push((cpus, t.solve_s));
        if t.total_s() < 10.0 && ten_second_cpus.is_none() {
            ten_second_cpus = Some(cpus);
        }
    }
    plot_log_series(&[("assemble", asm_series), ("solve", solve_series)], 60);
    match ten_second_cpus {
        Some(c) => println!("\n=> <10 s total from {c} CPUs (paper: \"in less than ten seconds\")"),
        None => println!("\n=> total time never dropped below 10 s"),
    }
}

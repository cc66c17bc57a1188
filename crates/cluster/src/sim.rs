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
use parking_lot::Mutex;

/// Accumulated cost of one bulk-synchronous phase.
#[derive(Debug, Clone)]
pub struct PhaseCost {
    /// Phase name (used by [`SimCluster::wall_of`]).
    pub name: String,
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
/// Thread-safe: phases may be recorded from parallel sections.
pub struct SimCluster {
    machine: MachineModel,
    nranks: usize,
    phases: Mutex<Vec<PhaseCost>>,
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
        SimCluster { machine, nranks, phases: Mutex::new(Vec::new()) }
    }

    /// Number of simulated ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The machine model being simulated.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Record a bulk-synchronous phase given per-rank flop counts and a
    /// pre-priced communication cost. Returns the phase wall-clock.
    pub fn record_phase(&self, name: &str, per_rank_flops: &[f64], comm_seconds: f64) -> f64 {
        assert_eq!(per_rank_flops.len(), self.nranks, "one flop count per rank");
        let cost = PhaseCost {
            name: name.to_string(),
            compute: per_rank_flops.iter().map(|&f| self.machine.cpu.seconds(f)).collect(),
            comm: comm_seconds,
        };
        let wall = cost.wall();
        self.phases.lock().push(cost);
        wall
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

    /// All recorded phases, in order.
    pub fn phases(&self) -> Vec<PhaseCost> {
        self.phases.lock().clone()
    }

    /// Total modeled wall-clock across all recorded phases.
    pub fn total_wall(&self) -> f64 {
        self.phases.lock().iter().map(|p| p.wall()).sum()
    }

    /// Sum of the wall-clock of phases whose name starts with `prefix`.
    pub fn wall_of(&self, prefix: &str) -> f64 {
        self.phases
            .lock()
            .iter()
            .filter(|p| p.name.starts_with(prefix))
            .map(|p| p.wall())
            .sum()
    }

    /// Discard recorded phases (reuse the cluster for another run).
    pub fn reset(&self) {
        self.phases.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_wall_is_max_plus_comm() {
        let c = SimCluster::new(MachineModel::deep_flow(), 4);
        let rate = c.machine().cpu.sustained_flops;
        let w = c.record_phase("assemble", &[rate, 2.0 * rate, rate, rate], 0.5);
        assert!((w - 2.5).abs() < 1e-9, "{w}");
    }

    #[test]
    fn imbalance_factor() {
        let cost = PhaseCost { name: "x".into(), compute: vec![1.0, 1.0, 2.0, 0.0], comm: 0.0 };
        assert!((cost.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn totals_accumulate() {
        let c = SimCluster::new(MachineModel::ultra_hpc_6000(), 2);
        let rate = c.machine().cpu.sustained_flops;
        c.record_phase("assemble", &[rate, rate], 0.0);
        c.record_phase("solve:iter", &[rate, rate], 0.0);
        c.record_phase("solve:iter", &[rate, rate], 0.0);
        assert!((c.total_wall() - 3.0).abs() < 1e-9);
        assert!((c.wall_of("solve") - 2.0).abs() < 1e-9);
        c.reset();
        assert_eq!(c.phases().len(), 0);
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
            walls.push(c.record_phase("work", &per, 0.0));
        }
        assert!((walls[0] / walls[3] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn comm_breaks_scaling() {
        // With per-phase allreduce, speedup saturates below ideal.
        let total_flops = 1e8;
        let c1 = SimCluster::new(MachineModel::deep_flow(), 1);
        let w1 = c1.record_phase("work", &[total_flops], 0.0);
        let c16 = SimCluster::new(MachineModel::deep_flow(), 16);
        let per = vec![total_flops / 16.0; 16];
        let comm = c16.allreduce_cost(8.0) * 100.0; // 100 allreduces
        let w16 = c16.record_phase("work", &per, comm);
        let speedup = w1 / w16;
        assert!(speedup < 16.0);
        assert!(speedup > 1.0);
    }
}

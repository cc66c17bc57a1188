//! Placement and stealing policy shared by the threaded service and the
//! deterministic simulator.
//!
//! The negative-scaling bug this module exists to fix: with one shared
//! run queue, a session's consecutive scans land on whichever worker
//! wins the race, so its warm [`SolverContext`](brainshift_fem::SolverContext)
//! ping-pongs between cores (cold caches, contended locks) and adding a
//! second worker made p95 latency *worse*. The fix is **session
//! affinity**: every session gets a sticky preferred worker at open time
//! and all of its jobs are enqueued on that worker's run queue, so the
//! warm context stays hot on one core. Stealing is the escape hatch for
//! imbalance, and it is deliberately reluctant: a worker may take a job
//! from another worker's queue only when that queue's backlog exceeds a
//! threshold — below it, stickiness wins over instantaneous latency.
//!
//! Both decisions here are pure functions of their inputs, which is
//! what lets the logical-clock simulator drive the *same* policy the
//! threaded service runs and makes its event scripts bit-deterministic.

/// When a non-preferred worker may take a job from another worker's
/// run queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// A queue must hold **more than** this many jobs before another
    /// worker is allowed to steal from it. `0` steals eagerly from any
    /// non-empty queue; large values approach strict affinity.
    pub backlog_threshold: usize,
}

impl Default for StealPolicy {
    fn default() -> Self {
        // One job queued behind the one in flight is the normal cadence
        // of a session; a second queued job means the owner is falling
        // behind and help is cheaper than stickiness.
        StealPolicy { backlog_threshold: 2 }
    }
}

impl StealPolicy {
    /// May a worker steal from a queue currently holding `owner_backlog`
    /// jobs?
    pub fn may_steal(&self, owner_backlog: usize) -> bool {
        owner_backlog > self.backlog_threshold
    }
}

/// The sticky worker a session's jobs are enqueued on: round-robin by
/// session id, so sequentially opened sessions spread evenly across the
/// pool. Identical in the threaded service and the simulator — affinity
/// assertions made on one hold for the other.
pub fn preferred_worker(session: u64, workers: usize) -> usize {
    (session % workers.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_threshold_is_strict() {
        let p = StealPolicy { backlog_threshold: 2 };
        assert!(!p.may_steal(0));
        assert!(!p.may_steal(2));
        assert!(p.may_steal(3));
        let eager = StealPolicy { backlog_threshold: 0 };
        assert!(eager.may_steal(1));
        assert!(!eager.may_steal(0));
    }

    #[test]
    fn preferred_worker_round_robins_and_tolerates_zero_workers() {
        assert_eq!(preferred_worker(1, 4), 1);
        assert_eq!(preferred_worker(5, 4), 1, "sticky across reopen of same id");
        assert_eq!(preferred_worker(4, 4), 0);
        assert_eq!(preferred_worker(7, 1), 0);
        assert_eq!(preferred_worker(7, 0), 0, "clamped, not a division by zero");
    }
}

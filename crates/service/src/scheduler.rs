//! Deadline-aware admission and ordering policy.
//!
//! The queue implements **earliest-deadline-first with aging**: each
//! admitted job gets a static effective key
//!
//! ```text
//! key = deadline + aging_weight × enqueue_time
//! ```
//!
//! and workers always pick the eligible job with the smallest key (ties
//! broken by admission order, which makes the policy a total order and
//! the event log deterministic). With `aging_weight = 0` this is pure
//! EDF. With `aging_weight = w > 0` it is EDF with a starvation bound: a
//! waiting job `i` is preferred over any job `j` submitted more than
//! `(deadline_i − deadline_j) / w` after it, so even a job with a far
//! deadline is scheduled after bounded waiting no matter how many
//! urgent-deadline jobs keep arriving. (Because the key is static, the
//! queue never needs re-sorting — aging is encoded at admission time,
//! not recomputed per poll.)
//!
//! Admission control is explicit and happens *before* enqueueing:
//! a full queue rejects with [`Rejected::QueueFull`], and a deadline
//! closer than the configured minimum service estimate rejects with
//! [`Rejected::DeadlineInfeasible`]. Nothing is admitted that the
//! service already knows it cannot serve.
//!
//! The queue is a pure data structure over logical microseconds — no
//! threads, no clocks — which is what makes the scheduler's contracts
//! property-testable and the simulated event log bit-deterministic. The
//! threaded [`Service`](crate::service::Service) drives the *same* queue
//! under a real clock.

use crate::error::Rejected;

/// Scheduling policy knobs.
#[derive(Debug, Clone)]
pub struct SchedulerPolicy {
    /// Bounded queue capacity; submissions beyond it are rejected
    /// ([`Rejected::QueueFull`]) — explicit backpressure, not OOM.
    pub queue_capacity: usize,
    /// Aging weight `w` in `key = deadline + w × enqueue_time`.
    /// 0 = pure EDF (starvation possible under sustained urgent load);
    /// 1 ≈ deadline and waiting time weighted equally. A waiting job is
    /// guaranteed to be preferred over any job submitted more than
    /// `Δdeadline / w` later.
    pub aging_weight: f64,
    /// Admission floor: a job whose deadline is closer than this (in µs
    /// of queue time) is rejected as infeasible — it could not complete
    /// even if it started immediately.
    pub min_service_us: u64,
    /// Effective-deadline boost per priority level, µs. A job of
    /// priority `p` is keyed as if its deadline were
    /// `deadline − p × priority_boost_us`.
    pub priority_boost_us: u64,
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        SchedulerPolicy {
            queue_capacity: 64,
            aging_weight: 1.0,
            min_service_us: 0,
            priority_boost_us: 1_000_000,
        }
    }
}

/// One queued job, as the scheduler sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedJob {
    /// Service-wide job id.
    pub job: u64,
    /// Session the job belongs to (jobs of one session never run
    /// concurrently — the session owns one mutable solver context).
    pub session: u64,
    /// Absolute deadline, µs on the service clock.
    pub deadline_us: u64,
    /// Priority (higher = more urgent).
    pub priority: u8,
    /// Admission time, µs.
    pub enqueued_us: u64,
    /// Static effective key (computed at admission).
    key: f64,
}

/// The bounded, deadline-ordered ready queue.
#[derive(Debug, Default)]
pub struct DeadlineQueue {
    policy: SchedulerPolicy,
    jobs: Vec<QueuedJob>,
}

impl DeadlineQueue {
    /// An empty queue under `policy`.
    pub fn new(policy: SchedulerPolicy) -> Self {
        DeadlineQueue { policy, jobs: Vec::new() }
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Admission check without enqueueing — lets a caller (the service's
    /// submit path) reject before paying for the job's payload.
    pub fn admission(&self, now_us: u64, deadline_us: u64) -> Result<(), Rejected> {
        if self.jobs.len() >= self.policy.queue_capacity {
            return Err(Rejected::QueueFull { capacity: self.policy.queue_capacity });
        }
        if deadline_us < now_us.saturating_add(self.policy.min_service_us) {
            return Err(Rejected::DeadlineInfeasible);
        }
        Ok(())
    }

    /// Admit a job. Fails with [`Rejected::QueueFull`] /
    /// [`Rejected::DeadlineInfeasible`] per the policy.
    pub fn push(
        &mut self,
        job: u64,
        session: u64,
        deadline_us: u64,
        priority: u8,
        now_us: u64,
    ) -> Result<(), Rejected> {
        self.admission(now_us, deadline_us)?;
        let boosted = deadline_us
            .saturating_sub(u64::from(priority).saturating_mul(self.policy.priority_boost_us));
        let key = boosted as f64 + self.policy.aging_weight * now_us as f64;
        self.jobs.push(QueuedJob {
            job,
            session,
            deadline_us,
            priority,
            enqueued_us: now_us,
            key,
        });
        Ok(())
    }

    /// Pop the eligible job with the smallest effective key; `eligible`
    /// filters out jobs whose session is currently busy on a worker.
    /// Ties break by admission order (smaller job id first), making the
    /// pick deterministic.
    pub fn pop_next(&mut self, eligible: impl Fn(&QueuedJob) -> bool) -> Option<QueuedJob> {
        let mut best: Option<usize> = None;
        for (i, j) in self.jobs.iter().enumerate() {
            if !eligible(j) {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let jb = &self.jobs[b];
                    if (j.key, j.job) < (jb.key, jb.job) {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best.map(|i| self.jobs.remove(i))
    }

    /// Pop ignoring session-eligibility (single-consumer callers).
    pub fn pop_any(&mut self) -> Option<QueuedJob> {
        self.pop_next(|_| true)
    }

    /// Iterate the queued jobs (diagnostics; unordered).
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(capacity: usize, aging: f64) -> DeadlineQueue {
        DeadlineQueue::new(SchedulerPolicy {
            queue_capacity: capacity,
            aging_weight: aging,
            min_service_us: 0,
            priority_boost_us: 0,
        })
    }

    #[test]
    fn pure_edf_pops_earliest_deadline() {
        let mut dq = q(8, 0.0);
        dq.push(0, 1, 300, 0, 0).expect("admit");
        dq.push(1, 2, 100, 0, 0).expect("admit");
        dq.push(2, 3, 200, 0, 0).expect("admit");
        let order: Vec<u64> = std::iter::from_fn(|| dq.pop_any().map(|j| j.job)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn capacity_rejects_with_queue_full() {
        let mut dq = q(2, 0.0);
        dq.push(0, 1, 100, 0, 0).expect("admit");
        dq.push(1, 1, 100, 0, 0).expect("admit");
        assert_eq!(
            dq.push(2, 1, 100, 0, 0),
            Err(Rejected::QueueFull { capacity: 2 })
        );
        // Draining frees capacity again.
        dq.pop_any();
        dq.push(2, 1, 100, 0, 0).expect("admit after drain");
    }

    #[test]
    fn infeasible_deadline_rejected() {
        let mut dq = DeadlineQueue::new(SchedulerPolicy {
            queue_capacity: 8,
            aging_weight: 0.0,
            min_service_us: 50,
            priority_boost_us: 0,
        });
        assert_eq!(dq.push(0, 1, 100, 0, 60), Err(Rejected::DeadlineInfeasible));
        dq.push(0, 1, 111, 0, 60).expect("feasible deadline admitted");
    }

    #[test]
    fn aging_overtakes_later_submissions() {
        // Job 0: far deadline, submitted early. Jobs 1..: near deadlines,
        // submitted later. With w = 1, job 0 must be picked over any job
        // submitted more than (d0 − dj) after it.
        let mut dq = q(16, 1.0);
        dq.push(0, 1, 10_000, 0, 0).expect("admit");
        // Submitted 20 000 µs later with a 1 000 µs-away deadline:
        // key0 = 10 000, key1 = 21 000 → the old far-deadline job wins.
        dq.push(1, 2, 21_000, 0, 20_000).expect("admit");
        assert_eq!(dq.pop_any().map(|j| j.job), Some(0));
    }

    #[test]
    fn priority_boost_jumps_the_line() {
        let mut dq = DeadlineQueue::new(SchedulerPolicy {
            queue_capacity: 8,
            aging_weight: 0.0,
            min_service_us: 0,
            priority_boost_us: 500,
        });
        dq.push(0, 1, 1000, 0, 0).expect("admit");
        dq.push(1, 2, 1200, 1, 0).expect("admit"); // boosted to 700
        assert_eq!(dq.pop_any().map(|j| j.job), Some(1));
    }

    #[test]
    fn busy_sessions_are_skipped_deterministically() {
        let mut dq = q(8, 0.0);
        dq.push(0, 1, 100, 0, 0).expect("admit");
        dq.push(1, 1, 150, 0, 0).expect("admit");
        dq.push(2, 2, 200, 0, 0).expect("admit");
        // Session 1 busy → the earliest eligible job is session 2's.
        assert_eq!(dq.pop_next(|j| j.session != 1).map(|j| j.job), Some(2));
        // Session 1 freed → its jobs drain in deadline order.
        assert_eq!(dq.pop_any().map(|j| j.job), Some(0));
        assert_eq!(dq.pop_any().map(|j| j.job), Some(1));
    }
}

//! Deterministic discrete-event simulator of the serving layer.
//!
//! The threaded [`Service`](crate::service::Service) is nondeterministic
//! by nature (OS scheduling decides which worker wins a wake token), so
//! its contracts — deadline ordering, starvation bounds, affinity and
//! steal gating, cache-budget safety, event-log shape — are verified
//! here instead. [`simulate`] is a second *driver* of the production
//! [`ShardCore`], not a model of it: it owns only the logical clock, one
//! `Running` slot per worker and the outcome bookkeeping, and asks the
//! core for every decision. For a fixed submission script the simulation
//! is bit-deterministic: same admissions, same scheduling order, same
//! evictions, same [`EventLog::script`](crate::EventLog::script), same
//! metric snapshot.
//!
//! Modeling choices (all deterministic): workers are slots, job cost is
//! given per job in logical µs, every session a script names is open from
//! the start, and job ids are script indices. Inside one logical instant
//! completions are processed first, in worker order (capacity frees
//! before the admission check), then submissions in script order, then
//! one dispatch pass over the workers in ascending order.

use crate::cache::CacheStats;
use crate::core::ShardCore;
use crate::dispatch::preferred_worker;
use crate::events::EventLog;
use crate::service::ServiceConfig;
use brainshift_obs::{Clock, Registry, Snapshot};

/// One scripted submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// Session the job belongs to.
    pub session: u64,
    /// Submission time, logical µs.
    pub submit_us: u64,
    /// Absolute deadline, logical µs.
    pub deadline_us: u64,
    /// Priority (higher = more urgent).
    pub priority: u8,
    /// Service time on a worker, logical µs.
    pub cost_us: u64,
    /// Bytes the session's solver context charges against the cache
    /// budget when checked back in.
    pub ctx_bytes: usize,
}

/// Per-job outcome of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOutcome {
    /// Index of the job in the submission script.
    pub script_index: usize,
    /// Session it belonged to.
    pub session: u64,
    /// When it started on a worker (µs), or `None` if rejected.
    pub started_us: Option<u64>,
    /// When it completed (µs), or `None` if rejected.
    pub completed_us: Option<u64>,
    /// Whether it completed after its deadline.
    pub missed_deadline: bool,
    /// Whether its context came warm from the cache.
    pub warm: bool,
    /// Worker (slot) that executed it, or `None` if rejected.
    pub worker: Option<usize>,
    /// Whether it ran on a worker other than its session's preferred one.
    pub stolen: bool,
}

/// One work-stealing decision taken during [`simulate`] — the raw
/// material for the steal-only-under-pressure property test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealRecord {
    /// Index of the stolen job in the submission script.
    pub script_index: usize,
    /// Session the job belonged to.
    pub session: u64,
    /// The preferred worker whose queue it was stolen from.
    pub owner: usize,
    /// The worker that took it.
    pub thief: usize,
    /// The owner queue's backlog at the moment of the steal (including
    /// the stolen job) — must exceed the policy threshold.
    pub owner_backlog: usize,
}

/// Everything a property test wants to assert on.
pub struct SimReport {
    /// Outcomes indexed like the submission script.
    pub outcomes: Vec<SimOutcome>,
    /// Completion order as script indices.
    pub completion_order: Vec<usize>,
    /// The full event log.
    pub log: EventLog,
    /// Cache counters at the end.
    pub cache: CacheStats,
    /// Largest resident-byte total ever observed (must stay ≤ budget).
    pub peak_resident_bytes: usize,
    /// Largest queue depth ever observed (must stay ≤ capacity).
    pub peak_queue_depth: usize,
    /// Every steal taken, in order.
    pub steals: Vec<StealRecord>,
    /// Metric snapshot of the core's registry on the simulator's logical
    /// clock — the `service.*` metrics the threaded service records,
    /// emitted by the same code. Bit-deterministic for a fixed script.
    pub metrics: Snapshot,
}

/// What a worker slot is executing.
#[derive(Clone, Copy)]
struct Running {
    script_index: usize,
    done_us: u64,
}

/// Run the script through a [`ShardCore`] configured by the production
/// `cfg` and report. One worker is `workers: 1`; the old simulator's
/// missing per-session cap is `max_session_backlog: usize::MAX`.
///
/// Jobs must be scripted in non-decreasing `submit_us` order. All
/// admitted work is drained even past the last submission, and the
/// final `Shutdown` is stamped at the last completion.
pub fn simulate(cfg: &ServiceConfig, jobs: &[SimJob]) -> SimReport {
    // Logical-clock registry: advanced to each event instant below, so
    // span/metric timing is a pure function of the script.
    let clock = Clock::logical();
    // The core caches the script index as the "context"; the scripted
    // bytes drive the eviction policy exactly as real contexts would.
    let mut core: ShardCore<u64> = ShardCore::new(cfg, EventLog::new(), Registry::new(clock.clone()));
    for j in jobs {
        core.adopt_session(j.session);
    }
    let n = core.workers();
    let mut outcomes: Vec<SimOutcome> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| SimOutcome {
            script_index: i,
            session: j.session,
            started_us: None,
            completed_us: None,
            missed_deadline: false,
            warm: false,
            worker: None,
            stolen: false,
        })
        .collect();
    let mut completion_order = Vec::new();
    let mut steals = Vec::new();
    let mut workers: Vec<Option<Running>> = vec![None; n];
    let mut next_submit = 0usize;
    let mut peak_resident = 0usize;
    let mut peak_depth = 0usize;
    let mut last_completion = 0u64;

    loop {
        let busy_min = workers.iter().flatten().map(|r| r.done_us).min();
        let submit_t = jobs.get(next_submit).map(|j| j.submit_us);
        // Next instant: earliest completion or submission.
        let now = match (busy_min, submit_t) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (Some(a), Some(b)) => a.min(b),
        };
        clock.advance_to_us(now);

        // 1. Completions at `now`.
        for (w, slot) in workers.iter_mut().enumerate() {
            let Some(r) = slot.filter(|r| r.done_us == now) else { continue };
            *slot = None;
            let ctx = (r.script_index as u64, jobs[r.script_index].ctx_bytes);
            let Some(done) = core.complete(w, now, Some(ctx)) else { continue };
            peak_resident = peak_resident.max(core.cache_resident_bytes());
            outcomes[r.script_index].completed_us = Some(now);
            outcomes[r.script_index].missed_deadline = done.missed_deadline;
            completion_order.push(r.script_index);
            last_completion = now;
        }

        // 2. Submissions at `now`.
        while let Some(j) = jobs.get(next_submit).filter(|j| j.submit_us == now) {
            core.next_job = next_submit as u64;
            if core.submit(now, j.session, j.deadline_us, j.priority).is_ok() {
                peak_depth = peak_depth.max(core.depth());
            }
            next_submit += 1;
        }

        // 3. Dispatch. One claim per free worker — a claim never makes
        // another worker's claim possible, so a single pass reaches the
        // fixpoint.
        for (w, slot) in workers.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let Some(c) = core.claim(w, now) else { continue };
            let idx = c.job.job as usize;
            if c.stolen {
                let owner = preferred_worker(c.job.session, n);
                steals.push(StealRecord {
                    script_index: idx,
                    session: c.job.session,
                    owner,
                    thief: w,
                    owner_backlog: core.backlog(owner) + 1,
                });
            }
            outcomes[idx].started_us = Some(now);
            outcomes[idx].warm = c.ctx.is_some();
            outcomes[idx].worker = Some(w);
            outcomes[idx].stolen = c.stolen;
            *slot = Some(Running { script_index: idx, done_us: now + jobs[idx].cost_us.max(1) });
        }
    }

    core.record_shutdown(last_completion);
    SimReport {
        outcomes,
        completion_order,
        cache: core.cache_stats(),
        peak_resident_bytes: peak_resident,
        peak_queue_depth: peak_depth,
        steals,
        metrics: core.metrics().snapshot(),
        log: core.into_log(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize, capacity: usize, aging: f64, budget: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            queue_capacity: capacity,
            memory_budget_bytes: budget,
            aging_weight: aging,
            min_service_us: 0,
            priority_boost_us: 0,
            max_session_backlog: usize::MAX,
            ..Default::default()
        }
    }

    fn job(session: u64, submit: u64, deadline: u64) -> SimJob {
        SimJob {
            session,
            submit_us: submit,
            deadline_us: deadline,
            priority: 0,
            cost_us: 10,
            ctx_bytes: 100,
        }
    }

    #[test]
    fn single_worker_serves_in_deadline_order() {
        // All submitted at t=0; one worker → strict EDF order.
        let jobs = vec![job(1, 0, 300), job(2, 0, 100), job(3, 0, 200)];
        let r = simulate(&cfg(1, 8, 0.0, 10_000), &jobs);
        assert_eq!(r.completion_order, vec![1, 2, 0]);
        assert!(r.outcomes.iter().all(|o| !o.missed_deadline));
    }

    #[test]
    fn same_session_jobs_never_overlap() {
        // Two jobs of session 1, two workers: the second must wait.
        let jobs = vec![job(1, 0, 100), job(1, 0, 200)];
        let r = simulate(&cfg(2, 8, 0.0, 10_000), &jobs);
        let first_done = r.outcomes[0].completed_us.expect("ran");
        let second_start = r.outcomes[1].started_us.expect("ran");
        assert!(second_start >= first_done, "session serialized");
        assert!(r.outcomes[1].warm, "second scan reuses the warm context");
    }

    #[test]
    fn identical_scripts_produce_identical_logs() {
        let jobs: Vec<SimJob> = (0u64..12)
            .map(|i| job(1 + i % 3, i * 7, i * 7 + 120))
            .collect();
        let a = simulate(&cfg(2, 6, 1.0, 250), &jobs);
        let b = simulate(&cfg(2, 6, 1.0, 250), &jobs);
        assert_eq!(a.log.script(), b.log.script());
        assert_eq!(a.completion_order, b.completion_order);
        // Metric snapshots on the logical clock are bit-identical too —
        // down to the rendered JSON bytes.
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.to_json().render(), b.metrics.to_json().render());
    }

    #[test]
    fn metrics_agree_with_outcomes_and_cache_counters() {
        let jobs: Vec<SimJob> = (0u64..9).map(|i| job(1 + i % 3, i * 5, i * 5 + 200)).collect();
        let r = simulate(&cfg(2, 8, 0.5, 10_000), &jobs);
        let m = &r.metrics;
        let completed = r.outcomes.iter().filter(|o| o.completed_us.is_some()).count() as u64;
        assert_eq!(m.counter("service.jobs.submitted"), Some(9));
        assert_eq!(m.counter("service.jobs.completed"), Some(completed));
        assert_eq!(m.counter("service.cache.hit").unwrap_or(0), r.cache.hits);
        assert_eq!(m.counter("service.cache.miss").unwrap_or(0), r.cache.misses);
        assert_eq!(m.gauge("service.queue.peak_depth"), Some(r.peak_queue_depth as f64));
        for name in ["service.deadline.slack_at_start_us", "service.job.latency_us"] {
            let count = m.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h.count);
            assert_eq!(count, Some(completed), "{name}");
        }
    }

    #[test]
    fn queue_overflow_is_rejected_not_lost() {
        // Capacity 2, 4 simultaneous submissions: admission happens at
        // submit time (before any worker claims), so two fill the queue
        // and two bounce off the full queue.
        let jobs = vec![job(1, 0, 900), job(2, 0, 900), job(3, 0, 900), job(4, 0, 900)];
        let r = simulate(&cfg(1, 2, 0.0, 10_000), &jobs);
        let rejected = r.outcomes.iter().filter(|o| o.completed_us.is_none()).count();
        assert_eq!(rejected, 2);
        assert!(r.log.script().contains("reject s3 queue-full"));
        assert!(r.log.script().contains("reject s4 queue-full"));
        assert_eq!(r.peak_queue_depth, 2);
    }
}

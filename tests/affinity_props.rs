//! Property tests of the affinity-dispatch contracts, driven through the
//! deterministic simulator (which drives the production `ShardCore` —
//! queues, cache, steal policy, placement — on a logical clock; see
//! `sim.rs`).

use brainshift_service::{preferred_worker, simulate, ServiceConfig, SimJob};
use proptest::prelude::*;

fn cfg(workers: usize, capacity: usize, threshold: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: capacity,
        memory_budget_bytes: usize::MAX / 2,
        aging_weight: 1.0,
        min_service_us: 0,
        priority_boost_us: 0,
        max_session_backlog: usize::MAX,
        steal_backlog_threshold: threshold,
    }
}

/// A steady multi-session load: `sessions` sessions, `per` scans each at
/// a fixed cadence, every scan costing `cost_us`.
fn steady_load(sessions: u64, per: usize, cadence_us: u64, cost_us: u64) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for k in 0..per {
        for s in 1..=sessions {
            jobs.push(SimJob {
                session: s,
                submit_us: k as u64 * cadence_us,
                deadline_us: k as u64 * cadence_us + cadence_us * 2,
                priority: 0,
                cost_us,
                ctx_bytes: 1 << 10,
            });
        }
    }
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under nominal load — each session submits its next scan only
    /// after the previous one would have drained, so no queue ever
    /// exceeds the steal threshold — every job runs on its session's
    /// preferred worker and nothing is ever stolen.
    #[test]
    fn nominal_load_keeps_every_job_on_its_preferred_worker(
        sessions in 1u64..6,
        per in 1usize..12,
        workers in 1usize..5,
        cost in 10u64..200,
    ) {
        // Cadence long enough that all of an instant's submissions (at
        // most `sessions`, spread round-robin over workers) drain before
        // the next wave: no backlog, no steal pressure.
        let cadence = cost * (sessions + 1);
        let jobs = steady_load(sessions, per, cadence, cost);
        let r = simulate(&cfg(workers, jobs.len(), 2), &jobs);
        prop_assert!(r.steals.is_empty(), "steals under nominal load: {:?}", r.steals);
        for o in &r.outcomes {
            prop_assert!(o.completed_us.is_some(), "job {} never completed", o.script_index);
            prop_assert!(!o.stolen);
            prop_assert_eq!(o.worker, Some(preferred_worker(o.session, workers)));
        }
        prop_assert_eq!(
            r.metrics.counter("service.jobs.preferred"),
            Some(jobs.len() as u64)
        );
        prop_assert_eq!(r.metrics.counter("service.jobs.stolen").unwrap_or(0), 0);
    }

    /// Work stealing is strictly threshold-gated: whatever the load,
    /// every recorded steal found the owner's queue deeper than the
    /// policy threshold, and every stolen job's Start carries the thief
    /// worker. (Bursty scripts with clumped sessions create real steal
    /// pressure.)
    #[test]
    fn steals_only_happen_above_the_backlog_threshold(
        raw in prop::collection::vec(
            // (session, submit gap µs, cost µs)
            (1u64..4, 0u64..120, 50u64..400),
            4..48,
        ),
        workers in 2usize..5,
        threshold in 0usize..4,
    ) {
        let mut t = 0;
        let jobs: Vec<SimJob> = raw
            .iter()
            .map(|&(session, gap, cost)| {
                t += gap;
                SimJob {
                    session,
                    submit_us: t,
                    deadline_us: t + 50_000,
                    priority: 0,
                    cost_us: cost,
                    ctx_bytes: 1 << 10,
                }
            })
            .collect();
        let r = simulate(&cfg(workers, jobs.len(), threshold), &jobs);
        for st in &r.steals {
            prop_assert!(
                st.owner_backlog > threshold,
                "steal of job {} from worker {} at backlog {} ≤ threshold {}",
                st.script_index, st.owner, st.owner_backlog, threshold
            );
            prop_assert_eq!(st.owner, preferred_worker(st.session, workers));
            prop_assert!(st.thief != st.owner);
            prop_assert!(r.outcomes[st.script_index].stolen);
            prop_assert_eq!(r.outcomes[st.script_index].worker, Some(st.thief));
        }
        // Cross-check the counters against the records.
        prop_assert_eq!(
            r.metrics.counter("service.jobs.stolen").unwrap_or(0),
            r.steals.len() as u64
        );
        // And all completions are accounted: preferred + stolen.
        let done = r.outcomes.iter().filter(|o| o.completed_us.is_some()).count() as u64;
        prop_assert_eq!(
            r.metrics.counter("service.jobs.preferred").unwrap_or(0)
                + r.metrics.counter("service.jobs.stolen").unwrap_or(0),
            done
        );
    }

    /// The affinity simulator is bit-deterministic: same script, same
    /// config → byte-identical event script, steal records, and metric
    /// snapshot.
    #[test]
    fn affinity_sim_is_deterministic(
        raw in prop::collection::vec(
            (1u64..6, 0u64..300, 30u64..500, 1usize..64),
            1..40,
        ),
        workers in 1usize..5,
        threshold in 0usize..3,
    ) {
        let mut t = 0;
        let jobs: Vec<SimJob> = raw
            .iter()
            .map(|&(session, gap, cost, kib)| {
                t += gap;
                SimJob {
                    session,
                    submit_us: t,
                    deadline_us: t + 20_000,
                    priority: (session % 2) as u8,
                    cost_us: cost,
                    ctx_bytes: kib << 10,
                }
            })
            .collect();
        let c = cfg(workers, jobs.len().max(4), threshold);
        let a = simulate(&c, &jobs);
        let b = simulate(&c, &jobs);
        prop_assert_eq!(a.log.script(), b.log.script());
        prop_assert_eq!(a.steals, b.steals);
        prop_assert_eq!(a.completion_order, b.completion_order);
        prop_assert_eq!(a.metrics, b.metrics);
    }
}

//! Property tests of the affinity-dispatch and fleet contracts, driven
//! through the deterministic simulator (which drives the production
//! `ShardCore` — queues, cache, steal policy, placement — and the
//! `route_shard` router on a logical clock; see `sim.rs`).

use brainshift_service::{
    preferred_worker, simulate, simulate_fleet, FleetConfig, ServiceConfig, SimJob,
};
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

/// Nearest-rank percentile of completion latencies (µs).
fn p95_latency(jobs: &[SimJob], report: &brainshift_service::SimReport) -> u64 {
    let mut lat: Vec<u64> = report
        .outcomes
        .iter()
        .filter_map(|o| o.completed_us.map(|c| c.saturating_sub(jobs[o.script_index].submit_us)))
        .collect();
    assert!(!lat.is_empty(), "no completions to take a percentile of");
    lat.sort_unstable();
    let rank = ((0.95 * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
    lat[rank - 1]
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

/// The scaling regression this PR exists to fix: on a fixed multi-session
/// load, adding workers must not make tail latency worse. The old shared
/// run queue failed exactly this (p95 *rose* from 1 → 2 workers because
/// sessions lost their warm-context affinity); the per-worker queues with
/// sticky placement must be monotone.
#[test]
fn des_scaling_p95_is_monotone_non_increasing_1_2_4_workers() {
    // 8 sessions × 40 scans; each scan costs 600µs at a 1000µs cadence,
    // so one worker is saturated (offered load 4.8×) and extra workers
    // have real work to absorb.
    let jobs = steady_load(8, 40, 1_000, 600);
    let mut p95 = Vec::new();
    for workers in [1usize, 2, 4] {
        let r = simulate(&cfg(workers, jobs.len(), 2), &jobs);
        p95.push(p95_latency(&jobs, &r));
    }
    assert!(
        p95[1] <= p95[0],
        "negative scaling regression: p95 rose from {}µs (1 worker) to {}µs (2 workers)",
        p95[0],
        p95[1]
    );
    assert!(
        p95[2] <= p95[1],
        "negative scaling regression: p95 rose from {}µs (2 workers) to {}µs (4 workers)",
        p95[1],
        p95[2]
    );
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

    /// Fleet scripts are byte-deterministic for any shard count, and the
    /// router is a true partition: every session's jobs land on exactly
    /// the shard `route_shard` names, and fleet totals add up across
    /// shards.
    #[test]
    fn fleet_scripts_are_deterministic_and_the_router_partitions(
        raw in prop::collection::vec(
            (1u64..12, 0u64..200, 30u64..300),
            1..40,
        ),
        shards in 1usize..5,
    ) {
        let mut t = 0;
        let jobs: Vec<SimJob> = raw
            .iter()
            .map(|&(session, gap, cost)| {
                t += gap;
                SimJob {
                    session,
                    submit_us: t,
                    deadline_us: t + 30_000,
                    priority: 0,
                    cost_us: cost,
                    ctx_bytes: 1 << 10,
                }
            })
            .collect();
        let c = FleetConfig { shards, shard: cfg(2, jobs.len().max(4), 2) };
        let a = simulate_fleet(&c, &jobs);
        let b = simulate_fleet(&c, &jobs);
        prop_assert_eq!(a.shards.len(), shards);
        for (ra, rb) in a.shards.iter().zip(&b.shards) {
            prop_assert_eq!(ra.log.script(), rb.log.script());
        }
        prop_assert_eq!(a.metrics, b.metrics);
        // Partition: each shard saw only sessions that route to it.
        for (i, r) in a.shards.iter().enumerate() {
            for o in &r.outcomes {
                prop_assert_eq!(brainshift_service::route_shard(o.session, shards), i);
            }
        }
        // Conservation: every scripted job is exactly one of
        // completed-or-shed, and the totals agree with the merged
        // snapshot.
        prop_assert_eq!(a.completed + a.shed, jobs.len() as u64);
        prop_assert_eq!(a.metrics.counter("fleet.jobs.completed"), Some(a.completed));
        prop_assert_eq!(a.metrics.counter("fleet.jobs.shed"), Some(a.shed));
        let per_shard_completed: u64 = (0..shards)
            .map(|i| a.metrics.counter(&format!("shard{i}.service.jobs.completed")).unwrap_or(0))
            .sum();
        prop_assert_eq!(per_shard_completed, a.completed);
    }
}

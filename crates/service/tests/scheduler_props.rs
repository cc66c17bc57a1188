//! Property tests of the scheduling contracts, driven through the
//! deterministic simulator (which drives the production `ShardCore` on a
//! logical clock — see `sim.rs`).

use brainshift_service::{simulate, ServiceConfig, SimJob};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With capacity for everything, one worker, and simultaneous
    /// submission, jobs complete exactly in deadline order (ties by
    /// submission index). This holds for *any* aging weight: the aging
    /// term is identical for simultaneously submitted jobs.
    #[test]
    fn deadline_order_when_capacity_allows(
        deadlines in prop::collection::vec(100u64..100_000, 1..24),
        aging in 0.0f64..4.0,
    ) {
        let jobs: Vec<SimJob> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| SimJob {
                session: i as u64 + 1, // distinct sessions: no serialization
                submit_us: 0,
                deadline_us: d,
                priority: 0,
                cost_us: 5,
                ctx_bytes: 1,
            })
            .collect();
        let r = simulate(&cfg(1, jobs.len(), aging, usize::MAX / 2), &jobs);
        let mut expect: Vec<usize> = (0..jobs.len()).collect();
        expect.sort_by_key(|&i| (deadlines[i], i));
        prop_assert_eq!(r.completion_order, expect);
        prop_assert!(r.outcomes.iter().all(|o| o.completed_us.is_some()));
    }

    /// Starvation bound: a far-deadline job submitted at t=0 cannot be
    /// postponed indefinitely by a sustained stream of urgent jobs. With
    /// aging weight 1, an urgent job submitted at time `s` has effective
    /// key `2s + d_urgent`, the victim's key stays at `D` — so every
    /// urgent job submitted at `s ≥ D/2` loses to the victim. (Pure EDF,
    /// `w = 0`, violates this: urgent deadlines always win.)
    #[test]
    fn aging_bounds_starvation_under_sustained_urgent_load(
        victim_deadline in 10_000u64..40_000,
        urgent_rel_deadline in 100u64..2_000,
        period in 50u64..400,
        n_urgent in 40usize..120,
    ) {
        let mut jobs = vec![SimJob {
            session: 1,
            submit_us: 0,
            deadline_us: victim_deadline,
            priority: 0,
            cost_us: period, // stream saturates the single worker
            ctx_bytes: 1,
        }];
        // First urgent job arrives with the victim, so the worker is
        // contended from t = 0.
        for k in 0..n_urgent {
            let s = k as u64 * period;
            jobs.push(SimJob {
                session: 2 + k as u64,
                submit_us: s,
                deadline_us: s + urgent_rel_deadline,
                priority: 0,
                cost_us: period,
                ctx_bytes: 1,
            });
        }
        let r = simulate(&cfg(1, jobs.len(), 1.0, usize::MAX / 2), &jobs);
        let victim_start = r.outcomes[0].started_us;
        prop_assert!(victim_start.is_some(), "victim never ran");
        let victim_start = victim_start.ok_or_else(|| {
            TestCaseError::fail("victim start missing".into())
        })?;
        // No urgent job submitted at or after the bound may cut ahead of
        // the victim.
        for o in &r.outcomes[1..] {
            let i = o.script_index;
            if jobs[i].submit_us >= victim_deadline.div_ceil(2) {
                if let Some(s) = o.started_us {
                    prop_assert!(
                        s >= victim_start,
                        "job submitted at {} (≥ bound {}) started at {} before victim ({})",
                        jobs[i].submit_us, victim_deadline / 2, s, victim_start
                    );
                }
            }
        }
    }

    /// For a fixed submission script the full event log (timestamp-free
    /// script form), the completion order, and the cache counters are
    /// bit-identical across runs.
    #[test]
    fn event_log_is_deterministic_for_a_fixed_script(
        raw in prop::collection::vec(
            // (session, submit gap µs, deadline slack µs, cost µs, ctx KiB)
            (1u64..6, 0u64..500, 200u64..5_000, 1u64..300, 1usize..64),
            1..48,
        ),
        workers in 1usize..5,
        capacity in 1usize..16,
        budget_kib in 16usize..256,
    ) {
        let mut t = 0;
        let jobs: Vec<SimJob> = raw
            .iter()
            .map(|&(session, gap, slack, cost, kib)| {
                t += gap;
                SimJob {
                    session,
                    submit_us: t,
                    deadline_us: t + slack,
                    priority: (session % 3) as u8,
                    cost_us: cost,
                    ctx_bytes: kib << 10,
                }
            })
            .collect();
        let c = cfg(workers, capacity, 1.0, budget_kib << 10);
        let a = simulate(&c, &jobs);
        let b = simulate(&c, &jobs);
        prop_assert_eq!(a.log.script(), b.log.script());
        prop_assert_eq!(a.completion_order, b.completion_order);
        prop_assert_eq!(a.cache, b.cache);
        prop_assert!(a.peak_queue_depth <= capacity, "queue depth exceeded capacity");
    }

    /// The resident warm-context total never exceeds the memory budget,
    /// under any interleaving of sessions and context sizes — and the
    /// budget never causes a job to fail: every admitted job completes
    /// (evicted sessions run cold, they don't error).
    #[test]
    fn cache_never_exceeds_budget_and_never_fails_jobs(
        raw in prop::collection::vec(
            // (session, deadline slack, ctx bytes)
            (1u64..10, 500u64..50_000, 1usize..5_000),
            1..64,
        ),
        budget in 1_000usize..10_000,
        workers in 1usize..4,
    ) {
        let jobs: Vec<SimJob> = raw
            .iter()
            .enumerate()
            .map(|(i, &(session, slack, bytes))| SimJob {
                session,
                submit_us: i as u64 * 20,
                deadline_us: i as u64 * 20 + slack,
                priority: 0,
                cost_us: 10,
                ctx_bytes: bytes,
            })
            .collect();
        // Capacity fits everything: isolate the cache property from
        // queue-full rejections.
        let r = simulate(&cfg(workers, jobs.len(), 1.0, budget), &jobs);
        prop_assert!(
            r.peak_resident_bytes <= budget,
            "resident {} exceeded budget {}",
            r.peak_resident_bytes, budget
        );
        for o in &r.outcomes {
            prop_assert!(o.completed_us.is_some(), "admitted job {} never completed", o.script_index);
        }
    }
}

//! Tests that pin the merge of the threaded service's dispatch and the
//! simulator onto one `ShardCore` (tier-1: `cargo test -q` runs them).
//!
//! * goldens generated by the parent commit's affinity and fleet
//!   simulators — the one `simulate` must reproduce their scripts
//!   and metric snapshots byte for byte (the fleet's four shards each
//!   simulated on the jobs a SplitMix64 hash of the session sends it);
//! * production ≡ simulation: a threaded `Service` and `simulate` emit
//!   the same event script for the same closed-loop submissions;
//! * `simulate` re-runs a configuration that steals to the same bytes;
//! * p95 latency does not rise from 1 to 2 to 4 workers on a steady load;
//! * DESIGN.md documents every metric name the core can emit.

use brainshift_core::{
    generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanSequence, ScanStatus,
};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_persist::fnv1a;
use brainshift_service::{simulate, ScanJob, Service, ServiceConfig, SimJob};
use std::sync::Arc;
use std::time::Duration;

/// The parent's simulators had no per-session cap and took the queue
/// policy, budget and steal threshold as separate structs; this is the
/// equivalent production config (aging weight 1 throughout).
fn sim_cfg(
    workers: usize,
    queue_capacity: usize,
    min_service_us: u64,
    priority_boost_us: u64,
    memory_budget_bytes: usize,
    steal_backlog_threshold: usize,
) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity,
        memory_budget_bytes,
        aging_weight: 1.0,
        min_service_us,
        priority_boost_us,
        max_session_backlog: usize::MAX,
        steal_backlog_threshold,
    }
}

/// 12 jobs, 3 sessions, saturating two workers: priorities reorder the
/// queues, worker 0 steals once, and the 2-context budget evicts.
fn twelve_jobs() -> Vec<SimJob> {
    (0..12)
        .map(|i| SimJob {
            session: 1 + (i % 3),
            submit_us: i * 500,
            deadline_us: i * 500 + 20_000,
            priority: (i % 2) as u8,
            cost_us: 3_000 + 700 * (i % 4),
            ctx_bytes: 1 << 16,
        })
        .collect()
}

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

/// 2 000 LCG-drawn jobs over 24 sessions: bursts, three priorities,
/// deadlines on both sides of the admission floor, four context sizes.
fn fleet_jobs() -> Vec<SimJob> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut t = 0u64;
    (0..2_000)
        .map(|_| {
            t += next() % 90;
            SimJob {
                session: 1 + next() % 24,
                submit_us: t,
                deadline_us: t + 100 + next() % 4_000,
                priority: (next() % 3) as u8,
                cost_us: 50 + next() % 400,
                ctx_bytes: (1 + (next() % 4) as usize) << 10,
            }
        })
        .collect()
}

/// `script()` of the parent's affinity simulator on [`twelve_jobs`]
/// (2 workers, default queue policy, 2 × 64 KiB budget, threshold 2).
const TWELVE_JOB_SCRIPT: &str = "\
enqueue s1 j0 d20000 p0 q=1\n\
start s1 j0 cold w1 q=0\n\
enqueue s2 j1 d20000 p1 q=1\n\
start s2 j1 cold w0 q=0\n\
enqueue s3 j2 d20000 p0 q=1\n\
enqueue s1 j3 d20000 p1 q=2\n\
enqueue s2 j4 d20000 p0 q=3\n\
enqueue s3 j5 d20000 p1 q=4\n\
complete s1 j0 q=4\n\
enqueue s1 j6 d20000 p0 q=5\n\
start s1 j3 warm w1 q=4\n\
enqueue s2 j7 d20000 p1 q=5\n\
enqueue s3 j8 d20000 p0 q=6\n\
complete s2 j1 q=6\n\
start s2 j7 warm w0 q=5\n\
enqueue s1 j9 d20000 p1 q=6\n\
enqueue s2 j10 d20000 p0 q=7\n\
enqueue s3 j11 d20000 p1 q=8\n\
complete s1 j3 q=8\n\
start s3 j5 cold w1 q=7\n\
complete s2 j7 q=7\n\
start s2 j4 warm w0 q=6\n\
complete s3 j5 q=6\n\
start s1 j9 warm w1 q=5\n\
complete s2 j4 q=5\n\
start s2 j10 warm w0 q=4\n\
complete s1 j9 q=4\n\
start s3 j11 warm w1 q=3\n\
complete s2 j10 q=3\n\
start s1 j6 warm w0 stolen q=2\n\
complete s3 j11 q=2\n\
start s3 j2 warm w1 q=1\n\
complete s1 j6 q=1\n\
evict s2 q=1\n\
complete s3 j2 late q=1\n\
start s3 j8 warm w1 q=0\n\
complete s3 j8 late q=0\n\
shutdown q=0\n";

#[test]
fn twelve_job_script_matches_the_parent_simulator() {
    let r = simulate(&sim_cfg(2, 64, 0, 1_000_000, 2 << 16, 2), &twelve_jobs());
    assert_eq!(r.log.script(), TWELVE_JOB_SCRIPT);
    assert_eq!(r.steals.len(), 1);
    assert_eq!(r.cache.evictions, 1);
}

#[test]
fn steady_load_scripts_and_metrics_match_the_parent_simulator() {
    // (workers, fnv1a(script), fnv1a(metrics JSON), steals) from the
    // parent's affinity simulator.
    let golden = [
        (1usize, 0xe850_6aac_7b14_0b15u64, 0x2486_6b06_e997_8a70u64, 0usize),
        (2, 0xaa0f_69d1_1aa9_7cef, 0xd531_4d7d_f0f7_ec20, 0),
        (4, 0x1a79_9d85_569d_f820, 0xad54_f504_27db_3c32, 16),
    ];
    let jobs = steady_load(6, 20, 1_000, 700);
    for (workers, script, metrics, steals) in golden {
        let r = simulate(&sim_cfg(workers, jobs.len(), 0, 0, usize::MAX / 2, 2), &jobs);
        assert_eq!(fnv1a(r.log.script().as_bytes()), script, "{workers}-worker script");
        let rendered = r.metrics.to_json().render();
        assert_eq!(fnv1a(rendered.as_bytes()), metrics, "{workers}-worker metrics:\n{rendered}");
        assert_eq!(r.steals.len(), steals);
    }
}

/// Adding workers must not make tail latency worse on a fixed
/// multi-session load. A shared run queue failed this (p95 rose from 1 to
/// 2 workers as sessions lost their warm-context affinity); per-worker
/// queues with sticky placement keep it monotone.
#[test]
fn des_scaling_p95_is_monotone_non_increasing_1_2_4_workers() {
    // 8 sessions × 40 scans; each scan costs 600µs at a 1000µs cadence,
    // so one worker is saturated (offered load 4.8×) and extra workers
    // have real work to absorb.
    let jobs = steady_load(8, 40, 1_000, 600);
    let p95: Vec<u64> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            let r = simulate(&sim_cfg(workers, jobs.len(), 0, 0, usize::MAX / 2, 2), &jobs);
            // Nearest-rank p95 of submit → complete, µs.
            let mut lat: Vec<u64> = r
                .outcomes
                .iter()
                .filter_map(|o| Some(o.completed_us? - jobs[o.script_index].submit_us))
                .collect();
            assert_eq!(lat.len(), jobs.len(), "{workers} workers: every job completes");
            lat.sort_unstable();
            lat[(0.95 * lat.len() as f64).ceil() as usize - 1]
        })
        .collect();
    assert!(p95.windows(2).all(|w| w[1] <= w[0]), "p95 rose with workers 1, 2, 4: {p95:?} µs");
}

/// The shard the parent's fleet simulator sent a session to: a
/// SplitMix64 avalanche of the session id, modulo the shard count.
fn splitmix_shard(session: u64, shards: usize) -> usize {
    let mut z = session.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

#[test]
fn fleet_shard_scripts_and_metrics_match_the_parent_simulator() {
    // Per shard: fnv1a(script), jobs routed, steals — from the parent's
    // fleet simulator. Between them the four scripts hold 74 queue-full
    // and 50 deadline-infeasible rejections, 1 041 evictions and 64 late
    // completions.
    let golden = [
        (0xba29_9bb8_fb2a_241eu64, 403usize, 25usize),
        (0x1dd3_7cf9_4f73_c0bd, 340, 85),
        (0xb937_f75c_5ebc_f1f8, 747, 164),
        (0xf02e_0bbe_c926_14b9, 510, 66),
    ];
    let jobs = fleet_jobs();
    let cfg = sim_cfg(2, 5, 200, 1_000, 6 << 10, 1);
    for (i, (script, routed, steals)) in golden.into_iter().enumerate() {
        let shard: Vec<SimJob> =
            jobs.iter().filter(|j| splitmix_shard(j.session, golden.len()) == i).cloned().collect();
        let r = simulate(&cfg, &shard);
        assert_eq!(fnv1a(r.log.script().as_bytes()), script, "shard {i} script");
        assert_eq!(r.outcomes.len(), routed, "shard {i} routing");
        assert_eq!(r.steals.len(), steals, "shard {i} steals");
    }
}

fn phantom(peak_shift_mm: f64, scans: usize) -> (Arc<PreparedSurgery>, ScanSequence) {
    let seq = generate_scan_sequence(
        &PhantomConfig {
            dims: Dims::new(24, 24, 18),
            spacing: Spacing::iso(6.0),
            ..Default::default()
        },
        &BrainShiftConfig { peak_shift_mm, ..Default::default() },
        scans,
        scans,
    );
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let prepared = Arc::new(PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare"));
    (prepared, seq)
}

/// The threaded service and the simulator are two drivers of one core:
/// given the same configuration and the same submissions in the same
/// order, they log the same decisions. Closed loop on one worker, so the
/// threaded run has no scheduling freedom; a budget of 1.5 contexts, so
/// the script holds warm starts, cold starts and evictions.
#[test]
fn threaded_service_script_equals_the_simulators_line_for_line() {
    let (prep_a, seq_a) = phantom(8.0, 3);
    let (prep_b, seq_b) = phantom(5.0, 3);
    let ctx_bytes = prep_a.build_solver_context().expect("probe context").memory_bytes();
    let cfg = ServiceConfig {
        workers: 1,
        memory_budget_bytes: ctx_bytes + ctx_bytes / 2,
        ..Default::default()
    };
    let deadline = Duration::from_secs(120);

    let service = Service::start(cfg.clone());
    let a = service.open_session(prep_a);
    let b = service.open_session(prep_b);
    let order =
        [(a, &seq_a, 0), (a, &seq_a, 1), (b, &seq_b, 0), (a, &seq_a, 2), (b, &seq_b, 1), (b, &seq_b, 2)];
    let mut jobs = Vec::new();
    for (k, (session, seq, scan)) in order.into_iter().enumerate() {
        let out = service
            .submit(ScanJob {
                session,
                intensity: seq.scans[scan].intensity.clone(),
                priority: 0,
                deadline,
            })
            .expect("admit")
            .wait()
            .expect("execute");
        assert_eq!(out.status, ScanStatus::Converged, "the simulator scripts no escalations");
        let submit_us = k as u64 * 1_000;
        jobs.push(SimJob {
            session,
            submit_us,
            deadline_us: submit_us + deadline.as_micros() as u64,
            priority: 0,
            cost_us: 100,
            ctx_bytes,
        });
    }
    let threaded: Vec<String> = service.shutdown().iter().map(|e| e.script_line()).collect();

    let simulated = simulate(&cfg, &jobs).log.script();
    let simulated: Vec<&str> = simulated.lines().collect();
    assert_eq!(threaded, simulated);
    // Not vacuous: the pattern a a b a b b under a 1.5-context budget.
    let starts: Vec<&str> = simulated.iter().filter(|l| l.starts_with("start")).copied().collect();
    assert_eq!(
        starts,
        [
            "start s1 j0 cold w0 q=0",
            "start s1 j1 warm w0 q=0",
            "start s2 j2 cold w0 q=0",
            "start s1 j3 cold w0 q=0",
            "start s2 j4 cold w0 q=0",
            "start s2 j5 warm w0 q=0",
        ]
    );
    assert_eq!(simulated.iter().filter(|l| l.starts_with("evict")).count(), 3);
}

/// `simulate` runs under the production config, so a re-run exercises
/// what that config turns on — here three workers stealing at a
/// threshold of 1, under the default per-session cap.
#[test]
fn a_configuration_that_steals_simulates_deterministically() {
    let cfg = ServiceConfig {
        workers: 3,
        steal_backlog_threshold: 1,
        memory_budget_bytes: 2 << 16,
        ..Default::default()
    };
    // Sessions 1, 4 and 7 all prefer worker 1 of 3: its backlog builds
    // while workers 0 and 2 sit idle.
    let jobs: Vec<SimJob> = (0..9)
        .map(|i| SimJob {
            session: 1 + 3 * (i % 3),
            submit_us: i * 200,
            deadline_us: i * 200 + 20_000,
            priority: 0,
            cost_us: 2_000,
            ctx_bytes: 1 << 16,
        })
        .collect();
    let script = simulate(&cfg, &jobs).log.script();
    assert!(script.contains(" stolen "), "script exercises stealing:\n{script}");
    assert_eq!(simulate(&cfg, &jobs).log.script(), script, "a second run diverged");
    // The same jobs under a threshold nothing reaches run differently:
    // the config steers the decisions, it is not decoration.
    let sticky = ServiceConfig { steal_backlog_threshold: 64, ..cfg };
    assert_ne!(simulate(&sticky, &jobs).log.script(), script);
}

/// DESIGN.md §12 is the metric catalogue's prose twin: every name the
/// core can emit must appear there.
#[test]
fn design_doc_lists_every_metric_the_core_can_emit() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("read DESIGN.md");
    let names = brainshift_service::core::metric::ALL;
    assert_eq!(names.len(), 19);
    for name in names {
        assert!(name.starts_with("service."), "{name}");
        assert!(design.contains(&format!("`{name}`")), "DESIGN.md does not document `{name}`");
    }
    let mut unique = names.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a metric name is defined twice");
}

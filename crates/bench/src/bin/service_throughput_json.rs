//! Open-loop load generator for the intraoperative service: N concurrent
//! phantom surgeries submit scans at a fixed cadence (deadline = cadence,
//! as in an operating room: a registration is useless once the next scan
//! has arrived), swept across worker-pool sizes, plus one run at half the
//! context-cache memory budget, plus a deterministic fleet simulation at
//! hundreds of surgeries / tens of thousands of jobs. Writes latency
//! percentiles (nearest-rank, ≥100 samples at default scale),
//! deadline-miss rate, shed rate, and cache hit rate to
//! `bench_out/service_throughput.json`.
//!
//! ```bash
//! cargo run --release --bin service_throughput_json -- [surgeries] [scans] [cadence_ms]
//! ```
//!
//! The worker sweep is also the scaling regression gate: p95 latency
//! must be monotone non-increasing across 1 → 2 → 4 workers (the
//! shared-run-queue service *failed* this — adding a worker made p95
//! worse). The wall-clock gate arms only when every percentile has
//! ≥ 100 samples AND the host has ≥ 4 cores (on fewer cores the worker
//! threads time-share and wall-clock scaling is physics, not dispatch);
//! a deterministic logical-clock sweep of the same dispatch code is
//! always run and always gated strictly, so the emitted artifact carries
//! host-independent monotone-scaling evidence either way.

use brainshift_core::{generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanSequence, ScanStatus};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_obs::{BenchReport, JsonValue, Snapshot};
use brainshift_service::{
    simulate, simulate_fleet, FleetConfig, FleetSimReport, ScanJob, Service, ServiceConfig, SimJob,
};
use std::path::PathBuf;
use std::sync::Arc;
// The open-loop schedule needs `Instant`/`Duration` arithmetic for its
// absolute submission times; this is real wall-clock load generation, so
// a logical clock would defeat the purpose (audited keep).
use std::time::{Duration, Instant};

struct RunResult {
    workers: usize,
    budget_bytes: usize,
    submitted: usize,
    rejected: usize,
    completed: usize,
    degraded: usize,
    errors: usize,
    deadline_misses: usize,
    latencies_ms: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    stolen: u64,
    preferred: u64,
    /// The service's own metric registry at the end of the run.
    metrics: Snapshot,
}

impl RunResult {
    fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.completed as f64
        }
    }

    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Nearest-rank percentile. The old implementation rounded an index into
/// the sample array, which at small n silently collapsed p95/p99/max
/// into the same sample (9 jobs → index 8 for all three) — credible-
/// looking numbers with no information in them. Nearest-rank is the
/// standard conservative estimator, and the monotone-p95 gate below only
/// arms at ≥ 100 samples so a tail percentile always has real data
/// behind it.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// One open-loop run: every surgery submits its scans on schedule
/// (staggered starts), regardless of completions — the backlog is the
/// service's problem, which is the point.
fn run_load(
    surgeries: &[(Arc<PreparedSurgery>, ScanSequence)],
    workers: usize,
    budget_bytes: usize,
    cadence: Duration,
) -> RunResult {
    let service = Service::start(ServiceConfig {
        workers,
        memory_budget_bytes: budget_bytes,
        queue_capacity: 64,
        ..Default::default()
    });
    // Preparations are shared across runs; sessions (and the context
    // cache) start fresh per run.
    let ids: Vec<u64> =
        surgeries.iter().map(|(p, _)| service.open_session(Arc::clone(p))).collect();

    let n_scans = surgeries[0].1.scans.len();
    let stagger = cadence / surgeries.len() as u32;
    // Submission schedule: (when, surgery, scan), time-sorted.
    let mut schedule = Vec::new();
    for (k, _) in surgeries.iter().enumerate() {
        for i in 0..n_scans {
            schedule.push((stagger * k as u32 + cadence * i as u32, k, i));
        }
    }
    schedule.sort_by_key(|&(t, k, i)| (t, k, i));

    let t0 = Instant::now();
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for (at, k, i) in schedule {
        if let Some(wait) = at.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        match service.submit(ScanJob {
            session: ids[k],
            intensity: surgeries[k].1.scans[i].intensity.clone(),
            priority: 0,
            deadline: cadence,
        }) {
            Ok(t) => tickets.push(t),
            Err(_) => rejected += 1,
        }
    }

    let submitted = tickets.len() + rejected;
    let mut latencies_ms = Vec::new();
    let (mut completed, mut degraded, mut errors, mut misses) = (0usize, 0usize, 0usize, 0usize);
    for t in tickets {
        match t.wait() {
            Ok(out) => {
                completed += 1;
                if matches!(out.status, ScanStatus::Degraded) {
                    degraded += 1;
                }
                if out.missed_deadline {
                    misses += 1;
                }
                latencies_ms.push(out.latency.as_secs_f64() * 1e3);
            }
            Err(_) => errors += 1,
        }
    }
    let cache = service.cache_stats();
    let metrics = service.metrics_snapshot();
    service.shutdown();
    latencies_ms.sort_by(f64::total_cmp);
    RunResult {
        workers,
        budget_bytes,
        submitted,
        rejected,
        completed,
        degraded,
        errors,
        deadline_misses: misses,
        latencies_ms,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        stolen: metrics.counter("service.jobs.stolen").unwrap_or(0),
        preferred: metrics.counter("service.jobs.preferred").unwrap_or(0),
        metrics,
    }
}

/// Deterministic integer mix (SplitMix64 finalizer) for scripted
/// per-job cost variation — no RNG state, a pure function of the job's
/// coordinates, so the fleet simulation is bit-reproducible.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic scaling sweep on the logical clock: the same affinity
/// dispatch the threaded service runs, on a fixed saturating load, for
/// 1/2/4/8 workers. Unlike the wall-clock sweep this is exact — no host
/// noise, no core-count dependence — so the monotone-p95 contract is
/// checked strictly, and the committed artifact carries a scaling curve
/// that is reproducible anywhere.
fn run_des_sweep() -> Vec<(usize, u64)> {
    // 8 sessions × 50 scans, each costing 600 µs at a 1 000 µs cadence:
    // one worker sees 4.8× its capacity, so added workers have real work
    // to absorb.
    let mut jobs = Vec::new();
    for k in 0..50u64 {
        for s in 1..=8u64 {
            jobs.push(SimJob {
                session: s,
                submit_us: k * 1_000,
                deadline_us: k * 1_000 + 2_000,
                priority: 0,
                cost_us: 600,
                ctx_bytes: 1 << 20,
            });
        }
    }
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|workers| {
            let r = simulate(
                &ServiceConfig {
                    workers,
                    queue_capacity: jobs.len(),
                    memory_budget_bytes: 512 << 20,
                    priority_boost_us: 0,
                    max_session_backlog: usize::MAX,
                    ..Default::default()
                },
                &jobs,
            );
            let mut lat: Vec<u64> = r
                .outcomes
                .iter()
                .filter_map(|o| {
                    o.completed_us.map(|c| c.saturating_sub(jobs[o.script_index].submit_us))
                })
                .collect();
            lat.sort_unstable();
            let rank = ((0.95 * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
            (workers, lat[rank - 1])
        })
        .collect()
}

/// The fleet, at a scale no single machine run can reach: hundreds of
/// concurrent surgeries, tens of thousands of scan jobs, on the logical
/// clock (the simulator drives the production `ShardCore`, so shed rate,
/// tail latency, and per-shard hit rates are those of the real
/// policies).
fn run_fleet_sim(shards: usize, sessions: u64, rounds: usize) -> (FleetSimReport, Vec<SimJob>) {
    let cadence: u64 = 1_000_000; // 1 s scanner cadence, logical µs
    let mean_cost: u64 = 30_000; // ≈ the measured 32³ warm solve
    let mut jobs = Vec::with_capacity(sessions as usize * rounds);
    for k in 0..rounds {
        for s in 1..=sessions {
            // Stable per-session phase + per-job cost jitter (±50%),
            // both pure hashes: the script is a value, not a sample.
            let phase = mix(s) % cadence;
            let submit = k as u64 * cadence + phase;
            let cost = mean_cost / 2 + mix(s ^ (k as u64) << 32) % mean_cost;
            jobs.push(SimJob {
                session: s,
                submit_us: submit,
                deadline_us: submit + cadence,
                priority: 0,
                cost_us: cost,
                ctx_bytes: 4 << 20,
            });
        }
    }
    jobs.sort_by_key(|j| (j.submit_us, j.session));
    let cfg = FleetConfig {
        shards,
        shard: ServiceConfig {
            workers: 2,
            queue_capacity: 256,
            // Roomy enough that eviction pressure comes from session
            // count, not from a starved budget.
            memory_budget_bytes: 512 << 20,
            max_session_backlog: usize::MAX,
            ..Default::default()
        },
    };
    (simulate_fleet(&cfg, &jobs), jobs)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_surgeries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16).max(1);
    let n_scans: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8).max(1);
    // Default cadence is sized so the offered load fits a single CPU
    // core: one scan costs ~35–70 ms on the 32³ phantom, so 16 surgeries
    // offer at most ~1.1 s of work per 2 s period. That keeps the run
    // meaningful on small hosts (deadlines are holdable, queues stay
    // shallow); the *scaling contrast* comes from the deterministic
    // logical-clock sweep below, which saturates one worker by
    // construction. Pass a shorter cadence to stress wall-clock overload
    // behaviour explicitly.
    let cadence_ms: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2000);
    let cadence = Duration::from_millis(cadence_ms);

    println!("preparing {n_surgeries} phantom surgeries × {n_scans} scans (cadence {cadence_ms} ms)...");
    let surgeries: Vec<(Arc<PreparedSurgery>, ScanSequence)> = (0..n_surgeries)
        .map(|k| {
            // Vary the deformation so the surgeries are not clones.
            let seq = generate_scan_sequence(
                &PhantomConfig {
                    dims: Dims::new(32, 32, 24),
                    spacing: Spacing::iso(4.5),
                    ..Default::default()
                },
                &BrainShiftConfig {
                    peak_shift_mm: 4.0 + (k % 5) as f64,
                    ..Default::default()
                },
                n_scans,
                n_scans,
            );
            let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
            let p = PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare surgery");
            (Arc::new(p), seq)
        })
        .collect();
    let ctx_bytes = surgeries[0]
        .0
        .build_solver_context()
        .expect("probe context")
        .memory_bytes();
    let full_budget = ctx_bytes.saturating_mul(n_surgeries + 2);
    let half_budget = (ctx_bytes * n_surgeries / 2).max(ctx_bytes);
    println!("solver context: {:.1} MiB each\n", ctx_bytes as f64 / (1 << 20) as f64);

    let worker_sweep = [1usize, 2, 4, 8];
    let mut results = Vec::new();
    for &w in &worker_sweep {
        println!("run: {w} worker(s), full budget...");
        let r = run_load(&surgeries, w, full_budget, cadence);
        println!(
            "  {}/{} completed ({} shed, {} degraded, {} late), p50 {:.0} ms p95 {:.0} ms, hit rate {:.1}%, {} stolen",
            r.completed,
            r.submitted,
            r.rejected,
            r.degraded,
            r.deadline_misses,
            percentile(&r.latencies_ms, 50.0),
            percentile(&r.latencies_ms, 95.0),
            r.hit_rate() * 100.0,
            r.stolen,
        );
        results.push(r);
    }
    println!("run: {} worker(s), HALF budget ({:.1} MiB)...", worker_sweep[worker_sweep.len() - 1], half_budget as f64 / (1 << 20) as f64);
    let half = run_load(&surgeries, worker_sweep[worker_sweep.len() - 1], half_budget, cadence);
    println!(
        "  {}/{} completed ({} shed, {} degraded, {} late), {} evictions, hit rate {:.1}%",
        half.completed,
        half.submitted,
        half.rejected,
        half.degraded,
        half.deadline_misses,
        half.cache_evictions,
        half.hit_rate() * 100.0
    );

    // ---- Fleet simulation (deterministic, logical clock). ----
    let (fleet_shards, fleet_sessions, fleet_rounds) = (4usize, 240u64, 100usize);
    println!(
        "\nfleet sim: {fleet_shards} shards × 2 workers, {fleet_sessions} surgeries × {fleet_rounds} scans..."
    );
    let (fleet, fleet_jobs) = run_fleet_sim(fleet_shards, fleet_sessions, fleet_rounds);
    println!(
        "  {} jobs: {} completed, {} shed (rate {:.4}), {} late, p50 {:.0} ms p99 {:.0} ms",
        fleet_jobs.len(),
        fleet.completed,
        fleet.shed,
        fleet.shed_rate,
        fleet.missed_deadlines,
        fleet.p50_latency_us as f64 / 1e3,
        fleet.p99_latency_us as f64 / 1e3,
    );
    for (i, hr) in fleet.per_shard_hit_rate.iter().enumerate() {
        let sessions_on_shard = fleet
            .shards
            .get(i)
            .map(|r| {
                let mut s: Vec<u64> = r.outcomes.iter().map(|o| o.session).collect();
                s.sort_unstable();
                s.dedup();
                s.len()
            })
            .unwrap_or(0);
        println!("  shard {i}: {sessions_on_shard} surgeries, warm hit rate {:.1}%", hr * 100.0);
    }

    // ---- Deterministic scaling sweep (logical clock). ----
    let des = run_des_sweep();
    println!("\nDES scaling sweep (8 sessions × 50 scans, 600 µs cost @ 1 ms cadence):");
    for &(w, p95) in &des {
        println!("  {w} worker(s): p95 {p95} µs");
    }

    // ---- Acceptance checks (at any scale where they are meaningful). ----
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let best = &results[results.len() - 1];
    assert_eq!(best.errors, 0, "typed execution errors under full budget");
    if cores >= best.workers {
        // Real parallelism behind the pool: the widest run holds every
        // deadline at default load.
        assert_eq!(
            best.deadline_misses, 0,
            "{} deadline misses at {} workers / {} surgeries at default cadence",
            best.deadline_misses, best.workers, n_surgeries
        );
    } else {
        // Fewer cores than workers: threads time-share the CPU and
        // wall-clock deadlines are physics, not dispatch. The check
        // degrades to the actual regression contract — adding workers
        // must never make deadline behaviour meaningfully worse (5 pp of
        // slack absorbs scheduler jitter on a time-shared core).
        assert!(
            best.miss_rate() <= results[0].miss_rate() + 0.05,
            "deadline-miss rate rose from {:.4} at {} workers to {:.4} at {} workers ({cores} cores)",
            results[0].miss_rate(),
            results[0].workers,
            best.miss_rate(),
            best.workers
        );
    }
    if n_scans >= 10 {
        assert!(
            best.hit_rate() >= 0.90,
            "warm hit rate {:.3} < 0.90 with a budget that fits every session",
            best.hit_rate()
        );
    }
    assert_eq!(half.errors, 0, "half budget must degrade to cold solves, never to errors");
    assert_eq!(
        half.completed + half.rejected,
        half.submitted,
        "every admitted job completes under half budget"
    );

    // The DES sweep is exact, so the monotone contract is strict: the
    // per-worker queues with sticky placement must never lose tail
    // latency as workers are added.
    for pair in des.windows(2) {
        let (&(w_lo, p_lo), &(w_hi, p_hi)) = (&pair[0], &pair[1]);
        if w_hi > 4 {
            continue; // 4 → 8 is reported, not gated (flat tail).
        }
        assert!(
            p_hi <= p_lo,
            "negative scaling in the deterministic sweep: p95 rose from {p_lo} µs at {w_lo} workers to {p_hi} µs at {w_hi} workers"
        );
    }
    println!("scaling gate (logical clock): p95 monotone non-increasing across 1 → 2 → 4 workers ✓");

    // The wall-clock gate: with ≥ 100 samples behind each percentile and
    // enough cores that worker threads actually run in parallel, p95
    // must not rise as workers are added (1 → 2 → 4). Tolerance is one
    // nearest-rank neighbour's worth of wall-clock noise: 5% + 2 ms.
    let credible = results.iter().all(|r| r.latencies_ms.len() >= 100) && cores >= 4;
    if credible {
        for pair in results.windows(2) {
            if pair[1].workers > 4 {
                continue; // 4 → 8 is reported, not gated (flat tail).
            }
            let (lo, hi) = (&pair[0], &pair[1]);
            let (p_lo, p_hi) =
                (percentile(&lo.latencies_ms, 95.0), percentile(&hi.latencies_ms, 95.0));
            assert!(
                p_hi <= p_lo * 1.05 + 2.0,
                "negative scaling: p95 rose from {:.1} ms at {} workers to {:.1} ms at {} workers",
                p_lo,
                lo.workers,
                p_hi,
                hi.workers
            );
        }
        println!("scaling gate (wall clock): p95 monotone non-increasing across 1 → 2 → 4 workers ✓");
    } else if cores < 4 {
        println!("scaling gate (wall clock): skipped ({cores} core(s) — workers time-share the CPU)");
    } else {
        println!(
            "scaling gate (wall clock): skipped ({} samples < 100 — smoke scale)",
            results.iter().map(|r| r.latencies_ms.len()).min().unwrap_or(0)
        );
    }
    // The fleet simulation is deterministic by construction; spot-check
    // the invariants the report relies on.
    assert_eq!(
        fleet.completed + fleet.shed,
        fleet_jobs.len() as u64,
        "fleet conservation: every job completes or is shed"
    );
    assert!(fleet.shed_rate < 0.5, "fleet shed rate {:.3} — misconfigured load", fleet.shed_rate);

    // ---- Shared report schema (brainshift.obs.v1). ----
    let all: Vec<&RunResult> = results.iter().chain(std::iter::once(&half)).collect();
    let runs = JsonValue::Arr(
        all.iter()
            .map(|r| {
                JsonValue::obj()
                    .with("workers", r.workers.into())
                    .with("budget_bytes", r.budget_bytes.into())
                    .with("submitted", r.submitted.into())
                    .with("rejected", r.rejected.into())
                    .with("completed", r.completed.into())
                    .with("degraded", r.degraded.into())
                    .with("errors", r.errors.into())
                    .with("deadline_misses", r.deadline_misses.into())
                    .with("deadline_miss_rate", r.miss_rate().into())
                    .with("samples", r.latencies_ms.len().into())
                    .with("p50_latency_ms", percentile(&r.latencies_ms, 50.0).into())
                    .with("p95_latency_ms", percentile(&r.latencies_ms, 95.0).into())
                    .with("p99_latency_ms", percentile(&r.latencies_ms, 99.0).into())
                    .with("cache_hits", r.cache_hits.into())
                    .with("cache_misses", r.cache_misses.into())
                    .with("cache_evictions", r.cache_evictions.into())
                    .with("cache_hit_rate", r.hit_rate().into())
                    .with("jobs_preferred", r.preferred.into())
                    .with("jobs_stolen", r.stolen.into())
            })
            .collect(),
    );
    let per_shard = JsonValue::Arr(
        fleet
            .shards
            .iter()
            .enumerate()
            .map(|(i, r)| {
                JsonValue::obj()
                    .with("shard", i.into())
                    .with("completed", r.metrics.counter("service.jobs.completed").unwrap_or(0).into())
                    .with("rejected", r.metrics.counter("service.jobs.rejected").unwrap_or(0).into())
                    .with("cache_hit_rate", fleet.per_shard_hit_rate.get(i).copied().unwrap_or(0.0).into())
                    .with("jobs_stolen", r.metrics.counter("service.jobs.stolen").unwrap_or(0).into())
                    .with(
                        "jobs_preferred",
                        r.metrics.counter("service.jobs.preferred").unwrap_or(0).into(),
                    )
            })
            .collect(),
    );
    let fleet_json = JsonValue::obj()
        .with("shards", fleet_shards.into())
        .with("workers_per_shard", 2usize.into())
        .with("surgeries", fleet_sessions.into())
        .with("jobs", fleet_jobs.len().into())
        .with("completed", fleet.completed.into())
        .with("shed", fleet.shed.into())
        .with("shed_rate", fleet.shed_rate.into())
        .with("missed_deadlines", fleet.missed_deadlines.into())
        .with("p50_latency_us", fleet.p50_latency_us.into())
        .with("p99_latency_us", fleet.p99_latency_us.into())
        .with("per_shard", per_shard);
    let scaling_des = JsonValue::Arr(
        des.iter()
            .map(|&(w, p95)| {
                JsonValue::obj().with("workers", w.into()).with("p95_latency_us", p95.into())
            })
            .collect(),
    );
    let mut report = BenchReport::new("service_throughput");
    report.params = JsonValue::obj()
        .with("surgeries", n_surgeries.into())
        .with("scans_per_surgery", n_scans.into())
        .with("cadence_ms", cadence_ms.into())
        .with("context_bytes", ctx_bytes.into())
        .with("host_cores", cores.into())
        .with("percentile_method", "nearest_rank".into());
    // The service registry of the best full-budget run: queue / cache /
    // deadline counters plus per-stage solve spans.
    report.metrics = best.metrics.clone();
    report.extra = JsonValue::obj()
        .with("runs", runs)
        .with("scaling_des", scaling_des)
        .with("fleet", fleet_json);

    let path = PathBuf::from("bench_out").join("service_throughput.json");
    report.write(&path).expect("write service_throughput.json");
    println!("\nwritten: {}", path.display());
}

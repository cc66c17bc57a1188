//! Durability benchmark and end-to-end recovery gate.
//!
//! Two claims are *asserted*, then written with their measurements to
//! `bench_out/persist.json` (`brainshift.obs.v1`):
//!
//! 1. **A restored session resumes warm**: a shard snapshot keeps a
//!    resident context's warm-start seed, not the context, and
//!    `restore_shard` rebuilds the context on the surgery's `K` and seeds
//!    it, so a repeat of the last scan before the snapshot is served warm
//!    in zero Krylov iterations. The shard snapshot's size with and
//!    without a resident context and the restore time are printed
//!    (DESIGN.md §15).
//! 2. **Crash recovery is byte-exact**: a scan sequence served across a
//!    `snapshot_shard` → `restore_shard` boundary produces bitwise
//!    identical displacement fields and an event-log script tail
//!    byte-identical to an uninterrupted run's.
//!
//! ```bash
//! cargo run --release -p brainshift-bench --bin persist_report
//! ```

use brainshift_conformance::{quantized_field_hash, GOLDEN_QUANTUM_MM};
use brainshift_core::{generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanSequence};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_obs::{BenchReport, JsonValue};
use brainshift_service::{ScanJob, Service, ServiceConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service_cfg() -> ServiceConfig {
    ServiceConfig { workers: 1, queue_capacity: 16, ..Default::default() }
}

fn scan_job(session: u64, seq: &ScanSequence, i: usize) -> ScanJob {
    ScanJob {
        session,
        intensity: seq.scans[i].intensity.clone(),
        priority: 0,
        deadline: Duration::from_secs(120),
    }
}

/// Serve the first scan on a fresh one-session shard under `cfg`, then
/// snapshot the shard.
fn snapshot_after_first_scan(cfg: ServiceConfig, prepared: &Arc<PreparedSurgery>, seq: &ScanSequence) -> (u64, Vec<u8>) {
    let shard = Service::start(cfg);
    let sid = shard.open_session(Arc::clone(prepared));
    shard.submit(scan_job(sid, seq, 0)).expect("submit scan").wait().expect("scan outcome");
    let snapshot = shard.snapshot_shard().expect("snapshot shard");
    shard.shutdown();
    (sid, snapshot)
}

/// Serve scans `[from, to)` of the sequence sequentially on `service`,
/// appending each field's quantized hash (and raw data clone) to `out`.
fn serve(
    service: &Service,
    session: u64,
    seq: &ScanSequence,
    from: usize,
    to: usize,
    out: &mut Vec<(u64, bool)>,
) {
    for i in from..to {
        let ticket = service.submit(scan_job(session, seq, i)).expect("submit scan");
        let outcome = ticket.wait().expect("scan outcome");
        out.push((quantized_field_hash(outcome.field.data(), GOLDEN_QUANTUM_MM), outcome.warm));
    }
}

fn main() {
    println!("preparing phantom surgery...");
    let seq = generate_scan_sequence(
        &PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.5),
            ..Default::default()
        },
        &BrainShiftConfig::default(),
        6,
        6,
    );
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let prepared = Arc::new(PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare"));

    // ---- 1. A restore is a rebuild plus a seed. ----
    // A one-byte budget evicts the context after every scan, so that
    // snapshot holds no resident context.
    let (_, evicted) = snapshot_after_first_scan(
        ServiceConfig { memory_budget_bytes: 1, ..service_cfg() },
        &prepared,
        &seq,
    );
    let (sid, resident) = snapshot_after_first_scan(service_cfg(), &prepared, &seq);
    let t0 = Instant::now();
    let restored = Service::restore_shard(service_cfg(), &resident, &HashMap::from([(sid, Arc::clone(&prepared))]))
        .expect("restore shard");
    let restore_us = t0.elapsed().as_secs_f64() * 1e6;
    let again = restored.submit(scan_job(sid, &seq, 0)).expect("submit repeat").wait().expect("repeat outcome");
    restored.shutdown();
    println!(
        "shard snapshot: {} B without a resident context, {} B with one; restore {restore_us:.0} µs",
        evicted.len(),
        resident.len()
    );
    assert!(again.warm, "the restored session did not resume warm");
    assert_eq!(again.fem_iterations, 0, "the restored seed does not solve the scan it came from");

    // ---- 2. Crash recovery: snapshot mid-sequence, restore, finish. ----
    let n_scans = seq.scans.len();
    let cut = n_scans / 2;

    println!("uninterrupted run: {n_scans} scans on one shard...");
    let baseline = Service::start(service_cfg());
    let sid = baseline.open_session(Arc::clone(&prepared));
    let mut base_results = Vec::new();
    serve(&baseline, sid, &seq, 0, n_scans, &mut base_results);
    let base_script = baseline.script();
    baseline.shutdown();

    println!("interrupted run: {cut} scans, snapshot shard, restore, {} scans...", n_scans - cut);
    let shard_a = Service::start(service_cfg());
    let sid_a = shard_a.open_session(Arc::clone(&prepared));
    assert_eq!(sid_a, sid, "session ids must match across runs");
    let mut rec_results = Vec::new();
    serve(&shard_a, sid_a, &seq, 0, cut, &mut rec_results);
    let script_a = shard_a.script();
    let snapshot = shard_a.snapshot_shard().expect("snapshot shard");
    shard_a.shutdown();

    let mut prep_map = HashMap::new();
    prep_map.insert(sid_a, Arc::clone(&prepared));
    let t0 = Instant::now();
    let shard_b =
        Service::restore_shard(service_cfg(), &snapshot, &prep_map).expect("restore shard");
    let shard_restore_us = t0.elapsed().as_secs_f64() * 1e6;
    serve(&shard_b, sid_a, &seq, cut, n_scans, &mut rec_results);
    let script_b = shard_b.script();
    shard_b.shutdown();

    let fields_match = base_results.iter().map(|r| r.0).eq(rec_results.iter().map(|r| r.0));
    let warm_match = base_results.iter().map(|r| r.1).eq(rec_results.iter().map(|r| r.1));
    let script_match = format!("{script_a}{script_b}") == base_script;
    let recovery_match = fields_match && warm_match && script_match;
    println!(
        "recovery: fields {} | warm flags {} | script tail {} | shard snapshot {} KiB, \
         restore {shard_restore_us:.0} µs",
        if fields_match { "bitwise equal" } else { "DIVERGED" },
        if warm_match { "equal" } else { "DIVERGED" },
        if script_match { "byte-identical" } else { "DIVERGED" },
        snapshot.len() / 1024,
    );
    assert!(fields_match, "post-restore displacement fields diverged from the uninterrupted run");
    assert!(warm_match, "warm/cold start pattern diverged (context not restored warm?)");
    assert!(
        script_match,
        "event-log script diverged:\n--- uninterrupted ---\n{base_script}\n--- recovered ---\n{script_a}{script_b}"
    );
    // The first post-restore scan must have been served from the
    // *restored* warm context — the migration kept the state, not just
    // the session table.
    assert!(rec_results[cut].1, "first post-restore scan ran cold; warm context was lost");

    // ---- Shared report schema (brainshift.obs.v1). ----
    let mut report = BenchReport::new("persist");
    report.params = JsonValue::obj()
        .with("phantom_dims", "32x32x24".into())
        .with("scans", n_scans.into())
        .with("snapshot_at_scan", cut.into());
    report.extra = JsonValue::obj()
        .with("snapshot_bytes_without_context", evicted.len().into())
        .with("snapshot_bytes_with_context", resident.len().into())
        .with("restore_us", restore_us.into())
        .with("shard_snapshot_bytes", snapshot.len().into())
        .with("shard_restore_us", shard_restore_us.into())
        .with("recovery_match", recovery_match.into());
    let path = PathBuf::from("bench_out").join("persist.json");
    report.write(&path).expect("write persist.json");
    println!("written: {}", path.display());
}

//! Integration: one stiffness assembly per surgery.
//!
//! `PreparedSurgery::new` assembles `K` once; every solver context
//! `build_solver_context` makes shares that matrix, so rebuilding a
//! context after the service cache evicted one is Dirichlet reduction plus
//! factorization only — and must be indistinguishable from the first
//! context in its bytes and in the bits of the scan it serves. A shard
//! restore is such a rebuild plus the persisted warm-start seed, after a
//! check of the snapshot's stiffness fingerprint against the surgery's.
//!
//! Every mesh stays under the BLAS-1 kernels' parallel threshold, so the
//! bit comparisons hold at any `RAYON_NUM_THREADS`.

use brainshift_core::{
    generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanRegistration, ScanSequence,
};
use brainshift_fem::{assemble_stiffness, MaterialTable, SolverContext};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_persist::PersistError;
use brainshift_service::{ScanJob, Service, ServiceConfig};
use brainshift_sparse::CsrMatrix;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn sequence(scans: usize) -> ScanSequence {
    generate_scan_sequence(
        &PhantomConfig {
            dims: Dims::new(24, 24, 18),
            spacing: Spacing::iso(6.0),
            ..Default::default()
        },
        &BrainShiftConfig::default(),
        scans,
        scans,
    )
}

fn prepare(seq: &ScanSequence, materials: MaterialTable) -> PreparedSurgery {
    let cfg = PipelineConfig {
        skip_rigid: true,
        materials,
        ..Default::default()
    };
    PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare")
}

fn value_bits(k: &CsrMatrix) -> Vec<u64> {
    k.values().iter().map(|v| v.to_bits()).collect()
}

/// Everything a scan hands back that the solve decides, as bits: the
/// field, the nodal displacements, iterations and the relative residual.
fn scan_bits(reg: &ScanRegistration) -> (Vec<u64>, Vec<u64>, usize, u64) {
    let bits = |vs: &[brainshift_imaging::Vec3]| {
        vs.iter()
            .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect()
    };
    (
        bits(reg.field.data()),
        bits(&reg.fem.displacements),
        reg.fem_iterations,
        reg.fem.stats.relative_residual.to_bits(),
    )
}

fn register(
    prepared: &PreparedSurgery,
    ctx: &mut SolverContext,
    seq: &ScanSequence,
    i: usize,
) -> ScanRegistration {
    prepared
        .register_scan(ctx, &seq.scans[i].intensity, None, None, None)
        .expect("register")
}

#[test]
fn contexts_of_one_surgery_share_its_one_assembly() {
    let seq = sequence(1);
    let prepared = prepare(&seq, MaterialTable::homogeneous());
    let a = prepared.build_solver_context().expect("first context");
    let b = prepared.build_solver_context().expect("second context");
    assert!(
        std::ptr::eq(a.matrix(), b.matrix()),
        "two contexts, two matrices"
    );
    assert!(std::ptr::eq(a.matrix(), &**prepared.stiffness()));
    // Each context still reports the one assembly behind its matrix, and
    // spent no time assembling it.
    assert_eq!(a.stats().assemblies, 1);
    assert_eq!(b.timings().assembly_s, 0.0);

    // The surgery's K is exactly what the one-shot assembly produces.
    let fresh = assemble_stiffness(prepared.mesh(), &prepared.config().materials);
    let k = prepared.stiffness();
    assert_eq!((k.nrows(), k.ncols()), (fresh.nrows(), fresh.ncols()));
    assert_eq!(k.indptr(), fresh.indptr());
    assert_eq!(k.indices(), fresh.indices());
    assert_eq!(value_bits(k), value_bits(&fresh));
}

#[test]
fn a_context_rebuilt_after_eviction_serves_the_same_bits() {
    let seq = sequence(1);
    let prepared = prepare(&seq, MaterialTable::homogeneous());
    let mut first = prepared.build_solver_context().expect("first context");
    let bytes = first.memory_bytes();
    let want = scan_bits(&register(&prepared, &mut first, &seq, 0));
    drop(first); // what the cache does to an evicted context

    let mut rebuilt = prepared.build_solver_context().expect("rebuilt context");
    assert_eq!(rebuilt.memory_bytes(), bytes, "the budget charge moved");
    assert_eq!(
        Arc::strong_count(prepared.stiffness()),
        2,
        "surgery + rebuilt context"
    );
    let got = scan_bits(&register(&prepared, &mut rebuilt, &seq, 0));
    assert!(got == want, "rebuilt context served different bits");
}

fn service_cfg(memory_budget_bytes: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        memory_budget_bytes,
        ..Default::default()
    }
}

fn scan_job(session: u64, seq: &ScanSequence, i: usize) -> ScanJob {
    ScanJob {
        session,
        intensity: seq.scans[i].intensity.clone(),
        priority: 0,
        deadline: Duration::from_secs(120),
    }
}

/// Serve scan 0 on a fresh one-session shard, snapshot it and shut it
/// down.
fn snapshot_after_scan_0(
    cfg: &ServiceConfig,
    prepared: &Arc<PreparedSurgery>,
    seq: &ScanSequence,
) -> (u64, Vec<u8>) {
    let service = Service::start(cfg.clone());
    let sid = service.open_session(Arc::clone(prepared));
    service
        .submit(scan_job(sid, seq, 0))
        .expect("submit")
        .wait()
        .expect("outcome");
    let snapshot = service.snapshot_shard().expect("snapshot");
    service.shutdown();
    (sid, snapshot)
}

#[test]
fn a_restored_context_shares_the_surgery_matrix_and_solves_identically() {
    let seq = sequence(2);
    let prepared = Arc::new(prepare(&seq, MaterialTable::homogeneous()));
    let mut live = prepared.build_solver_context().expect("context");
    register(&prepared, &mut live, &seq, 0);
    let want = register(&prepared, &mut live, &seq, 1);
    drop(live);

    let cfg = service_cfg(ServiceConfig::default().memory_budget_bytes);
    let (sid, snapshot) = snapshot_after_scan_0(&cfg, &prepared, &seq);
    assert_eq!(
        Arc::strong_count(prepared.stiffness()),
        1,
        "only the surgery holds K"
    );
    let restored = Service::restore_shard(
        cfg,
        &snapshot,
        &HashMap::from([(sid, Arc::clone(&prepared))]),
    )
    .expect("restore");
    assert_eq!(
        Arc::strong_count(prepared.stiffness()),
        2,
        "the restored context holds the surgery's K, not a copy"
    );
    let got = restored
        .submit(scan_job(sid, &seq, 1))
        .expect("submit")
        .wait()
        .expect("outcome");
    restored.shutdown();
    assert!(got.warm);
    let bits = |vs: &[brainshift_imaging::Vec3]| -> Vec<u64> {
        vs.iter()
            .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect()
    };
    assert!(
        bits(got.field.data()) == bits(want.field.data()),
        "restored context solved differently"
    );
    assert_eq!(got.fem_iterations, want.fem_iterations);
}

/// Refused whether the session's context was resident at snapshot time
/// or had been evicted: the carry-forward field is the old physics' too.
#[test]
fn restore_refuses_a_snapshot_taken_under_another_material_table() {
    let seq = sequence(1);
    let prepared = Arc::new(prepare(&seq, MaterialTable::homogeneous()));
    // Same reference scan, same mesh (the fingerprint check passes), but
    // another material table: another K.
    let other = Arc::new(prepare(&seq, MaterialTable::heterogeneous()));
    assert_eq!(other.mesh().fingerprint(), prepared.mesh().fingerprint());
    for budget in [ServiceConfig::default().memory_budget_bytes, 1] {
        let cfg = service_cfg(budget);
        let (sid, snapshot) = snapshot_after_scan_0(&cfg, &prepared, &seq);

        // Control: the surgery the snapshot was taken under restores.
        let same = HashMap::from([(sid, Arc::clone(&prepared))]);
        Service::restore_shard(cfg.clone(), &snapshot, &same)
            .expect("same surgery restores")
            .shutdown();

        let err =
            Service::restore_shard(cfg, &snapshot, &HashMap::from([(sid, Arc::clone(&other))]))
                .err()
                .unwrap_or_else(|| {
                    panic!("budget {budget}: a session of another material table was restored")
                });
        match err {
            PersistError::InvalidData { reason } => {
                assert!(reason.contains(&format!("session {sid}")), "{reason}");
                assert!(reason.contains("stiffness"), "{reason}");
            }
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }
}

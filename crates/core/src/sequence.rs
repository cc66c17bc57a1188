//! Multi-scan intraoperative sequences.
//!
//! "In each neurosurgery case several volumetric MRI scans were carried
//! out during surgery. The first scan was acquired at the beginning of the
//! procedure before any changes in the shape of the brain took place, and
//! then over the course of surgery other scans were acquired as the
//! surgeon checked the progress of tumor resection." This module
//! generates such a series — progressive brain shift, the tumor resected
//! in the final scans — and tracks the registration per scan, reusing the
//! prototype-voxel statistical model across acquisitions exactly as the
//! paper's automatic update does.

use crate::case::{generate_elastic_case, ElasticCase, ElasticCaseOptions};
use crate::error::Error;
use crate::metrics::{field_error, FieldErrorReport};
use crate::pipeline::PipelineConfig;
use crate::surgery::PreparedSurgery;
use crate::timeline::StageTimings;
use brainshift_fem::ContextStats;
use brainshift_obs::Stopwatch;
use brainshift_sparse::{EscalationPolicy, SolverOptions};
use brainshift_imaging::phantom::{forward_warp_labels, render_intensity, BrainShiftConfig, PhantomConfig, PhantomScan};
use brainshift_imaging::{labels, DisplacementField, Volume};

/// A series of intraoperative scans with ground-truth deformations.
pub struct ScanSequence {
    /// The first intraoperative scan (reference configuration).
    pub reference: PhantomScan,
    /// Later scans, in acquisition order.
    pub scans: Vec<PhantomScan>,
    /// Ground-truth forward field of each scan, on the reference grid.
    pub gt_forward: Vec<DisplacementField>,
    /// Stage (0..1] of the full shift reached at each scan.
    pub stages: Vec<f64>,
}

/// Generate a sequence of `n_scans` later scans with linearly progressing
/// shift (linear elasticity: scaling the surface BCs scales the interior
/// solution exactly, so one ground-truth solve serves every stage). The
/// tumor is resected from scan `resect_from` onward.
pub fn generate_scan_sequence(
    cfg: &PhantomConfig,
    shift: &BrainShiftConfig,
    n_scans: usize,
    resect_from: usize,
) -> ScanSequence {
    assert!(n_scans >= 1);
    let full = generate_elastic_case(
        cfg,
        &BrainShiftConfig { resect_tumor: false, ..shift.clone() },
        &ElasticCaseOptions::default(),
    );
    let ElasticCase { preop, gt_forward: full_field, .. } = full;
    let mut scans = Vec::with_capacity(n_scans);
    let mut fields = Vec::with_capacity(n_scans);
    let mut stages = Vec::with_capacity(n_scans);
    for i in 0..n_scans {
        let stage = (i + 1) as f64 / n_scans as f64;
        let mut field = full_field.clone();
        for u in field.data_mut() {
            *u = *u * stage;
        }
        let mut lab = forward_warp_labels(&preop.labels, &field, labels::CSF);
        if i >= resect_from {
            for v in lab.data_mut() {
                if *v == labels::TUMOR {
                    *v = labels::RESECTION;
                }
            }
        }
        let scan_cfg = PhantomConfig { seed: cfg.seed.wrapping_add(1 + i as u64), ..cfg.clone() };
        let intensity = render_intensity(&lab, &scan_cfg);
        scans.push(PhantomScan { intensity, labels: lab });
        fields.push(field);
        stages.push(stage);
    }
    ScanSequence { reference: preop, scans, gt_forward: fields, stages }
}

/// How the biomechanical solve of one scan concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStatus {
    /// The primary solver configuration converged.
    Converged,
    /// The solver converged, but only after walking the escalation
    /// ladder (larger GMRES restarts and/or the BiCGStab fallback).
    Escalated {
        /// Total solver attempts made (≥ 2).
        attempts: usize,
    },
    /// The solver did not converge within its budget even after
    /// escalation: the scan's displacement field is the *previous*
    /// scan's field carried forward (zero for the first scan), not a
    /// solution for this scan's boundary conditions.
    Degraded,
}

/// Outcome of registering one scan of the sequence.
pub struct ScanOutcome {
    /// Index of the scan within the sequence.
    pub scan_index: usize,
    /// Fraction (0..1] of the full shift reached at this scan.
    pub stage: f64,
    /// How the biomechanical solve concluded (see [`ScanStatus`]).
    pub status: ScanStatus,
    /// Recovered-vs-truth deformation error report.
    pub field_error: FieldErrorReport,
    /// GMRES iterations of the biomechanical solve.
    pub fem_iterations: usize,
    /// Mean active-surface residual distance (mm).
    pub surface_residual: f64,
    /// Peak recovered deformation (mm) — should grow with the stage.
    pub peak_recovered_mm: f64,
    /// Per-stage wall-clock breakdown of this scan (warm path: assembly /
    /// reduction / factorization are 0, they are once-per-surgery costs).
    pub timings: StageTimings,
}

/// Everything a registered sequence yields: the per-scan outcomes plus
/// the solver counters proving the once-per-surgery initialization.
pub struct SequenceResult {
    /// One entry per intraoperative scan, in acquisition order.
    pub outcomes: Vec<ScanOutcome>,
    /// FEM solver-context counters over the whole surgery. With the
    /// persistent context these show exactly one assembly and one
    /// preconditioner factorization regardless of the scan count.
    pub solver_stats: ContextStats,
    /// Scans that ended [`ScanStatus::Degraded`].
    pub degraded_scans: usize,
    /// Whole-surgery stage totals: every scan's breakdown accumulated,
    /// plus the once-per-surgery preparation and the assembly / Dirichlet
    /// reduction / preconditioner factorization measured on the solver
    /// context.
    pub stage_timings: StageTimings,
}

/// Deterministic fault injection for failure-path testing: the listed
/// scans are solved with a starved iteration budget and no escalation,
/// forcing a genuine solver non-convergence at exactly those points of
/// the sequence.
#[derive(Debug, Clone, Default)]
pub struct FaultInjection {
    /// Scan indices whose FEM solve is starved (0-based).
    pub fail_fem_scans: Vec<usize>,
}

/// Register every scan of the sequence against the reference, reusing the
/// mesh, the assembled stiffness matrix, the factored preconditioner and
/// the prototype model across scans (the paper's once-per-surgery
/// initialization). Each scan's FEM solve is warm-started from the
/// previous scan's displacement field.
///
/// Hard failures (malformed mesh, singular preconditioner) are returned
/// as [`Error`]; a scan whose solver merely fails to converge degrades
/// gracefully — see [`ScanStatus::Degraded`].
pub fn run_scan_sequence(seq: &ScanSequence, cfg: &PipelineConfig) -> Result<SequenceResult, Error> {
    run_scan_sequence_with_faults(seq, cfg, &FaultInjection::default())
}

/// [`run_scan_sequence`] with deterministic fault injection: scans listed
/// in `faults.fail_fem_scans` are solved with a starved iteration budget
/// and no escalation. Used to exercise the degradation path; production
/// callers use [`run_scan_sequence`].
pub fn run_scan_sequence_with_faults(
    seq: &ScanSequence,
    cfg: &PipelineConfig,
    faults: &FaultInjection,
) -> Result<SequenceResult, Error> {
    // Built once per surgery: mesh, stiffness matrix K, snapped boundary
    // surface, prototype model (the per-surgery half of the job-ified
    // pipeline), plus the solver context — split K into K_ff/K_fc and
    // factor the preconditioner once, re-solve per scan.
    let sw = Stopwatch::wall();
    let prepared = PreparedSurgery::new(&seq.reference.labels, cfg.clone())?;
    let prepare_s = sw.elapsed_s();
    let mut solver = prepared.build_solver_context()?;

    // Options forcing genuine non-convergence on injected scans: zero
    // Krylov iterations, no escalation.
    let starved = SolverOptions { max_iterations: 0, ..cfg.fem.options.clone() };
    let no_escalation = EscalationPolicy::none();

    let mut outcomes = Vec::with_capacity(seq.scans.len());
    let mut degraded_scans = 0usize;
    let mut stage_timings = StageTimings::default();
    // The last *good* field, carried forward over degraded scans (the
    // navigation display keeps showing the last trusted state rather than
    // an unconverged iterate).
    let mut last_field: Option<DisplacementField> = None;
    for (i, scan) in seq.scans.iter().enumerate() {
        let injected = faults.fail_fem_scans.contains(&i);
        let reg = prepared.register_scan(
            &mut solver,
            &scan.intensity,
            last_field.as_ref(),
            injected.then_some(&starved),
            injected.then_some(&no_escalation),
        )?;
        if reg.status == ScanStatus::Degraded {
            degraded_scans += 1;
        } else {
            last_field = Some(reg.field.clone());
        }
        let fe = field_error(&reg.field, &seq.gt_forward[i], 1.5);
        stage_timings.accumulate(&reg.timings);
        outcomes.push(ScanOutcome {
            scan_index: i,
            stage: seq.stages[i],
            status: reg.status,
            field_error: fe,
            fem_iterations: reg.fem_iterations,
            surface_residual: reg.surface_residual,
            peak_recovered_mm: reg.field.max_magnitude(),
            timings: reg.timings,
        });
    }
    stage_timings.add_per_surgery(prepare_s, prepared.assembly_s(), &solver.timings());
    Ok(SequenceResult { outcomes, solver_stats: solver.stats(), degraded_scans, stage_timings })
}

/// Convenience: is the tumor present in a scan's labels?
pub fn has_tumor(scan: &PhantomScan) -> bool {
    scan.labels.count_label(labels::TUMOR) > 0
}

/// Total tissue volume (mm³) of a label in a scan — the paper's
/// "quantitative monitoring of treatment progress".
pub fn label_volume_mm3(seg: &Volume<u8>, label: u8) -> f64 {
    seg.count_label(label) as f64 * seg.spacing().voxel_volume()
}

/// Mean ground-truth displacement at a stage (diagnostic).
pub fn stage_mean_shift(seq: &ScanSequence, i: usize) -> f64 {
    seq.gt_forward[i].mean_magnitude()
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::volume::{Dims, Spacing};

    fn small_seq(n: usize, resect_from: usize) -> ScanSequence {
        generate_scan_sequence(
            &PhantomConfig {
                dims: Dims::new(32, 32, 24),
                spacing: Spacing::iso(4.5),
                ..Default::default()
            },
            &BrainShiftConfig { peak_shift_mm: 8.0, ..Default::default() },
            n,
            resect_from,
        )
    }

    #[test]
    fn sequence_shift_is_progressive() {
        let seq = small_seq(3, 3);
        assert_eq!(seq.scans.len(), 3);
        let m0 = stage_mean_shift(&seq, 0);
        let m1 = stage_mean_shift(&seq, 1);
        let m2 = stage_mean_shift(&seq, 2);
        assert!(m0 < m1 && m1 < m2, "{m0} {m1} {m2}");
        // Linear scaling: stage 2/3 ≈ 2× stage 1/3.
        assert!((m1 / m0 - 2.0).abs() < 0.05);
    }

    #[test]
    fn resection_applies_from_given_scan() {
        let seq = small_seq(3, 2);
        assert!(has_tumor(&seq.scans[0]));
        assert!(has_tumor(&seq.scans[1]));
        assert!(!has_tumor(&seq.scans[2]));
        assert!(seq.scans[2].labels.count_label(labels::RESECTION) > 0);
    }

    #[test]
    fn tumor_volume_monitoring() {
        let seq = small_seq(2, 2);
        let v_ref = label_volume_mm3(&seq.reference.labels, labels::TUMOR);
        let v_later = label_volume_mm3(&seq.scans[1].labels, labels::TUMOR);
        assert!(v_ref > 0.0);
        // Tumor still present (resect_from = 2), volume similar.
        assert!(v_later > 0.5 * v_ref);
    }

    #[test]
    fn sequence_reuses_one_assembly_and_factorization() {
        // The acceptance contract of the persistent context: an entire
        // multi-scan surgery performs exactly ONE stiffness assembly and
        // ONE preconditioner factorization, with every scan after the
        // first warm-started.
        let seq = small_seq(3, 3);
        let res = run_scan_sequence(&seq, &PipelineConfig { skip_rigid: true, ..Default::default() }).expect("sequence failed");
        let s = res.solver_stats;
        assert_eq!(s.assemblies, 1, "stiffness reassembled mid-surgery");
        assert_eq!(s.factorizations, 1, "preconditioner refactored mid-surgery");
        assert_eq!(s.solves, 3);
        assert_eq!(s.warm_started_solves, 2);
        // The whole-surgery breakdown carries both the once-per-surgery
        // costs and the per-scan work.
        let t = res.stage_timings;
        assert!(t.mesh_s > 0.0, "per-surgery preparation untimed");
        assert!(t.assembly_s > 0.0, "assembly untimed");
        assert!(t.factorization_s > 0.0, "factorization untimed");
        assert!(t.solve_s > 0.0 && t.classification_s > 0.0 && t.resample_s > 0.0);
        assert!(t.total_s() > 0.0);
    }

    #[test]
    fn sequence_registration_tracks_growing_shift() {
        let seq = small_seq(3, 3);
        let outcomes = run_scan_sequence(&seq, &PipelineConfig { skip_rigid: true, ..Default::default() }).expect("sequence failed").outcomes;
        assert_eq!(outcomes.len(), 3);
        // Recovered peak deformation grows along the sequence.
        assert!(
            outcomes[2].peak_recovered_mm > outcomes[0].peak_recovered_mm,
            "{} vs {}",
            outcomes[2].peak_recovered_mm,
            outcomes[0].peak_recovered_mm
        );
        for o in &outcomes {
            assert!(o.fem_iterations > 0);
            // Later scans (shift ≫ voxel size at this coarse 4.5 mm test
            // grid) must recover more signal than they miss; the earliest
            // scan's shift is at the discretization floor, so only a loose
            // bound applies there.
            let bound = if o.stage >= 0.5 { 1.0 } else { 2.0 };
            assert!(
                o.field_error.mean_error_mm < bound * o.field_error.mean_truth_mm,
                "scan {}: {} vs {}",
                o.scan_index,
                o.field_error.mean_error_mm,
                o.field_error.mean_truth_mm
            );
        }
    }
}

//! Multi-scan intraoperative sequences.
//!
//! "In each neurosurgery case several volumetric MRI scans were carried
//! out during surgery. The first scan was acquired at the beginning of the
//! procedure before any changes in the shape of the brain took place, and
//! then over the course of surgery other scans were acquired as the
//! surgeon checked the progress of tumor resection." This module
//! generates such a series — progressive brain shift, the tumor resected
//! in the final scans — with the ground-truth deformation of every scan.
//! It is a test fixture: the served path registers each scan with
//! [`PreparedSurgery::register_scan`](crate::PreparedSurgery::register_scan),
//! and the tests drive it through that call or the service.

use crate::case::{generate_elastic_case, ElasticCase, ElasticCaseOptions};
use brainshift_imaging::phantom::{forward_warp_labels, render_intensity, BrainShiftConfig, PhantomConfig, PhantomScan};
use brainshift_imaging::{labels, DisplacementField};

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
/// tumor is resected from scan `resect_from` onward. A test fixture:
/// `tests/failure_injection.rs` and the service suites read it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::volume::{Dims, Spacing};
    use brainshift_imaging::Volume;

    /// Convenience: is the tumor present in a scan's labels?
    fn has_tumor(scan: &PhantomScan) -> bool {
        scan.labels.data().contains(&labels::TUMOR)
    }

    /// Total tissue volume (mm³) of a label in a scan — the paper's
    /// "quantitative monitoring of treatment progress".
    fn label_volume_mm3(seg: &Volume<u8>, label: u8) -> f64 {
        let sp = seg.spacing();
        seg.data().iter().filter(|&&l| l == label).count() as f64 * sp.dx * sp.dy * sp.dz
    }

    /// Mean ground-truth displacement at a stage (diagnostic).
    fn stage_mean_shift(seq: &ScanSequence, i: usize) -> f64 {
        seq.gt_forward[i].mean_magnitude()
    }

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
        assert!(seq.scans[2].labels.data().contains(&labels::RESECTION));
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
}

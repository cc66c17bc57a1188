//! Integration: classifying only the band around the reference brain
//! boundary never changes what a served scan produces.
//!
//! `PreparedSurgery::register_scan` runs the k-NN on the voxels within
//! `SegmentConfig::band_mm` (plus the surface's reach) of the reference
//! brain boundary and gives every other voxel its reference label. The
//! distance force checks that the active surface only read φ and ∇φ
//! where they are provably those of a whole-volume classification, and a
//! scan that fails the check is classified and evolved again over the
//! whole volume. So on a 48×48×36 phantom every band width gives the
//! field, the nodal displacements and the surface residual of band ∞,
//! bit for bit, with or without the fallback. The verify script runs
//! this file at two thread counts: the guard's flag, and so the
//! fallback, must not depend on them.
//!
//! The distance force of a served scan is computed on the band only:
//! finite everywhere, saturated at ±B off the band, and guarding exactly
//! the cells the whole-volume transform's guard marks.
//!
//! On this phantom the k-NN's distance prior keeps the classified brain
//! boundary within about 10 mm of the reference even under a 20 mm
//! ground-truth peak, so the default 12 mm allowance holds both; the
//! 20 mm shift needs a narrower allowance (3 mm) to leave it, while the
//! 8 mm shift stays inside that one too.

use brainshift_core::{
    generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanRegistration, ScanSequence,
    SURFACE_FORCE_STEP,
};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{labels, Vec3, Volume};
use brainshift_segment::{largest_component, SegmentConfig};
use brainshift_surface::DistanceForce;

fn sequence(peak_shift_mm: f64, scans: usize) -> ScanSequence {
    generate_scan_sequence(
        &PhantomConfig { dims: Dims::new(48, 48, 36), spacing: Spacing::iso(3.0), ..Default::default() },
        &BrainShiftConfig { peak_shift_mm, ..Default::default() },
        scans,
        scans,
    )
}

/// Every scan of `seq` served in order on one warm context of a surgery
/// prepared with `band_mm`.
fn serve(seq: &ScanSequence, band_mm: f32) -> (usize, Vec<ScanRegistration>) {
    let cfg = PipelineConfig {
        skip_rigid: true,
        segment: SegmentConfig { band_mm, ..Default::default() },
        ..Default::default()
    };
    let prepared = PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare failed");
    let mut ctx = prepared.build_solver_context().expect("context build failed");
    let regs = seq
        .scans
        .iter()
        .map(|scan| {
            prepared
                .register_scan(&mut ctx, &scan.intensity, None, None, None)
                .expect("register failed")
        })
        .collect();
    (prepared.band().voxels().len(), regs)
}

fn vector_bits(vectors: &[Vec3]) -> Vec<u64> {
    vectors.iter().flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
}

/// Field, nodal displacements and surface residual of `got` are the
/// bits of `want`.
fn assert_same_bits(got: &ScanRegistration, want: &ScanRegistration, what: &str) {
    assert!(vector_bits(got.field.data()) == vector_bits(want.field.data()), "{what}: field differs");
    assert!(
        vector_bits(&got.fem.displacements) == vector_bits(&want.fem.displacements),
        "{what}: nodal displacements differ"
    );
    assert_eq!(got.surface_residual.to_bits(), want.surface_residual.to_bits(), "{what}: residual differs");
    assert_eq!(got.fem_iterations, want.fem_iterations, "{what}: iterations differ");
}

/// The classification sub-stages add up to the stage, fallback or not.
fn assert_substages_sum_to_classification(reg: &ScanRegistration) {
    let t = reg.timings;
    let sub = t.feature_s + t.knn_build_s + t.knn_query_s + t.morphology_s;
    assert!((sub - t.classification_s).abs() < 1e-9, "{sub} vs {}", t.classification_s);
}

#[test]
fn a_scan_within_the_allowance_classifies_the_band_only_and_keeps_every_bit() {
    let seq = sequence(8.0, 2);
    let (_, whole) = serve(&seq, f32::INFINITY);
    let (band, banded) = serve(&seq, SegmentConfig::default().band_mm);
    assert!(band < seq.reference.labels.dims().len());
    for (i, (got, want)) in banded.iter().zip(&whole).enumerate() {
        assert!(!want.band_fallback && want.reclassified_voxels == want.total_voxels);
        assert!(!got.band_fallback, "scan {i} fell back");
        assert_eq!(got.reclassified_voxels, band);
        assert!(got.knn_leaf_visits < want.knn_leaf_visits);
        assert_substages_sum_to_classification(got);
        assert_same_bits(got, want, &format!("8 mm scan {i}"));
    }
}

#[test]
fn a_shift_beyond_the_allowance_falls_back_to_the_whole_volume_bits() {
    let narrow = 3.0;
    let seq = sequence(20.0, 1);
    let (_, whole) = serve(&seq, f32::INFINITY);
    let (band, banded) = serve(&seq, narrow);
    let (got, want) = (&banded[0], &whole[0]);
    assert!(got.band_fallback, "a 20 mm shift must leave a 3 mm allowance");
    assert_eq!(got.reclassified_voxels, band + got.total_voxels);
    assert!(got.knn_leaf_visits > want.knn_leaf_visits);
    assert_eq!(got.segmentation.data(), want.segmentation.data());
    assert_same_bits(got, want, "20 mm scan");
    // The discarded band pass is timed: its sub-stages are in the totals.
    assert_substages_sum_to_classification(got);
    assert!(got.timings.classification_s > 0.0 && got.timings.surface_s > 0.0);
    // The same allowance holds an 8 mm shift, with the same bits.
    let seq = sequence(8.0, 1);
    let (_, whole) = serve(&seq, f32::INFINITY);
    let (_, small) = serve(&seq, narrow);
    assert!(!small[0].band_fallback, "an 8 mm shift stays inside a 3 mm allowance");
    assert_same_bits(&small[0], &whole[0], "8 mm scan, 3 mm allowance");
}

#[test]
fn a_zero_allowance_sends_every_scan_to_the_fallback_with_the_same_bits() {
    let seq = sequence(8.0, 2);
    let (_, whole) = serve(&seq, f32::INFINITY);
    let (band, banded) = serve(&seq, 0.0);
    for (i, (got, want)) in banded.iter().zip(&whole).enumerate() {
        assert!(got.band_fallback, "scan {i} stayed in a zero-width allowance");
        assert_eq!(got.reclassified_voxels, band + got.total_voxels);
        assert_substages_sum_to_classification(got);
        assert_same_bits(got, want, &format!("zero-allowance scan {i}"));
    }
}

/// The exact cells of the band guard computed from the whole-volume φ:
/// a voxel is *ok* when |φ| + |φ_ref| < B (with the guard's slack),
/// *exact* when it and its in-grid 6-neighbours are ok, and a cell,
/// indexed by its lower corner with the upper one clamped into the grid,
/// is exact when its eight corners are.
fn exact_cells_of_whole_phi(phi: &Volume<f32>, reference: &[f32], band: f32) -> (Vec<bool>, Vec<u8>) {
    let d = phi.dims();
    let limit = f64::from(band) / (1.0 + 1e-6);
    let ok: Vec<bool> =
        phi.data().iter().zip(reference).map(|(&p, &r)| f64::from(p.abs()) + f64::from(r) < limit).collect();
    let at = |x: usize, y: usize, z: usize| d.index(x.min(d.nx - 1), y.min(d.ny - 1), z.min(d.nz - 1));
    let exact: Vec<bool> = (0..d.len())
        .map(|i| {
            let (x, y, z) = d.coords(i);
            let (xl, yl, zl) = (x.saturating_sub(1), y.saturating_sub(1), z.saturating_sub(1));
            [at(x, y, z), at(xl, y, z), at(x + 1, y, z), at(x, yl, z), at(x, y + 1, z), at(x, y, zl), at(x, y, z + 1)]
                .iter()
                .all(|&j| ok[j])
        })
        .collect();
    let cells = (0..d.len())
        .map(|i| {
            let (x, y, z) = d.coords(i);
            let corners = (0..8).map(|c| at(x + (c & 1), y + ((c >> 1) & 1), z + (c >> 2)));
            u8::from(corners.into_iter().all(|j| exact[j]))
        })
        .collect();
    (exact, cells)
}

#[test]
fn a_served_scans_force_is_computed_on_the_band_and_guards_the_whole_volume_cells() {
    let seq = sequence(8.0, 1);
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let prepared = PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare failed");
    let mut ctx = prepared.build_solver_context().expect("context build failed");
    let reg = prepared
        .register_scan(&mut ctx, &seq.scans[0].intensity, None, None, None)
        .expect("register failed");
    assert!(!reg.band_fallback);
    // The served scan's target, classified on the band.
    let target = largest_component(&reg.segmentation.map(|&l| labels::is_brain_tissue(l)));
    let (band, step) = (prepared.band(), SURFACE_FORCE_STEP);
    let guarded = DistanceForce::from_mask(&target, Some(band), step).expect("target on the band's grid");
    let whole = DistanceForce::from_mask(&target, None, step).expect("unbanded force");
    let b = band.width();
    let [gx, gy, gz] = guarded.grad();
    for (i, &phi) in guarded.phi().data().iter().enumerate() {
        assert!(phi.is_finite() && gx[i].is_finite() && gy[i].is_finite() && gz[i].is_finite(), "voxel {i}");
        if !band.member().data()[i] {
            assert_eq!(phi.abs(), b, "voxel {i} off the band is not saturated");
            assert_eq!([gx[i], gy[i], gz[i]], [0.0; 3], "voxel {i} off the band has a gradient");
        }
    }
    let (exact, cells) = exact_cells_of_whole_phi(whole.phi(), band.distance(), b);
    assert_eq!(guarded.exact_cells(), Some(&cells[..]), "exact cells differ from the whole-volume rule");
    assert!(cells.contains(&1) && cells.contains(&0));
    // Where the guard trusts them, φ and ∇φ are the whole-volume bits.
    let whole_grad = whole.grad();
    for i in (0..exact.len()).filter(|&i| exact[i]) {
        assert_eq!(guarded.phi().data()[i].to_bits(), whole.phi().data()[i].to_bits(), "φ at exact voxel {i}");
        for (g, w) in guarded.grad().iter().zip(&whole_grad) {
            assert_eq!(g[i].to_bits(), w[i].to_bits(), "∇φ at exact voxel {i}");
        }
    }
    // A mask on another grid is a typed error, not a panic.
    let foreign = Volume::filled(Dims::new(4, 4, 4), seq.reference.labels.spacing(), false);
    assert!(DistanceForce::from_mask(&foreign, Some(band), step).is_err());
}

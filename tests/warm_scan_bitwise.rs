//! Integration: the warm per-scan path is pinned bit for bit.
//!
//! Three consecutive scans of two phantoms go through
//! `PreparedSurgery::register_scan` on one warm `SolverContext`; the
//! FNV-1a hash over `f64::to_bits` of every field component, the Krylov
//! iteration count and the bits of the surface residual must equal the
//! constants below.
//!
//! The one-shot form is pinned the same way: `run_pipeline` is
//! `PreparedSurgery::new` + `build_solver_context` + one `register_scan`
//! behind input alignment, and every output it hands back — forward and
//! backward field, warped reference, segmentation, nodal displacements,
//! iterations, residual — must equal the constants.
//!
//! The constants were regenerated once, deliberately, when preconditioned
//! CG on block-Jacobi IC(0) replaced GMRES on block-Jacobi ILU(0) as the
//! default solve (DESIGN §3): the field, displacement, iteration and
//! warped-reference entries moved. Every segmentation hash and every
//! distance-potential surface residual kept its bits — the k-NN leaf-scan
//! rewrite that landed with it reproduces the previous constants on its
//! own. The two image-gradient residuals moved in the ninth digit: that
//! force reads the scan's intensities, and the elastic case synthesizes
//! the scan from a ground-truth solve with the default solver.
//!
//! They were regenerated a second time when `assemble_stiffness` began
//! summing each entry of `K` in ascending tet order instead of in the
//! order an unstable sort of its triplets left: the pattern of `K` kept
//! every index and about one value in eight moved in its last bits. Every
//! field, backward-field and nodal-displacement hash moved, and so did
//! the two image-gradient cases' warped references and the 48×48×36
//! image-gradient residual (its scan comes from a ground-truth solve on
//! the same kind of `K`). Every Krylov iteration count, every
//! segmentation hash and every other surface residual kept its bits.
//!
//! They were regenerated a third time when IC(0) moved onto the filled
//! node-block pattern and the block-Jacobi blocks onto node boundaries:
//! every field, backward-field, warped-reference and nodal-displacement
//! hash moved. Iterations went 27, 28, 27 → 26, 28, 26 on the warm
//! anisotropic scans, 33 → 32 on the 48×48×36 image-gradient case and
//! 29 → 28 on the drifted one; every other count kept its value. Every
//! segmentation hash and every distance-potential residual kept its
//! bits; the two image-gradient residuals moved in the ninth digit, as
//! their scans come from a ground-truth solve with the default solver.
//!
//! Every Krylov kernel — the dense reductions in fixed blocks, the
//! row-parallel SpMV, the per-block preconditioner — gives the same bits
//! at any thread count, so the constants hold at any `RAYON_NUM_THREADS`.

use brainshift_core::{
    generate_elastic_case, generate_scan_sequence, run_pipeline, ElasticCase, ElasticCaseOptions,
    PipelineConfig, PreparedSurgery, ScanStatus, SurfaceForceKind,
};
use brainshift_imaging::phantom::{apply_rigid_misalignment, BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{DisplacementField, Mat3, Vec3, Volume};

/// Per scan: field hash, Krylov iterations, `surface_residual.to_bits()`.
type Golden = [(u64, usize, u64); 3];

const GOLDEN_ISO_32X32X24: Golden = [
    (0x7875_854f_f4a5_6f90, 23, 0x3ff9_ea82_b660_f4f2),
    (0x75bb_26fc_82a7_2f81, 25, 0x3ff9_8b6b_6213_66e9),
    (0x7aba_37ac_31c1_6790, 23, 0x3ff9_d242_77d3_22df),
];

const GOLDEN_ANISO_48X40X30: Golden = [
    (0x6593_b08c_3054_9e8e, 26, 0x3ff9_28b9_5441_2ec9),
    (0x6cd9_7403_cf0d_a473, 28, 0x3ff8_a37b_88b9_7eb0),
    (0x57a5_0dcd_6d0a_0f08, 26, 0x3ff7_94be_6dc2_23bf),
];

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn fnv1a_vectors(vectors: &[Vec3]) -> u64 {
    fnv1a(vectors.iter().flat_map(|v| [v.x, v.y, v.z]).flat_map(|c| c.to_bits().to_le_bytes()))
}

fn fnv1a_field(field: &DisplacementField) -> u64 {
    fnv1a_vectors(field.data())
}

fn three_warm_scans(dims: Dims, spacing: Spacing) -> Golden {
    let seq = generate_scan_sequence(
        &PhantomConfig { dims, spacing, ..Default::default() },
        &BrainShiftConfig { peak_shift_mm: 8.0, ..Default::default() },
        3,
        3,
    );
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let prepared = PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare failed");
    let mut ctx = prepared.build_solver_context().expect("context build failed");
    let mut carry: Option<DisplacementField> = None;
    let mut out = [(0, 0, 0); 3];
    for (slot, scan) in out.iter_mut().zip(&seq.scans) {
        let reg = prepared
            .register_scan(&mut ctx, &scan.intensity, carry.as_ref(), None, None)
            .expect("register failed");
        assert_eq!(reg.status, ScanStatus::Converged);
        *slot = (fnv1a_field(&reg.field), reg.fem_iterations, reg.surface_residual.to_bits());
        carry = Some(reg.field);
    }
    assert_eq!(ctx.stats().assemblies, 1, "all three scans must run on the one warm context");
    out
}

#[test]
fn isotropic_phantom_scans_are_bit_identical_to_the_parent() {
    let got = three_warm_scans(Dims::new(32, 32, 24), Spacing::iso(4.5));
    assert_eq!(got, GOLDEN_ISO_32X32X24, "got {got:#x?}");
}

#[test]
fn anisotropic_phantom_scans_are_bit_identical_to_the_parent() {
    let got = three_warm_scans(Dims::new(48, 40, 30), Spacing::new(3.0, 3.6, 4.0));
    assert_eq!(got, GOLDEN_ANISO_48X40X30, "got {got:#x?}");
}

/// One `run_pipeline` call: FNV-1a of the forward field, the backward
/// field, the warped reference's `f32` bits, the segmentation bytes and
/// the nodal displacements; Krylov iterations; `surface_residual.to_bits()`.
type OneShotGolden = ([u64; 5], usize, u64);

const GOLDEN_ONE_SHOT_ISO_48X48X36: OneShotGolden = (
    [
        0xeb9d_c00f_8a3e_3bac,
        0x37bb_fed0_f674_d874,
        0x3e0f_e6e6_7c0a_0b66,
        0x9dd2_5117_6ea9_563a,
        0xcf49_d95d_52d0_884e,
    ],
    33,
    0x3ff9_9012_0526_f162,
);
const GOLDEN_ONE_SHOT_GRADIENT_48X48X36: OneShotGolden = (
    [
        0xe2b2_e88d_2af3_aeae,
        0x4a3e_3880_1f2d_3245,
        0xb4fb_1690_812d_8ad1,
        0x9dd2_5117_6ea9_563a,
        0x8a48_965b_1b3a_1e83,
    ],
    32,
    0x3fe4_fade_6af6_6510,
);
const GOLDEN_ONE_SHOT_ANISO_48X40X30: OneShotGolden = (
    [
        0x631e_afbe_945d_3f78,
        0x885b_4d7c_144f_cc81,
        0x4cb1_401a_d35f_f7cc,
        0x2e2e_599c_5525_de01,
        0x419d_d46e_a139_e42c,
    ],
    27,
    0x3ff7_5b71_1f80_ac6b,
);
const GOLDEN_ONE_SHOT_DRIFT_40X40X30: OneShotGolden = (
    [
        0xaab1_8586_9111_82e7,
        0x2344_b276_e139_7b87,
        0x4443_164c_7169_fe5a,
        0x9552_e710_7b56_2e4f,
        0x8a8a_2a15_9a16_a4c5,
    ],
    28,
    0x3ffa_e432_05e3_2614,
);
const GOLDEN_ONE_SHOT_DRIFT_GRADIENT_40X40X30: OneShotGolden = (
    [
        0x7acb_7509_1705_cc78,
        0x0575_c813_74bd_a36a,
        0xaa12_2210_2f4b_75f7,
        0x9552_e710_7b56_2e4f,
        0xf65c_8099_12f6_b5a0,
    ],
    28,
    0x3fe5_9eec_a6b3_4232,
);
const GOLDEN_ONE_SHOT_RIGID_40X40X30: OneShotGolden = (
    [
        0x8eca_579d_d75e_b1b7,
        0xcc7f_b416_093b_7d0b,
        0x7199_7d8b_1627_446d,
        0xdf10_d9fe_2c4f_1e1f,
        0x0eae_5e4d_9419_521f,
    ],
    29,
    0x3ffb_7b14_4417_bc2f,
);

fn elastic_case(dims: Dims, spacing: Spacing, resect_tumor: bool) -> ElasticCase {
    generate_elastic_case(
        &PhantomConfig { dims, spacing, ..Default::default() },
        &BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor, ..Default::default() },
        &ElasticCaseOptions::default(),
    )
}

fn one_shot(case: &ElasticCase, scan: &Volume<f32>, cfg: &PipelineConfig) -> OneShotGolden {
    let res = run_pipeline(&case.preop.intensity, &case.preop.labels, scan, cfg).expect("pipeline failed");
    assert!(res.fem.stats.converged());
    let hashes = [
        fnv1a_field(&res.forward_field),
        fnv1a_field(&res.backward_field),
        fnv1a(res.warped_reference.data().iter().flat_map(|v| v.to_bits().to_le_bytes())),
        fnv1a(res.intraop_seg.data().iter().copied()),
        fnv1a_vectors(&res.fem.displacements),
    ];
    (hashes, res.fem.stats.iterations, res.surface_residual.to_bits())
}

fn shared_frame() -> PipelineConfig {
    PipelineConfig { skip_rigid: true, ..Default::default() }
}

/// Scanner drift between acquisitions: gain 1.6, offset 40.
fn drifted(scan: &Volume<f32>) -> Volume<f32> {
    scan.map(|&v| 1.6 * v + 40.0)
}

#[test]
fn one_shot_pipeline_is_bit_identical_to_the_parent_monolith() {
    let case = elastic_case(Dims::new(48, 48, 36), Spacing::iso(3.0), false);
    let got = one_shot(&case, &case.intraop.intensity, &shared_frame());
    assert_eq!(got, GOLDEN_ONE_SHOT_ISO_48X48X36, "got {got:#x?}");
    // The paper's image-gradient force is reachable only through
    // `PipelineConfig::surface_force`; `register_scan` must honour it.
    let gradient = PipelineConfig { surface_force: SurfaceForceKind::ImageGradient, ..shared_frame() };
    let got = one_shot(&case, &case.intraop.intensity, &gradient);
    assert_eq!(got, GOLDEN_ONE_SHOT_GRADIENT_48X48X36, "got {got:#x?}");
}

#[test]
fn one_shot_pipeline_on_an_anisotropic_resection_case_is_bit_identical_to_the_parent_monolith() {
    let case = elastic_case(Dims::new(48, 40, 30), Spacing::new(3.0, 3.6, 4.0), true);
    let got = one_shot(&case, &case.intraop.intensity, &shared_frame());
    assert_eq!(got, GOLDEN_ONE_SHOT_ANISO_48X40X30, "got {got:#x?}");
}

#[test]
fn one_shot_input_alignment_is_bit_identical_to_the_parent_monolith() {
    let case = elastic_case(Dims::new(40, 40, 30), Spacing::iso(3.6), true);
    // Histogram matching against the reference before the per-surgery split.
    let scan = drifted(&case.intraop.intensity);
    let normalized = PipelineConfig { normalize_intensity: true, ..shared_frame() };
    let got = one_shot(&case, &scan, &normalized);
    assert_eq!(got, GOLDEN_ONE_SHOT_DRIFT_40X40X30, "got {got:#x?}");
    let both = PipelineConfig { surface_force: SurfaceForceKind::ImageGradient, ..normalized };
    let got = one_shot(&case, &scan, &both);
    assert_eq!(got, GOLDEN_ONE_SHOT_DRIFT_GRADIENT_40X40X30, "got {got:#x?}");
    // MI rigid registration of the reference into the scan's frame.
    let moved =
        apply_rigid_misalignment(&case.intraop, Mat3::rot_z(0.04), Vec3::new(1.5, -1.0, 0.5));
    let got = one_shot(&case, &moved.intensity, &PipelineConfig::default());
    assert_eq!(got, GOLDEN_ONE_SHOT_RIGID_40X40X30, "got {got:#x?}");
}

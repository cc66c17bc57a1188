//! Integration: the warm per-scan path is pinned bit for bit.
//!
//! Three consecutive scans of two phantoms go through
//! `PreparedSurgery::register_scan` on one warm `SolverContext`; the
//! FNV-1a hash over `f64::to_bits` of every field component, the Krylov
//! iteration count and the bits of the surface residual must equal the
//! constants below. The constants were generated on the commit *before*
//! the resample plan, the fused Gram–Schmidt sweep, the single-touch ILU
//! sweep, the in-place distance transform and the stencil gradient
//! landed, so any of those changing one bit of any output fails here.
//!
//! The one-shot form is pinned the same way: `run_pipeline` is
//! `PreparedSurgery::new` + `build_solver_context` + one `register_scan`
//! behind input alignment, and every output it hands back — forward and
//! backward field, warped reference, segmentation, nodal displacements,
//! iterations, residual — must equal the constants generated on the last
//! commit where `run_pipeline` was a second, monolithic copy of the
//! stages (`e99a9c6`).
//!
//! Every mesh stays under the BLAS-1 kernels' parallel threshold (2¹⁴
//! elements), so every reduction is one left-to-right sum and the hashes
//! hold at any `RAYON_NUM_THREADS`.

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
    (0x743b_a800_2da8_d3be, 22, 0x3ff9_ea82_b660_f4f2),
    (0xade3_80dc_5e91_b851, 27, 0x3ff9_8b6b_6213_66e9),
    (0x69f6_1f52_fd39_1234, 25, 0x3ff9_d242_77d3_22df),
];

const GOLDEN_ANISO_48X40X30: Golden = [
    (0x3a43_9932_ff1d_2831, 27, 0x3ff9_28b9_5441_2ec9),
    (0xeaeb_533f_b7ea_5986, 30, 0x3ff8_a37b_88b9_7eb0),
    (0x8390_81e6_5a09_bbcf, 25, 0x3ff7_94be_6dc2_23bf),
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
    assert!(
        3 * prepared.mesh().num_nodes() < 1 << 14,
        "{} nodes: the reductions would go parallel and the hashes would depend on the thread count",
        prepared.mesh().num_nodes()
    );
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
        0x2744_0d27_493a_1db4,
        0xac1d_f171_5bb6_2ef8,
        0x3e92_82b1_4eb5_62c3,
        0x9dd2_5117_6ea9_563a,
        0x0ca5_745d_35d3_aa95,
    ],
    36,
    0x3ff9_9012_0526_f162,
);
const GOLDEN_ONE_SHOT_GRADIENT_48X48X36: OneShotGolden = (
    [
        0x368a_fad4_988b_6bb5,
        0xcdd9_f2f8_4dc7_5078,
        0x9ce2_890a_8737_009c,
        0x9dd2_5117_6ea9_563a,
        0x2ab4_b105_02b3_d983,
    ],
    35,
    0x3fe4_fade_6a77_7057,
);
const GOLDEN_ONE_SHOT_ANISO_48X40X30: OneShotGolden = (
    [
        0xb8fb_348d_4d9c_4a5e,
        0x3731_b26c_aa36_259a,
        0xa5fb_d078_c799_e109,
        0x2e2e_599c_5525_de01,
        0x1f86_432b_83f0_30ee,
    ],
    29,
    0x3ff7_5b71_1f80_ac6b,
);
const GOLDEN_ONE_SHOT_DRIFT_40X40X30: OneShotGolden = (
    [
        0xb3e7_a6e5_19ed_234c,
        0xbd22_cb6f_0e74_7139,
        0x709b_6695_9523_ff93,
        0x9552_e710_7b56_2e4f,
        0x2c4b_79ef_bb5f_1064,
    ],
    28,
    0x3ffa_e432_05e3_2614,
);
const GOLDEN_ONE_SHOT_DRIFT_GRADIENT_40X40X30: OneShotGolden = (
    [
        0x8b8c_907f_a05b_4303,
        0x5a81_328a_d9ac_2f5d,
        0x0b77_0f8d_b339_11c9,
        0x9552_e710_7b56_2e4f,
        0x8c64_519e_b695_8930,
    ],
    28,
    0x3fe5_9eec_aa8b_6c60,
);
const GOLDEN_ONE_SHOT_RIGID_40X40X30: OneShotGolden = (
    [
        0x7255_6577_3763_3beb,
        0x9e65_536d_f94f_be37,
        0xbd64_001c_5c83_7207,
        0xdf10_d9fe_2c4f_1e1f,
        0x7b3a_bc40_13f7_6b9e,
    ],
    32,
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
    assert!(
        3 * res.mesh.num_nodes() < 1 << 14,
        "{} nodes: the reductions would go parallel and the hashes would depend on the thread count",
        res.mesh.num_nodes()
    );
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

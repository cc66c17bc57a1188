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
//! Both meshes stay under the BLAS-1 kernels' parallel threshold (2¹⁴
//! elements), so every reduction is one left-to-right sum and the hashes
//! hold at any `RAYON_NUM_THREADS`.

use brainshift_core::{generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanStatus};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::DisplacementField;

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

fn fnv1a_field(field: &DisplacementField) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in field.data() {
        for c in [v.x, v.y, v.z] {
            for b in c.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
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

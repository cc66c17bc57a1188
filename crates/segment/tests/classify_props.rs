//! Property test of the per-scan classification hot path: the parallel
//! slab classifier is bit-identical to the serial oracle, so the result
//! never depends on the worker thread count.

use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_segment::{classify_matrix, classify_matrix_serial, FeatureStack, KdTree, Prototype};
use proptest::prelude::*;

/// Fixed test grid: 13 248 rows, i.e. three full 4096-row classifier
/// slabs and a ragged 960-row tail, so the parallel pass really splits.
const DIMS: (usize, usize, usize) = (24, 24, 23);
const N_VOX: usize = DIMS.0 * DIMS.1 * DIMS.2;

/// Two-channel feature stack: a generated intensity channel plus a fixed
/// synthetic "distance" channel.
fn stack(intensity: &[f32]) -> FeatureStack {
    let dims = Dims::new(DIMS.0, DIMS.1, DIMS.2);
    let sp = Spacing::iso(1.0);
    let mut fs =
        FeatureStack::from_intensity(Volume::from_vec(dims, sp, intensity[..N_VOX].to_vec()));
    let aux = Volume::from_fn(dims, sp, |x, y, z| (x + 2 * y + 3 * z) as f32 * 0.25);
    fs.push_channel(aux, 0.75);
    fs
}

fn prototypes(raw: &[(f32, f32, u8)]) -> Vec<Prototype> {
    raw.iter().map(|&(a, b, l)| Prototype { features: vec![a, b], label: l }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel slab classifier equals the serial oracle bit-for-bit,
    /// labels and traversal count alike. Slab decomposition depends on
    /// the worker count, so this equality — checked under different
    /// `RAYON_NUM_THREADS` by the verify script — is the thread-count
    /// determinism guarantee.
    #[test]
    fn parallel_classification_matches_serial_oracle(
        base in prop::collection::vec(-5.0f32..5.0, N_VOX),
        // Up to three 32-point leaves, so the visit count depends on pruning.
        protos_raw in prop::collection::vec((-8.0f32..8.0, -8.0f32..8.0, 1u8..6), 3..96),
        k in 1usize..8,
    ) {
        let tree = KdTree::build(prototypes(&protos_raw)).expect("generated prototypes are valid");
        let matrix = stack(&base).to_matrix();
        let (par, par_visits) = classify_matrix(&matrix, &tree, k);
        let (ser, ser_visits) = classify_matrix_serial(&matrix, &tree, k);
        prop_assert_eq!(par.data(), ser.data());
        prop_assert_eq!(par_visits, ser_visits);
    }
}

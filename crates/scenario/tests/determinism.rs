//! Property tests: scenario generation is a pure function of
//! `(ScenarioKind, seed)`.
//!
//! Two invocations with the same pair must agree **bitwise** — node
//! fields, intraoperative intensities, stats — regardless of thread
//! count (`scripts/verify.sh` runs this file at `RAYON_NUM_THREADS=1`
//! and `=4`); distinct seeds must produce genuinely different cases.
//! Case counts are kept small: each proptest case is a full FEM ground
//! truth, so six per property is already ~50 generator runs.

use brainshift_scenario::{generate_scenario, ScenarioKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn same_seed_same_kind_is_bitwise_identical(
        seed in 0u64..48,
        kind_idx in 0usize..4,
    ) {
        let kind = ScenarioKind::ALL[kind_idx];
        let a = generate_scenario(kind, seed);
        let b = generate_scenario(kind, seed);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.name, &b.name);
                prop_assert_eq!(a.keypoint_order, b.keypoint_order);
                prop_assert_eq!(a.stats.carve_retries, b.stats.carve_retries);
                prop_assert_eq!(a.stats.contact_clamped_nodes, b.stats.contact_clamped_nodes);
                prop_assert_eq!(
                    a.stats.peak_displacement_mm.to_bits(),
                    b.stats.peak_displacement_mm.to_bits()
                );
                prop_assert_eq!(a.gt_displacements.len(), b.gt_displacements.len());
                for (u, v) in a.gt_displacements.iter().zip(&b.gt_displacements) {
                    prop_assert_eq!(u.x.to_bits(), v.x.to_bits());
                    prop_assert_eq!(u.y.to_bits(), v.y.to_bits());
                    prop_assert_eq!(u.z.to_bits(), v.z.to_bits());
                }
                for (x, y) in
                    a.intraop_intensity.data().iter().zip(b.intraop_intensity.data())
                {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            // A failing seed must at least fail identically.
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "same (kind, seed) disagreed on success: {:?} vs {:?}",
                    a.map(|c| c.name),
                    b.map(|c| c.name)
                )))
            }
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_cases(
        seed in 0u64..32,
        kind_idx in 0usize..4,
    ) {
        let kind = ScenarioKind::ALL[kind_idx];
        let a = generate_scenario(kind, seed);
        let b = generate_scenario(kind, seed + 1);
        if let (Ok(a), Ok(b)) = (a, b) {
            prop_assert!(a.name != b.name, "names collided: {}", a.name);
            // The seeded direction/magnitude draws must actually move the
            // physics, not just the label.
            prop_assert!(
                a.stats.peak_displacement_mm.to_bits()
                    != b.stats.peak_displacement_mm.to_bits(),
                "seeds {} and {} produced identical peak displacement",
                seed,
                seed + 1
            );
        }
    }
}

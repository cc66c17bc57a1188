//! Stateless seeded randomness for scenario generation.
//!
//! Same discipline as `imaging::phantom::voxel_gaussian`: every draw is a
//! pure function of `(seed, stream tag, draw index)` hashed through
//! SplitMix64 — no generator state is threaded between draws, so
//! generation cannot depend on traversal order, thread count, or how many
//! draws an earlier stage consumed. Stream tags keep the per-stage
//! sub-sequences independent (adding a draw to one stage cannot shift
//! another stage's values).

use brainshift_imaging::Vec3;

/// SplitMix64 finalizer.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit word from `(seed, stream, index)`.
pub fn draw_u64(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(
        seed ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ index.wrapping_mul(0x1656_67B1_9E37_79F9),
    )
}

/// Uniform draw in `[0, 1)`.
pub fn draw_unit(seed: u64, stream: u64, index: u64) -> f64 {
    (draw_u64(seed, stream, index) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform draw in `[lo, hi)`.
pub fn draw_range(seed: u64, stream: u64, index: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * draw_unit(seed, stream, index)
}

/// A seeded unit direction on the upper hemisphere (z component in
/// `[min_z, 1]`) — craniotomy axes point "up-ish" in patient coordinates.
pub fn draw_up_direction(seed: u64, stream: u64, min_z: f64) -> Vec3 {
    let z = draw_range(seed, stream, 0, min_z, 1.0);
    let phi = draw_range(seed, stream, 1, 0.0, std::f64::consts::TAU);
    let r = (1.0 - z * z).max(0.0).sqrt();
    Vec3::new(r * phi.cos(), r * phi.sin(), z)
}

/// Seeded Fisher–Yates permutation of `0..n`. The shuffle itself is
/// sequential, but every swap partner is a pure `(seed, stream, i)` draw,
/// so the permutation is a deterministic function of its inputs.
pub fn draw_permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (draw_u64(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_reproducible_and_stream_separated() {
        assert_eq!(draw_u64(7, 1, 0), draw_u64(7, 1, 0));
        assert_ne!(draw_u64(7, 1, 0), draw_u64(7, 2, 0));
        assert_ne!(draw_u64(7, 1, 0), draw_u64(8, 1, 0));
        let u = draw_unit(42, 3, 9);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn up_direction_is_unit_and_upward() {
        for s in 0..50u64 {
            let d = draw_up_direction(s, 5, 0.4);
            assert!((d.norm() - 1.0).abs() < 1e-12);
            assert!(d.z >= 0.4 - 1e-12);
        }
    }

    #[test]
    fn permutation_is_a_bijection_and_seed_sensitive() {
        let p = draw_permutation(11, 9, 100);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert_eq!(p, draw_permutation(11, 9, 100));
        assert_ne!(p, draw_permutation(12, 9, 100));
    }
}

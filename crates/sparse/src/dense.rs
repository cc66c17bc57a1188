//! Dense vector kernels and a small dense LU factorization.
//!
//! The Krylov solvers are built on these BLAS-1 style kernels; the dense LU
//! supports exact block solves in the block-Jacobi preconditioner (used for
//! small blocks and for tests; large blocks use IC(0)).

use rayon::prelude::*;

/// Threshold below which parallel reductions aren't worth the overhead.
const PAR_THRESHOLD: usize = 1 << 14;

/// From [`PAR_THRESHOLD`] elements up, a reduction sums fixed blocks of
/// this many elements, each left to right, and then the block sums in
/// block order. The threads only share out the blocks, so every result
/// is the same bits at any thread count.
const REDUCTION_BLOCK: usize = 1 << 12;

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let serial = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    if a.len() < PAR_THRESHOLD {
        return serial(a, b);
    }
    let partials: Vec<f64> = a
        .par_chunks(REDUCTION_BLOCK)
        .zip(b.par_chunks(REDUCTION_BLOCK))
        .map(|(a, b)| serial(a, b))
        .collect();
    partials.into_iter().sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if x.len() >= PAR_THRESHOLD {
        y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, xi)| *yi += alpha * xi);
    } else {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }
}

/// `y += alpha * x`, then `y · z` over the updated `y` (`y · y` when `z`
/// is `None`), in one pass over the data.
///
/// Bit for bit [`axpy`]`(alpha, x, y)` followed by [`dot`]`(y, z)`: per
/// element the same update and the same product, per block the same
/// left-to-right sum, the same blocks as `dot` ([`REDUCTION_BLOCK`]
/// elements from [`PAR_THRESHOLD`] up, one block below it), block sums
/// added in block order. What it saves is a second trip through the pool
/// and a second read of `y`.
pub fn axpy_then_dot(alpha: f64, x: &[f64], y: &mut [f64], z: Option<&[f64]>) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    debug_assert!(z.is_none_or(|z| z.len() == y.len()));
    let sweep = |x: &[f64], y: &mut [f64], z: Option<&[f64]>| -> f64 {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
        match z {
            Some(z) => y.iter().zip(z).map(|(a, b)| a * b).sum(),
            None => y.iter().map(|a| a * a).sum(),
        }
    };
    if y.len() < PAR_THRESHOLD {
        return sweep(x, y, z);
    }
    let block = REDUCTION_BLOCK;
    let partials: Vec<f64> = y
        .par_chunks_mut(block)
        .zip(x.par_chunks(block))
        .enumerate()
        .map(|(c, (y, x))| sweep(x, y, z.map(|z| &z[c * block..c * block + y.len()])))
        .collect();
    partials.into_iter().sum()
}

/// `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    if x.len() >= PAR_THRESHOLD {
        x.par_iter_mut().for_each(|v| *v *= alpha);
    } else {
        for v in x {
            *v *= alpha;
        }
    }
}

/// `y = x + alpha * y` (PETSc's `VecAYPX`: the CG direction update).
pub fn aypx(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if x.len() >= PAR_THRESHOLD {
        y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, xi)| *yi = xi + alpha * *yi);
    } else {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = xi + alpha * *yi;
        }
    }
}

/// Copy `src` into `dst`.
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// A dense LU factorization with partial pivoting (row-major storage).
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    /// Combined L (unit lower) and U factors.
    lu: Vec<f64>,
    /// Row permutation.
    piv: Vec<usize>,
}

impl DenseLu {
    /// Factorize a row-major `n × n` matrix. Returns `None` if singular to
    /// working precision.
    pub fn factorize(a: &[f64], n: usize) -> Option<DenseLu> {
        debug_assert_eq!(a.len(), n * n);
        let mut lu = a.to_vec();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let m = lu[i * n + k] / pivot;
                lu[i * n + k] = m;
                for j in (k + 1)..n {
                    lu[i * n + j] -= m * lu[k * n + j];
                }
            }
        }
        Some(DenseLu { n, lu, piv })
    }

    /// Heap footprint of the stored factors, in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.lu.as_slice()) + std::mem::size_of_val(self.piv.as_slice())
    }

    /// Solve `A x = b`, writing x into `out`.
    pub fn solve(&self, b: &[f64], out: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        debug_assert_eq!(out.len(), n);
        // Apply permutation.
        for i in 0..n {
            out[i] = b[self.piv[i]];
        }
        // Forward substitution with unit lower factor.
        for i in 1..n {
            let mut acc = out[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * out[j];
            }
            out[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = out[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * out[j];
            }
            out[i] = acc / self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let a = vec![3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
    }

    #[test]
    fn axpy_and_scale() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![6.0, 12.0, 18.0]);
        aypx(0.5, &x, &mut y);
        assert_eq!(y, vec![4.0, 8.0, 12.0]);
    }

    #[test]
    fn parallel_aypx_is_the_serial_update_bit_for_bit() {
        let n = PAR_THRESHOLD + 7;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut y = y0.clone();
        aypx(-0.73, &x, &mut y);
        for i in 0..n {
            assert_eq!(y[i].to_bits(), (x[i] + -0.73 * y0[i]).to_bits(), "element {i}");
        }
    }

    #[test]
    fn large_parallel_dot_matches_serial() {
        let n = PAR_THRESHOLD + 7;
        let a: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i + 3) % 7) as f64).collect();
        let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - serial).abs() < 1e-9 * serial.abs());
    }

    #[test]
    fn large_dot_is_the_blocked_serial_sum_at_any_thread_count() {
        // No thread appears in the reference: equal bits mean the result
        // cannot depend on how many threads shared the blocks.
        let n = 3 * PAR_THRESHOLD + 1234;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.731).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.377).cos()).collect();
        let blocked: f64 = a
            .chunks(REDUCTION_BLOCK)
            .zip(b.chunks(REDUCTION_BLOCK))
            .map(|(a, b)| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>())
            .sum();
        assert_eq!(dot(&a, &b).to_bits(), blocked.to_bits());
    }

    #[test]
    fn fused_sweep_is_axpy_then_dot_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        // Both sides of PAR_THRESHOLD: one block, and several.
        for n in [1_000, 40_000] {
            let mut vec = || (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<f64>>();
            let (x, z, y0) = (vec(), vec(), vec());
            let alpha = -0.371;

            let mut y_ref = y0.clone();
            axpy(alpha, &x, &mut y_ref);
            let mut y = y0.clone();
            let got = axpy_then_dot(alpha, &x, &mut y, Some(&z));
            assert_eq!(got.to_bits(), dot(&y_ref, &z).to_bits(), "n = {n}");
            assert!(y.iter().zip(&y_ref).all(|(a, b)| a.to_bits() == b.to_bits()), "n = {n}");

            // The closing sweep of a Gram–Schmidt step: ‖y‖² of the update.
            let mut y = y0.clone();
            let got = axpy_then_dot(alpha, &x, &mut y, None);
            assert_eq!(got.sqrt().to_bits(), norm2(&y_ref).to_bits(), "n = {n}");
            assert!(y.iter().zip(&y_ref).all(|(a, b)| a.to_bits() == b.to_bits()), "n = {n}");
        }
    }

    #[test]
    fn lu_solves_known_system() {
        // A = [[2, 1], [1, 3]], b = [3, 5] -> x = [0.8, 1.4]
        let a = vec![2.0, 1.0, 1.0, 3.0];
        let lu = DenseLu::factorize(&a, 2).unwrap();
        let mut x = vec![0.0; 2];
        lu.solve(&[3.0, 5.0], &mut x);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero in the (0,0) position requires a row swap.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let lu = DenseLu::factorize(&a, 2).unwrap();
        let mut x = vec![0.0; 2];
        lu.solve(&[2.0, 3.0], &mut x);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(DenseLu::factorize(&a, 2).is_none());
    }

    #[test]
    fn lu_random_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 20;
        let mut a = vec![0.0; n * n];
        for (i, v) in a.iter_mut().enumerate() {
            *v = rng.gen_range(-1.0..1.0);
            if i % (n + 1) == 0 {
                *v += 5.0; // diagonally dominant
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 * 0.3 - 2.0).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            b[i] = (0..n).map(|j| a[i * n + j] * x_true[j]).sum();
        }
        let lu = DenseLu::factorize(&a, n).unwrap();
        let mut x = vec![0.0; n];
        lu.solve(&b, &mut x);
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-9);
        }
    }
}

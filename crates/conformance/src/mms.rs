//! Method of manufactured solutions: observed convergence order.
//!
//! The patch test certifies exactness on linear fields; it says nothing
//! about how fast the error of a *curved* field shrinks under mesh
//! refinement. We manufacture a smooth equilibrium displacement field,
//! impose it as Dirichlet data on a sequence of refined meshes from
//! `mesh::generator`, and measure the observed L2 convergence order —
//! linear tetrahedra are designed to deliver order ≈ 2.
//!
//! The manufactured field is chosen so that **no body-force term is
//! needed**: for homogeneous isotropic elasticity, Navier's equation
//! reads `(λ+μ)∇(∇·u) + μ∇²u = 0`, and any gradient of a harmonic
//! potential `u = ∇φ, ∇²φ = 0` satisfies it identically (`∇·u = ∇²φ = 0`
//! kills the first term, `∇²u = ∇(∇²φ) = 0` the second). We use
//! `φ = a(x³ − 3xz²) + b·xyz`, giving a genuinely 3-D quadratic
//! displacement with nonzero strain gradients everywhere.

use crate::analytic::unit_cube_mesh;
use brainshift_fem::{solve_deformation, DirichletBcs, FemSolveConfig, MaterialTable};
use brainshift_imaging::Vec3;
use brainshift_mesh::boundary_nodes;
use brainshift_sparse::SolverOptions;
use std::collections::HashSet;

/// Amplitude of the cubic-potential part (keeps peak |u| at a few % of
/// the unit-cube edge, the linear-elastic regime of the paper's shifts).
const AMPLITUDE_A: f64 = 0.01;
/// Amplitude of the `xyz` potential part.
const AMPLITUDE_B: f64 = 0.007;

/// The manufactured equilibrium displacement `u*(p) = ∇φ(p)` for
/// `φ = a(x³ − 3xz²) + b·xyz`.
pub fn manufactured_field(p: Vec3) -> Vec3 {
    Vec3::new(
        AMPLITUDE_A * (3.0 * p.x * p.x - 3.0 * p.z * p.z) + AMPLITUDE_B * p.y * p.z,
        AMPLITUDE_B * p.x * p.z,
        AMPLITUDE_A * (-6.0 * p.x * p.z) + AMPLITUDE_B * p.x * p.y,
    )
}

/// One refinement level of the MMS study.
#[derive(Debug, Clone)]
pub struct MmsLevel {
    /// Cells per cube edge.
    pub n: usize,
    /// Mesh size h = 1/n on the unit cube.
    pub h: f64,
    /// RMS error over interior (free) nodes, relative to the RMS of the
    /// exact field over the same nodes.
    pub l2_rel_err: f64,
    /// Equations solved.
    pub equations: usize,
    /// Whether the solve converged.
    pub converged: bool,
}

/// Result of the convergence study.
#[derive(Debug, Clone)]
pub struct MmsResult {
    /// Per-level errors, coarse → fine.
    pub levels: Vec<MmsLevel>,
    /// Observed orders between consecutive levels:
    /// `log2(e_{2h} / e_h)` (same length as `levels` − 1).
    pub orders: Vec<f64>,
}

impl MmsResult {
    /// The asymptotic estimate: the order observed between the two
    /// finest levels.
    pub fn observed_order(&self) -> f64 {
        self.orders.last().copied().unwrap_or(f64::NAN)
    }

    /// True when every solve converged and every pairwise order reaches
    /// `min_order`.
    pub fn passes(&self, min_order: f64) -> bool {
        self.levels.iter().all(|l| l.converged)
            && !self.orders.is_empty()
            && self.orders.iter().all(|&o| o >= min_order)
    }
}

/// Run the MMS study on unit-cube meshes with `cells_per_edge` cells per
/// level (coarse → fine; each entry should double the previous one for
/// the order formula to read as written).
pub fn run_mms(cells_per_edge: &[usize], tolerance: f64) -> MmsResult {
    let materials = MaterialTable::homogeneous();
    let mut levels = Vec::with_capacity(cells_per_edge.len());
    for &n in cells_per_edge {
        let mesh = unit_cube_mesh(n);
        let surface: HashSet<usize> = boundary_nodes(&mesh).into_iter().collect();
        let mut bcs = DirichletBcs::new();
        for &node in &surface {
            bcs.set(node, manufactured_field(mesh.nodes[node]));
        }
        let cfg = FemSolveConfig {
            options: SolverOptions { tolerance, max_iterations: 50_000, ..Default::default() },
            ..Default::default()
        };
        let sol = solve_deformation(&mesh, &materials, &bcs, &cfg)
            .expect("MMS problem must be well-posed");
        let mut sq_err = 0.0f64;
        let mut sq_exact = 0.0f64;
        for (node, &u) in sol.displacements.iter().enumerate() {
            if surface.contains(&node) {
                continue; // imposed exactly; only free nodes carry error
            }
            let exact = manufactured_field(mesh.nodes[node]);
            sq_err += (u - exact).norm_sq();
            sq_exact += exact.norm_sq();
        }
        levels.push(MmsLevel {
            n,
            h: 1.0 / n as f64,
            l2_rel_err: (sq_err / sq_exact.max(1e-300)).sqrt(),
            equations: mesh.num_equations(),
            converged: sol.stats.converged(),
        });
    }
    let orders = levels
        .windows(2)
        .map(|w| {
            let ratio = w[0].l2_rel_err / w[1].l2_rel_err.max(1e-300);
            ratio.log2() / (w[1].n as f64 / w[0].n as f64).log2()
        })
        .collect();
    MmsResult { levels, orders }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manufactured_field_is_divergence_free() {
        // ∇·u = ∇²φ must vanish — checked by central differences.
        let h = 1e-5;
        for &(x, y, z) in &[(0.3, 0.4, 0.5), (0.9, 0.1, 0.7), (0.5, 0.5, 0.5)] {
            let p = Vec3::new(x, y, z);
            let div = (manufactured_field(p + Vec3::new(h, 0.0, 0.0)).x
                - manufactured_field(p - Vec3::new(h, 0.0, 0.0)).x
                + manufactured_field(p + Vec3::new(0.0, h, 0.0)).y
                - manufactured_field(p - Vec3::new(0.0, h, 0.0)).y
                + manufactured_field(p + Vec3::new(0.0, 0.0, h)).z
                - manufactured_field(p - Vec3::new(0.0, 0.0, h)).z)
                / (2.0 * h);
            assert!(div.abs() < 1e-8, "div u = {div} at {p:?}");
        }
    }

    #[test]
    fn manufactured_field_components_are_harmonic() {
        // ∇²u_c = 0 for each component (7-point Laplacian stencil).
        let h = 1e-3;
        let p = Vec3::new(0.4, 0.6, 0.3);
        let component = |q: Vec3, c: usize| {
            let u = manufactured_field(q);
            [u.x, u.y, u.z][c]
        };
        for c in 0..3 {
            let mut lap = -6.0 * component(p, c);
            for (dx, dy, dz) in
                [(h, 0.0, 0.0), (-h, 0.0, 0.0), (0.0, h, 0.0), (0.0, -h, 0.0), (0.0, 0.0, h), (0.0, 0.0, -h)]
            {
                lap += component(p + Vec3::new(dx, dy, dz), c);
            }
            lap /= h * h;
            assert!(lap.abs() < 1e-6, "∇²u[{c}] = {lap}");
        }
    }

    #[test]
    fn l2_error_converges_at_second_order() {
        let r = run_mms(&[3, 6, 12], 1e-12);
        assert!(
            r.passes(1.9),
            "orders {:?} errors {:?}",
            r.orders,
            r.levels.iter().map(|l| l.l2_rel_err).collect::<Vec<_>>()
        );
        // Sanity: the error actually decreases and is not already at
        // machine noise (which would make the order meaningless).
        for w in r.levels.windows(2) {
            assert!(w[1].l2_rel_err < w[0].l2_rel_err);
        }
        assert!(r.levels.last().unwrap().l2_rel_err > 1e-10);
    }
}

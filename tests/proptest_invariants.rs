//! Property-based tests on cross-crate invariants (proptest).

use brainshift_imaging::dtransform::{distance_transform, distance_transform_brute};
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_imaging::{Mat3, Vec3};
use brainshift_mesh::tetmesh::{barycentric_in, signed_volume};
use brainshift_register::RigidTransform;
use brainshift_sparse::{
    conjugate_gradient, gmres, partition::weighted_offsets, solve_escalated, CsrMatrix,
    EscalationPolicy, IdentityPrecond, JacobiPrecond, KrylovKind, KrylovWorkspace, SolverOptions,
    TripletBuilder,
};
use proptest::prelude::*;

/// Random sparse diagonally-dominant SPD matrix from an arbitrary edge
/// list (symmetrized).
fn spd_from_edges(n: usize, edges: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut b = TripletBuilder::new(n, n);
    let mut diag = vec![1.0f64; n];
    for &(i, j, w) in edges {
        let (i, j) = (i % n, j % n);
        if i == j {
            continue;
        }
        let w = w.abs().max(0.01);
        b.add(i, j, -w);
        b.add(j, i, -w);
        diag[i] += w;
        diag[j] += w;
    }
    for (i, &d) in diag.iter().enumerate() {
        b.add(i, i, d);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gmres_and_cg_solve_random_spd_systems(
        n in 5usize..40,
        edges in prop::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 0..120),
        xs in prop::collection::vec(-3.0f64..3.0, 40),
    ) {
        let a = spd_from_edges(n, &edges);
        let x_true: Vec<f64> = xs.iter().take(n).cloned().collect();
        let mut rhs = vec![0.0; n];
        a.spmv(&x_true, &mut rhs);
        let opts = SolverOptions { tolerance: 1e-10, max_iterations: 10_000, ..Default::default() };
        let mut xg = vec![0.0; n];
        let sg = gmres(&a, &IdentityPrecond, &rhs, &mut xg, &opts).expect("dims agree");
        prop_assert!(sg.converged());
        let mut xc = vec![0.0; n];
        let sc = conjugate_gradient(&a, &JacobiPrecond::new(&a), &rhs, &mut xc, &opts, &mut KrylovWorkspace::new(n))
            .expect("dims agree");
        prop_assert!(sc.converged());
        let scale = x_true.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            prop_assert!((xg[i] - x_true[i]).abs() < 1e-6 * scale, "gmres x[{}]: {} vs {}", i, xg[i], x_true[i]);
            prop_assert!((xc[i] - x_true[i]).abs() < 1e-6 * scale, "cg x[{}]: {} vs {}", i, xc[i], x_true[i]);
        }
    }

    #[test]
    fn escalation_ladder_never_worse_than_its_best_stage(
        n in 8usize..48,
        edges in prop::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 0..140),
        bs in prop::collection::vec(-2.0f64..2.0, 48),
        max_iters in 2usize..8,
    ) {
        // Starve every rung of iterations so the ladder usually walks
        // GMRES(2) → GMRES(3) → GMRES(5) → BiCGStab without converging.
        // BiCGStab is non-monotone, so this exercises the best-iterate
        // snapshot: the returned x must carry the *best* residual of any
        // stage — in particular never worse than the primary attempt.
        let a = spd_from_edges(n, &edges);
        let b: Vec<f64> = bs.iter().take(n).cloned().collect();
        prop_assume!(b.iter().any(|v| v.abs() > 1e-6));
        let opts = SolverOptions {
            tolerance: 1e-16,
            max_iterations: max_iters,
            restart: 2,
            ..Default::default()
        };
        let ladder = EscalationPolicy {
            larger_restarts: vec![3, 5],
            bicgstab_fallback: true,
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let mut ws = KrylovWorkspace::new(n);
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, KrylovKind::Gmres, &opts, &ladder, &mut ws)
            .expect("dims agree");

        // (1) The reported residual is the residual of the returned x.
        let mut ax = vec![0.0; n];
        a.spmv(&x, &mut ax);
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let actual = ax.iter().zip(&b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt() / b_norm;
        prop_assert!(
            actual <= out.stats.relative_residual * 1.5 + 1e-12,
            "returned iterate ({actual:.3e}) worse than reported ({:.3e})",
            out.stats.relative_residual
        );

        // (2) Never worse than the first stage run on its own (the ladder
        // contains that exact attempt and keeps the best).
        let mut x1 = vec![0.0; n];
        let mut ws1 = KrylovWorkspace::new(n);
        let first = solve_escalated(
            &a, &IdentityPrecond, &b, &mut x1, KrylovKind::Gmres, &opts, &EscalationPolicy::none(), &mut ws1,
        )
        .expect("dims agree");
        prop_assert!(
            out.stats.relative_residual <= first.stats.relative_residual * (1.0 + 1e-12),
            "ladder ({:.3e}) regressed below its own primary stage ({:.3e})",
            out.stats.relative_residual,
            first.stats.relative_residual
        );
    }

    #[test]
    fn weighted_offsets_cover_rows_monotonically(
        weights in prop::collection::vec(0.0f64..10.0, 0..200),
        p in 1usize..24,
    ) {
        let o = weighted_offsets(&weights, p);
        let n = weights.len();
        // Boundaries pin the full range: coverage of [0, n) exactly.
        prop_assert_eq!(o[0], 0);
        prop_assert_eq!(*o.last().unwrap(), n);
        if n == 0 {
            prop_assert_eq!(o.clone(), vec![0, 0]);
        } else {
            // Strictly monotone ⇒ contiguous, disjoint, non-empty parts.
            for w in o.windows(2) {
                prop_assert!(w[0] < w[1], "empty or reversed part in {:?}", o.clone());
            }
            // Effective part count is the requested one clamped to n.
            prop_assert_eq!(o.len() - 1, p.min(n));
        }
    }

    #[test]
    fn csr_transpose_involution_and_spmv_linearity(
        n in 2usize..20,
        entries in prop::collection::vec((0usize..20, 0usize..20, -5.0f64..5.0), 1..80),
    ) {
        let mut b = TripletBuilder::new(n, n);
        for &(i, j, v) in &entries {
            b.add(i % n, j % n, v);
        }
        let a = b.build();
        prop_assert_eq!(&a.transpose().transpose(), &a);
        // spmv(x + y) == spmv(x) + spmv(y)
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p + q).collect();
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        let mut axy = vec![0.0; n];
        a.spmv(&x, &mut ax);
        a.spmv(&y, &mut ay);
        a.spmv(&xy, &mut axy);
        for i in 0..n {
            prop_assert!((axy[i] - ax[i] - ay[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn distance_transform_matches_brute_force(
        seeds in prop::collection::vec((0usize..6, 0usize..5, 0usize..4), 1..8),
    ) {
        let d = Dims::new(6, 5, 4);
        let mut mask: Volume<bool> = Volume::filled(d, Spacing::iso(1.0), false);
        for &(x, y, z) in &seeds {
            mask.set(x, y, z, true);
        }
        let fast = distance_transform(&mask);
        let brute = distance_transform_brute(&mask);
        for (a, b) in fast.data().iter().zip(brute.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn rigid_transform_roundtrip_and_isometry(
        rx in -0.8f64..0.8, ry in -0.8f64..0.8, rz in -0.8f64..0.8,
        tx in -10.0f64..10.0, ty in -10.0f64..10.0, tz in -10.0f64..10.0,
        px in -20.0f64..20.0, py in -20.0f64..20.0, pz in -20.0f64..20.0,
        qx in -20.0f64..20.0, qy in -20.0f64..20.0, qz in -20.0f64..20.0,
    ) {
        let t = RigidTransform::from_params([rx, ry, rz, tx, ty, tz], Vec3::new(1.0, 2.0, 3.0));
        let p = Vec3::new(px, py, pz);
        let q = Vec3::new(qx, qy, qz);
        // Isometry: distances preserved.
        prop_assert!((t.apply(p).distance(t.apply(q)) - p.distance(q)).abs() < 1e-9);
        // Inverse round-trip.
        let inv = t.inverse();
        prop_assert!((inv.apply(t.apply(p)) - p).norm() < 1e-9);
    }

    #[test]
    fn barycentric_partition_of_unity(
        ax in -1.0f64..1.0, ay in -1.0f64..1.0, az in -1.0f64..1.0,
        px in -2.0f64..3.0, py in -2.0f64..3.0, pz in -2.0f64..3.0,
    ) {
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(2.0, 0.1, 0.0);
        let c = Vec3::new(0.2, 2.0, 0.1);
        let d = Vec3::new(0.1, 0.3, 2.0);
        prop_assume!(signed_volume(a, b, c, d).abs() > 1e-3);
        let p = Vec3::new(px, py, pz);
        let w = barycentric_in(a, b, c, d, p).unwrap();
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Reconstruction: Σ wᵢ vᵢ = p.
        let rec = a * w[0] + b * w[1] + c * w[2] + d * w[3];
        prop_assert!((rec - p).norm() < 1e-8);
    }

    #[test]
    fn mat3_rotation_composition_is_rotation(
        a in -3.0f64..3.0, b in -3.0f64..3.0, c in -3.0f64..3.0,
        d in -3.0f64..3.0, e in -3.0f64..3.0, f in -3.0f64..3.0,
    ) {
        let r1 = Mat3::from_euler(a, b, c);
        let r2 = Mat3::from_euler(d, e, f);
        let r = r1 * r2;
        prop_assert!((r.determinant() - 1.0).abs() < 1e-9);
        let v = Vec3::new(1.0, -2.0, 0.5);
        prop_assert!(((r * v).norm() - v.norm()).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mesher_output_always_valid(
        blob_x in 1usize..5,
        blob_y in 1usize..5,
        blob_z in 1usize..5,
        off_x in 0usize..3,
        step in 1usize..3,
    ) {
        use brainshift_imaging::labels;
        use brainshift_mesh::{mesh_labeled_volume, MesherConfig};
        let d = Dims::new(8, 8, 8);
        let seg = Volume::from_fn(d, Spacing::iso(1.0), |x, y, z| {
            if x >= off_x && x < off_x + blob_x && y < blob_y && z < blob_z {
                labels::BRAIN
            } else {
                labels::BACKGROUND
            }
        });
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step, include: labels::is_deformable });
        prop_assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn coordinate_descent_maximizes_random_concave_quadratics(
        c0 in -3.0f64..3.0, c1 in -3.0f64..3.0, c2 in -3.0f64..3.0,
        w0 in 0.5f64..5.0, w1 in 0.5f64..5.0, w2 in 0.5f64..5.0,
        cross in -0.4f64..0.4,
    ) {
        use brainshift_register::coordinate_descent;
        let c = [c0, c1, c2];
        let w = [w0, w1, w2];
        let (x, _) = coordinate_descent([0.0; 3], [1.0; 3], 400, 1e-5, |x| {
            let mut f = 0.0;
            for i in 0..3 {
                f += w[i] * (x[i] - c[i]).powi(2);
            }
            -(f + cross * (x[0] - c[0]) * (x[1] - c[1]))
        });
        // |cross| < min weights keeps the quadratic concave; maximum at c.
        for i in 0..3 {
            prop_assert!((x[i] - c[i]).abs() < 1e-3, "x[{}] = {} vs {}", i, x[i], c[i]);
        }
    }

    #[test]
    fn confusion_matrix_diagonal_iff_identical(
        pattern in prop::collection::vec(0u8..4, 64),
    ) {
        use brainshift_imaging::volume::{Dims, Spacing, Volume};
        use brainshift_segment::ConfusionMatrix;
        let v = Volume::from_vec(Dims::new(4, 4, 4), Spacing::iso(1.0), pattern);
        let cm = ConfusionMatrix::from_volumes(&v, &v);
        prop_assert_eq!(cm.accuracy(), 1.0);
        for &l in cm.labels() {
            prop_assert_eq!(cm.dice(l), 1.0);
        }
    }

    #[test]
    fn edt_is_one_lipschitz_between_neighbors(
        seeds in prop::collection::vec((0usize..8, 0usize..8, 0usize..8), 1..6),
    ) {
        use brainshift_imaging::dtransform::distance_transform;
        let d = Dims::new(8, 8, 8);
        let mut mask: Volume<bool> = Volume::filled(d, Spacing::iso(1.0), false);
        for &(x, y, z) in &seeds {
            mask.set(x, y, z, true);
        }
        let dt = distance_transform(&mask);
        // Distance functions are 1-Lipschitz: neighbors differ by ≤ spacing.
        for z in 0..8 {
            for y in 0..8 {
                for x in 1..8 {
                    let a = *dt.get(x - 1, y, z);
                    let b = *dt.get(x, y, z);
                    prop_assert!((a - b).abs() <= 1.0 + 1e-5);
                }
            }
        }
    }
}

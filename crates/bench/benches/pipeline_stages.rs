//! Criterion: the intraoperative pipeline stage by stage (the host-side
//! Figure 6) — meshing, k-NN classification, active surface, FEM solve,
//! dense-field interpolation.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_fem::{displacement_field_from_mesh, solve_deformation, DirichletBcs, FemSolveConfig, MaterialTable};
use brainshift_imaging::labels;
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::Vec3;
use brainshift_mesh::{boundary_nodes, extract_boundary, mesh_labeled_volume, MesherConfig};
use brainshift_segment::{segment_intraop, SegmentConfig};
use brainshift_surface::{evolve_surface, ActiveSurfaceConfig, DistanceForce};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_stages(c: &mut Criterion) {
    let cfg = PhantomConfig {
        dims: Dims::new(48, 48, 36),
        spacing: Spacing::iso(3.0),
        ..Default::default()
    };
    let case = generate_elastic_case(&cfg, &BrainShiftConfig::default(), &ElasticCaseOptions::default());
    let mesher = MesherConfig { step: 2, include: labels::is_brain_tissue };
    let mesh = mesh_labeled_volume(&case.preop.labels, &mesher);
    let surface = extract_boundary(&mesh);

    let mut g = c.benchmark_group("pipeline_stage");
    g.sample_size(10);

    g.bench_function("mesh_generation", |b| {
        b.iter(|| std::hint::black_box(mesh_labeled_volume(&case.preop.labels, &mesher)));
    });

    g.bench_function("knn_segmentation", |b| {
        b.iter(|| {
            std::hint::black_box(segment_intraop(
                &case.intraop.intensity,
                &case.preop.labels,
                &SegmentConfig::default(),
            ))
        });
    });

    g.bench_function("active_surface", |b| {
        let mask = case.intraop.labels.map(|&l| labels::is_brain_tissue(l));
        let force = DistanceForce::from_mask(&mask, None, 2.0).unwrap();
        b.iter(|| std::hint::black_box(evolve_surface(&surface, &force, &ActiveSurfaceConfig::default())));
    });

    g.bench_function("fem_solve", |b| {
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(&mesh).iter() {
            let p = mesh.nodes[n];
            bcs.set(n, Vec3::new(0.0, 0.0, -4.0 * (-((p.x - 72.0).powi(2) + (p.y - 72.0).powi(2)) / 800.0).exp()));
        }
        b.iter(|| {
            let sol = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &FemSolveConfig::default()).expect("FEM solve rejected its inputs");
            assert!(sol.stats.converged());
            std::hint::black_box(sol.displacements.len())
        });
    });

    g.bench_function("field_interpolation", |b| {
        let disp: Vec<Vec3> = mesh.nodes.iter().map(|p| Vec3::new(0.0, 0.0, -p.z * 0.05)).collect();
        b.iter(|| {
            std::hint::black_box(displacement_field_from_mesh(&mesh, &disp, cfg.dims, cfg.spacing))
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stages
}
criterion_main!(benches);

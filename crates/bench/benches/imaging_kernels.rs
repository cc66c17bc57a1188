//! Criterion: image-processing kernels on the intraoperative path — the
//! distance transform (spatial prior construction), Gaussian smoothing,
//! the final deformation resample (the paper's ~0.5 s step) and MI
//! evaluation (one rigid-registration metric call).

use brainshift_imaging::dtransform::saturated_distance_transform;
use brainshift_imaging::field::{warp_volume_backward, DisplacementField};
use brainshift_imaging::filter::gaussian_smooth;
use brainshift_imaging::phantom::{generate_preop, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{labels, Vec3};
use brainshift_register::{mutual_information, RigidTransform};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn phantom() -> brainshift_imaging::phantom::PhantomScan {
    generate_preop(&PhantomConfig {
        dims: Dims::new(64, 64, 48),
        spacing: Spacing::iso(2.5),
        ..Default::default()
    })
}

fn bench_imaging(c: &mut Criterion) {
    let scan = phantom();
    let voxels = scan.intensity.dims().len() as u64;

    let mut g = c.benchmark_group("imaging_64x64x48");
    g.sample_size(20);
    g.throughput(Throughput::Elements(voxels));

    g.bench_function("saturated_distance_transform", |b| {
        let mask = scan.labels.map(|&l| l == labels::BRAIN);
        b.iter(|| std::hint::black_box(saturated_distance_transform(&mask, 20.0)));
    });

    g.bench_function("gaussian_smooth_sigma1", |b| {
        b.iter(|| std::hint::black_box(gaussian_smooth(&scan.intensity, 1.0)));
    });

    g.bench_function("warp_resample", |b| {
        // The paper's "~0.5 seconds" resample, at our phantom size.
        let field = DisplacementField::from_fn(scan.intensity.dims(), scan.intensity.spacing(), |x, y, _| {
            Vec3::new((x as f64 * 0.05).sin() * 3.0, (y as f64 * 0.04).cos() * 2.0, -4.0)
        });
        b.iter(|| std::hint::black_box(warp_volume_backward(&scan.intensity, &field, 0.0)));
    });

    g.bench_function("mi_metric_with_transform", |b| {
        let d = scan.intensity.dims();
        let t = RigidTransform::from_params(
            [0.02, 0.0, 0.01, 1.0, 0.5, 0.0],
            Vec3::new(d.nx as f64 / 2.0, d.ny as f64 / 2.0, d.nz as f64 / 2.0),
        );
        b.iter(|| std::hint::black_box(mutual_information(&scan.intensity, &scan.intensity, |p| t.apply(p))));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_imaging
}
criterion_main!(benches);

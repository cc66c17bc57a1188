//! Ablation: k-NN (the paper's choice) vs Gaussian maximum likelihood for
//! intraoperative tissue classification.
//!
//! Both classifiers train on the identical prototype-voxel model and
//! classify the same multichannel feature stack; we score them against
//! the phantom's ground-truth segmentation per tissue class, plus timing.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::labels;
use brainshift_segment::{dice, Classifier, GaussianClassifier, SegmentConfig};
use brainshift_obs::Stopwatch;

fn main() {
    println!("## Ablation — k-NN vs Gaussian ML classification\n");
    let cfg = PhantomConfig {
        dims: Dims::new(64, 64, 48),
        spacing: Spacing::iso(2.5),
        ..Default::default()
    };
    let shift = BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: false, ..Default::default() };
    let case = generate_elastic_case(&cfg, &shift, &ElasticCaseOptions::default());
    let classifier = Classifier::new(&case.preop.labels, &SegmentConfig::default());
    let fs = classifier.feature_stack(&case.intraop.intensity).expect("phantom scans share one grid");
    let model = classifier.model();
    let protos = model.extract(&fs);
    println!(
        "training: {} prototypes over {} classes, {} feature channels\n",
        protos.len(),
        model.classes().len(),
        fs.num_channels()
    );

    let gt = &case.intraop.labels;
    let score = |seg: &brainshift_imaging::Volume<u8>| -> (f64, Vec<(u8, f64)>) {
        let agree = gt.data().iter().zip(seg.data()).filter(|(a, b)| a == b).count() as f64
            / gt.data().len() as f64;
        let per_class: Vec<(u8, f64)> = [labels::BRAIN, labels::VENTRICLE, labels::CSF, labels::TUMOR]
            .iter()
            .map(|&l| (l, dice(&gt.map(|&x| x == l), &seg.map(|&x| x == l))))
            .collect();
        (agree, per_class)
    };

    // k-NN.
    let t0 = Stopwatch::wall();
    let every: Vec<usize> = (0..gt.dims().len()).collect();
    let seg_knn = classifier
        .classify(&case.intraop.intensity, &every, &case.preop.labels)
        .expect("phantom prototypes are valid")
        .labels;
    let t_knn = t0.elapsed_s();
    // Gaussian ML.
    let t0 = Stopwatch::wall();
    let gauss = GaussianClassifier::fit(&protos);
    let seg_gauss = gauss.classify_volume(&fs);
    let t_gauss = t0.elapsed_s();

    println!("{:<12} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}", "classifier", "agreement", "brain", "ventricle", "csf", "tumor", "time(s)");
    for (name, seg, t) in [("k-NN (paper)", &seg_knn, t_knn), ("gaussian-ml", &seg_gauss, t_gauss)] {
        let (agree, per_class) = score(seg);
        print!("{:<12} {:>10.3}", name, agree);
        for (_, d) in &per_class {
            print!(" {:>9.3}", d);
        }
        println!(" {:>9.2}", t);
    }
    println!("\n(mixed result: k-NN wins on the large textured classes (brain, CSF)");
    println!(" whose feature distributions are multi-modal; the Gaussian model does");
    println!(" better on small compact classes (ventricle, tumor) where k-NN's");
    println!(" majority vote is swamped by neighboring-class prototypes. The paper's");
    println!(" k-NN choice buys distribution-free robustness for interactively chosen");
    println!(" prototypes — not uniform superiority.)");
}

//! Synthetic intraoperative-MRI brain phantom.
//!
//! Substitution for the paper's patient data (see DESIGN.md §2): we cannot
//! ship 0.5 T intraoperative MRI of neurosurgery patients, so we generate a
//! procedural head phantom — skin, skull, CSF, brain parenchyma, lateral
//! ventricles, cerebral falx and a tumor, as deformed ellipsoids — plus an
//! analytic ground-truth *brain-shift* deformation and a simulated
//! resection. Later "intraoperative scans" are produced by warping the
//! first scan through the ground-truth field, which exercises exactly the
//! same segmentation / registration / active-surface / FEM code paths and
//! additionally makes recovery error measurable.

use crate::field::{invert_field, DisplacementField};
use crate::geom::{Mat3, Vec3};
use crate::labels::{self, Label};
use crate::volume::{Dims, Spacing, Volume};

/// Stateless per-voxel Gaussian deviate: a pure function of the seed and
/// the voxel coordinates, with no RNG state threaded between voxels.
///
/// The phantom is the source of every golden-field fixture in the
/// conformance suite, so its noise must not depend on traversal order,
/// parallel chunking, or how many draws earlier voxels consumed — the
/// failure modes of a sequential generator. Each voxel hashes
/// `(seed, x, y, z)` through SplitMix64 and feeds the two resulting
/// uniform words to a Box–Muller transform.
fn voxel_gaussian(seed: u64, x: usize, y: usize, z: usize) -> f64 {
    #[inline]
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let key = seed
        ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (y as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (z as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    let a = splitmix(key);
    let b = splitmix(a);
    // 53-bit mantissa uniforms; u1 kept strictly positive for the log.
    let u1 = (((a >> 11) as f64) + 1.0) * (1.0 / (1u64 << 53) as f64);
    let u2 = ((b >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// An ellipsoid in world (mm) coordinates, optionally rotated.
#[derive(Debug, Clone, Copy)]
pub struct Ellipsoid {
    /// Centre, mm.
    pub center: Vec3,
    /// Semi-axis lengths, mm.
    pub radii: Vec3,
    /// Orientation of the principal axes.
    pub rotation: Mat3,
}

impl Ellipsoid {
    /// An axis-aligned ellipsoid.
    pub fn axis_aligned(center: Vec3, radii: Vec3) -> Self {
        Ellipsoid { center, radii, rotation: Mat3::IDENTITY }
    }

    /// Signed "ellipsoid coordinate": < 1 inside, 1 on the surface.
    #[inline]
    pub fn level(&self, p: Vec3) -> f64 {
        let q = self.rotation.transpose() * (p - self.center);
        let sx = q.x / self.radii.x;
        let sy = q.y / self.radii.y;
        let sz = q.z / self.radii.z;
        (sx * sx + sy * sy + sz * sz).sqrt()
    }

    #[inline]
    /// True when `p` lies strictly inside.
    pub fn contains(&self, p: Vec3) -> bool {
        self.level(p) < 1.0
    }

    /// Uniformly scaled copy (factor applied to all radii).
    pub fn scaled(&self, f: f64) -> Ellipsoid {
        Ellipsoid { center: self.center, radii: self.radii * f, rotation: self.rotation }
    }

    /// Outward unit normal of the level surface through `p`.
    pub fn normal_at(&self, p: Vec3) -> Vec3 {
        let q = self.rotation.transpose() * (p - self.center);
        let local = Vec3::new(
            q.x / (self.radii.x * self.radii.x),
            q.y / (self.radii.y * self.radii.y),
            q.z / (self.radii.z * self.radii.z),
        );
        (self.rotation * local).normalized()
    }

    /// Radial projection of `p` onto the ellipsoid surface: the point
    /// where the ray from the centre through `p` crosses `level == 1`.
    /// The skull-contact scenario clamps penetrating boundary nodes to
    /// this point, the rigid inner table the paper's model holds the
    /// brain against. At the degenerate `p == center` the +z pole is
    /// returned so the result is always a well-defined surface point.
    pub fn project_surface(&self, p: Vec3) -> Vec3 {
        let lvl = self.level(p);
        if lvl > 1e-12 {
            self.center + (p - self.center) / lvl
        } else {
            self.center + self.rotation * Vec3::new(0.0, 0.0, self.radii.z)
        }
    }
}

/// Carve an ellipsoidal resection cavity out of a label volume: voxels
/// inside `cavity` whose label is deformable brain tissue become `fill`
/// (typically [`labels::RESECTION`]). Rigid structures (skull, skin,
/// background) are never carved — a cavity seeded near the skull simply
/// stops at it, as a real resection does.
pub fn carve_cavity(labels_vol: &Volume<u8>, cavity: &Ellipsoid, fill: Label) -> Volume<u8> {
    let mut out = labels_vol.clone();
    let dims = labels_vol.dims();
    for z in 0..dims.nz {
        for y in 0..dims.ny {
            for x in 0..dims.nx {
                let l = *labels_vol.get(x, y, z);
                if labels::is_deformable(l) && cavity.contains(labels_vol.world(x, y, z)) {
                    *out.get_mut(x, y, z) = fill;
                }
            }
        }
    }
    out
}

/// Configuration of the synthetic head.
#[derive(Debug, Clone)]
pub struct PhantomConfig {
    /// Volume dimensions in voxels.
    pub dims: Dims,
    /// Voxel spacing, mm.
    pub spacing: Spacing,
    /// Std-dev of additive Gaussian noise, in intensity units.
    pub noise_sigma: f32,
    /// Peak-to-peak amplitude of the smooth multiplicative bias field
    /// (0.0 disables; the paper notes "intrinsic MR scanner intensity
    /// variability ... from scan to scan").
    pub bias_amplitude: f32,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Tumor centre as a fraction of the head radii (x is lateral:
    /// positive = right hemisphere).
    pub tumor_center_frac: Vec3,
    /// Tumor radius in mm.
    pub tumor_radius: f64,
}

impl Default for PhantomConfig {
    fn default() -> Self {
        PhantomConfig {
            // A scaled-down analogue of the paper's 256x256x60 scans,
            // sized so tests and examples run quickly. Benchmarks scale up.
            dims: Dims::new(64, 64, 48),
            spacing: Spacing::iso(2.0),
            noise_sigma: 3.0,
            bias_amplitude: 0.05,
            seed: 0x0B12_A145,
            tumor_center_frac: Vec3::new(0.45, 0.1, 0.25),
            tumor_radius: 9.0,
        }
    }
}

/// Nominal MR intensity per tissue class (arbitrary units in [0, 255]):
/// skin bright, ventricles dark, per the appearance described in Fig. 4.
pub fn tissue_intensity(l: Label) -> f32 {
    match l {
        labels::BACKGROUND => 5.0,
        labels::SKIN => 220.0,
        labels::SKULL => 35.0,
        labels::CSF => 60.0,
        labels::BRAIN => 150.0,
        labels::VENTRICLE => 55.0,
        labels::FALX => 95.0,
        labels::TUMOR => 190.0,
        labels::RESECTION => 12.0,
        _ => 0.0,
    }
}

/// The anatomical model: every structure as an implicit shape.
#[derive(Debug, Clone)]
pub struct HeadModel {
    /// Outer skin surface.
    pub skin: Ellipsoid,
    /// Outer skull table.
    pub skull_outer: Ellipsoid,
    /// Inner skull table.
    pub skull_inner: Ellipsoid,
    /// Brain parenchyma envelope.
    pub brain: Ellipsoid,
    /// Left lateral ventricle.
    pub ventricle_left: Ellipsoid,
    /// Right lateral ventricle.
    pub ventricle_right: Ellipsoid,
    /// Tumor (resection target).
    pub tumor: Ellipsoid,
    /// Half-thickness of the falx plane, mm.
    pub falx_half_thickness: f64,
    /// Mid-sagittal plane x coordinate, mm.
    pub midline_x: f64,
}

impl HeadModel {
    /// Build the model to fit a volume of the given physical extent.
    pub fn fit(dims: Dims, spacing: Spacing, cfg: &PhantomConfig) -> Self {
        let ext = Vec3::new(
            dims.nx as f64 * spacing.dx,
            dims.ny as f64 * spacing.dy,
            dims.nz as f64 * spacing.dz,
        );
        let c = ext * 0.5;
        let r = Vec3::new(ext.x * 0.42, ext.y * 0.45, ext.z * 0.44);
        let skin = Ellipsoid::axis_aligned(c, r);
        let skull_outer = skin.scaled(0.92);
        let skull_inner = skin.scaled(0.84);
        let brain = skin.scaled(0.78);
        let vr = Vec3::new(r.x * 0.10, r.y * 0.22, r.z * 0.14);
        let voff = Vec3::new(r.x * 0.16, 0.0, r.z * 0.05);
        let ventricle_left = Ellipsoid::axis_aligned(c - Vec3::new(voff.x, 0.0, -voff.z), vr);
        let ventricle_right = Ellipsoid::axis_aligned(c + voff, vr);
        let tc = c + Vec3::new(
            cfg.tumor_center_frac.x * r.x,
            cfg.tumor_center_frac.y * r.y,
            cfg.tumor_center_frac.z * r.z,
        );
        let tumor = Ellipsoid::axis_aligned(tc, Vec3::splat(cfg.tumor_radius));
        HeadModel {
            skin,
            skull_outer,
            skull_inner,
            brain,
            ventricle_left,
            ventricle_right,
            tumor,
            falx_half_thickness: 1.5,
            midline_x: c.x,
        }
    }

    /// Tissue label at a world point.
    pub fn label_at(&self, p: Vec3) -> Label {
        if !self.skin.contains(p) {
            return labels::BACKGROUND;
        }
        if !self.skull_outer.contains(p) {
            return labels::SKIN;
        }
        if !self.skull_inner.contains(p) {
            return labels::SKULL;
        }
        if !self.brain.contains(p) {
            return labels::CSF;
        }
        if self.tumor.contains(p) {
            return labels::TUMOR;
        }
        if self.ventricle_left.contains(p) || self.ventricle_right.contains(p) {
            return labels::VENTRICLE;
        }
        // Falx: thin mid-sagittal membrane in the dorsal half of the brain,
        // excluded near the ventricles.
        let brain_lvl = self.brain.level(p);
        if (p.x - self.midline_x).abs() < self.falx_half_thickness
            && p.z > self.brain.center.z
            && brain_lvl > 0.25
        {
            return labels::FALX;
        }
        labels::BRAIN
    }
}

/// A generated phantom "scan": intensity image + ground-truth segmentation.
#[derive(Debug, Clone)]
pub struct PhantomScan {
    /// MR-like intensity image.
    pub intensity: Volume<f32>,
    /// Ground-truth tissue labels.
    pub labels: Volume<u8>,
}

/// Generate the preoperative scan of the phantom head.
pub fn generate_preop(cfg: &PhantomConfig) -> PhantomScan {
    let model = HeadModel::fit(cfg.dims, cfg.spacing, cfg);
    generate_from_model(cfg, &model)
}

/// Generate a scan from an explicit anatomical model.
pub fn generate_from_model(cfg: &PhantomConfig, model: &HeadModel) -> PhantomScan {
    let d = cfg.dims;
    let sp = cfg.spacing;
    let mut label_data = vec![0u8; d.len()];
    // Label the volume (serial inner loop; x-fastest order).
    for z in 0..d.nz {
        for y in 0..d.ny {
            for x in 0..d.nx {
                let p = Vec3::new(x as f64 * sp.dx, y as f64 * sp.dy, z as f64 * sp.dz);
                label_data[d.index(x, y, z)] = model.label_at(p);
            }
        }
    }
    let labels_vol = Volume::from_vec(d, sp, label_data);
    let intensity = render_intensity(&labels_vol, cfg);
    PhantomScan { intensity, labels: labels_vol }
}

/// Render an MR-like intensity image from a label volume: nominal tissue
/// intensity + low-frequency texture + smooth bias field + Gaussian noise,
/// lightly smoothed for partial-volume blur.
pub fn render_intensity(labels_vol: &Volume<u8>, cfg: &PhantomConfig) -> Volume<f32> {
    render_intensity_with_texture_map(labels_vol, cfg, None)
}

/// Like [`render_intensity`], but sampling the gray/white texture at
/// *material* coordinates: `texture_backward` maps each voxel to the
/// position the tissue occupied in the reference configuration, so the
/// texture pattern moves with the brain as it does in real MRI (without
/// this, a deformed scan's texture stays pinned to space and even a
/// perfect registration cannot match it).
pub fn render_intensity_with_texture_map(
    labels_vol: &Volume<u8>,
    cfg: &PhantomConfig,
    texture_backward: Option<&DisplacementField>,
) -> Volume<f32> {
    let d = labels_vol.dims();
    let sp = labels_vol.spacing();
    let sigma = cfg.noise_sigma.max(1e-6) as f64;
    let ext = Vec3::new(d.nx as f64 * sp.dx, d.ny as f64 * sp.dy, d.nz as f64 * sp.dz);
    let mut img = Volume::zeros(d, sp);
    for z in 0..d.nz {
        for y in 0..d.ny {
            for x in 0..d.nx {
                let l = *labels_vol.get(x, y, z);
                let mut v = tissue_intensity(l) as f64;
                let p = Vec3::new(x as f64 * sp.dx, y as f64 * sp.dy, z as f64 * sp.dz);
                // Gray/white-matter-like texture inside the brain,
                // sampled at material coordinates when a map is given.
                if l == labels::BRAIN {
                    let q = match texture_backward {
                        Some(b) => {
                            let u = b.get(x, y, z);
                            p + u
                        }
                        None => p,
                    };
                    let t = (q.x * 0.31).sin() * (q.y * 0.23).cos() * (q.z * 0.17).sin();
                    v += 12.0 * t;
                }
                // Smooth multiplicative bias field.
                if cfg.bias_amplitude > 0.0 {
                    let bx = (std::f64::consts::PI * p.x / ext.x).sin();
                    let by = (std::f64::consts::PI * p.y / ext.y).sin();
                    let bias = 1.0 + cfg.bias_amplitude as f64 * (bx * by - 0.5);
                    v *= bias;
                }
                v += sigma * voxel_gaussian(cfg.seed, x, y, z);
                img.set(x, y, z, v.max(0.0) as f32);
            }
        }
    }
    crate::filter::gaussian_smooth(&img, 0.6)
}

/// Parameters of the analytic ground-truth brain-shift deformation.
#[derive(Debug, Clone)]
pub struct BrainShiftConfig {
    /// Craniotomy site on the head surface, as a unit direction from the
    /// head centre (default: top of the head, +z).
    pub craniotomy_dir: Vec3,
    /// Peak sinking displacement at the brain surface under the
    /// craniotomy, in mm (the paper's cases show ~10 mm scale shift).
    pub peak_shift_mm: f64,
    /// Gaussian radius (mm) of the shifted region along the surface.
    pub surface_sigma_mm: f64,
    /// Whether the tumor is resected in the later scan.
    pub resect_tumor: bool,
}

impl Default for BrainShiftConfig {
    fn default() -> Self {
        BrainShiftConfig {
            craniotomy_dir: Vec3::new(0.0, 0.0, 1.0),
            peak_shift_mm: 8.0,
            surface_sigma_mm: 35.0,
            resect_tumor: true,
        }
    }
}

/// Analytic ground-truth *forward* brain-shift field on the preop grid:
/// a point `p` of the preoperative brain moves to `p + u(p)`.
///
/// The brain surface nearest the craniotomy sinks inward (opposite the
/// craniotomy direction, i.e. "gravity" through the opening), with the
/// displacement decaying smoothly toward the fixed skull and with depth —
/// the pattern visible in the paper's Figure 4(b).
pub fn ground_truth_shift(scan: &PhantomScan, model: &HeadModel, shift: &BrainShiftConfig) -> DisplacementField {
    let d = scan.labels.dims();
    let sp = scan.labels.spacing();
    let dir = shift.craniotomy_dir.normalized();
    let brain = &model.brain;
    // Craniotomy point on the brain surface.
    let surf_pt = brain.center
        + Vec3::new(dir.x * brain.radii.x, dir.y * brain.radii.y, dir.z * brain.radii.z);
    DisplacementField::from_fn(d, sp, |x, y, z| {
        let l = *scan.labels.get(x, y, z);
        if !labels::is_deformable(l) {
            return Vec3::ZERO;
        }
        let p = Vec3::new(x as f64 * sp.dx, y as f64 * sp.dy, z as f64 * sp.dz);
        let lvl = brain.level(p);
        if lvl >= 1.0 {
            // CSF outside the brain proper: taper to zero at the skull.
            let taper = ((1.1 - lvl) / 0.1).clamp(0.0, 1.0);
            if taper == 0.0 {
                return Vec3::ZERO;
            }
            let dist = p.distance(surf_pt);
            let w = (-dist * dist / (2.0 * shift.surface_sigma_mm * shift.surface_sigma_mm)).exp();
            return -dir * (shift.peak_shift_mm * w * taper);
        }
        // Inside the brain: weight by closeness to the craniotomy point and
        // fade toward the deep centre (the surface moves most).
        let dist = p.distance(surf_pt);
        let w_surf = (-dist * dist / (2.0 * shift.surface_sigma_mm * shift.surface_sigma_mm)).exp();
        // lvl in (0,1): 0 at centre, 1 at surface. Displacement must vanish
        // at the contralateral fixed regions; scale with lvl smoothly.
        let w_depth = 0.25 + 0.75 * lvl;
        -dir * (shift.peak_shift_mm * w_surf * w_depth)
    })
}

/// Generate the deformed label volume by *forward splatting* every
/// deformable voxel through the ground-truth field. Unlike backward
/// warping via field inversion — which fails where the deformation
/// gradient is steep (the brain detaches from the skull, so the field
/// drops by millimetres across a thin CSF band) — splatting guarantees the
/// generated scan is exactly consistent with the ground truth. Vacated
/// space is filled with `fill` (CSF: the paper's "large dark region
/// between the skin and the brain surface").
pub fn forward_warp_labels(preop: &Volume<u8>, forward: &DisplacementField, fill: Label) -> Volume<u8> {
    let d = preop.dims();
    let sp = preop.spacing();
    let mut out: Volume<u8> = Volume::filled(d, sp, labels::BACKGROUND);
    // Non-deformable structures don't move.
    for (i, &l) in preop.data().iter().enumerate() {
        if !labels::is_deformable(l) {
            out.data_mut()[i] = l;
        } else {
            out.data_mut()[i] = fill;
        }
    }
    // Splat with 2× supersampling per axis so coherent motion leaves no
    // holes; brain tissue overwrites CSF fill and CSF splats.
    let priority = |l: Label| -> u8 {
        if labels::is_brain_tissue(l) {
            2
        } else if labels::is_deformable(l) {
            1
        } else {
            0
        }
    };
    let mut best_priority = vec![0u8; d.len()];
    for z in 0..d.nz {
        for y in 0..d.ny {
            for x in 0..d.nx {
                let l = *preop.get(x, y, z);
                if !labels::is_deformable(l) {
                    continue;
                }
                for sub in 0..8usize {
                    let off = Vec3::new(
                        ((sub & 1) as f64 - 0.5) * 0.5,
                        (((sub >> 1) & 1) as f64 - 0.5) * 0.5,
                        (((sub >> 2) & 1) as f64 - 0.5) * 0.5,
                    );
                    let p_vox = Vec3::new(x as f64, y as f64, z as f64) + off;
                    let u = forward.sample(p_vox);
                    let q = Vec3::new(
                        p_vox.x + u.x / sp.dx,
                        p_vox.y + u.y / sp.dy,
                        p_vox.z + u.z / sp.dz,
                    );
                    let qx = q.x.round() as i64;
                    let qy = q.y.round() as i64;
                    let qz = q.z.round() as i64;
                    if d.contains(qx, qy, qz) {
                        let qi = d.index(qx as usize, qy as usize, qz as usize);
                        // Only deformable space can receive moving tissue
                        // (the skull is rigid).
                        if labels::is_deformable(out.data()[qi]) && priority(l) >= best_priority[qi] {
                            out.data_mut()[qi] = l;
                            best_priority[qi] = priority(l);
                        }
                    }
                }
            }
        }
    }
    out
}

/// A full synthetic neurosurgery case: preoperative scan, intraoperative
/// scan after brain shift (and optional resection), and the ground-truth
/// forward deformation between them.
#[derive(Debug, Clone)]
pub struct SyntheticCase {
    /// The preoperative scan.
    pub preop: PhantomScan,
    /// The deformed intraoperative scan.
    pub intraop: PhantomScan,
    /// Forward field on the preop grid: preop point `p` → `p + u(p)`.
    pub gt_forward: DisplacementField,
    /// Backward field on the intraop grid: intraop voxel `x` samples the
    /// preop scan at `x + u_b(x)`.
    pub gt_backward: DisplacementField,
    /// The anatomical model of the head.
    pub model: HeadModel,
}

/// Generate a complete case: preop scan, ground-truth shift, intraop scan.
pub fn generate_case(cfg: &PhantomConfig, shift: &BrainShiftConfig) -> SyntheticCase {
    let model = HeadModel::fit(cfg.dims, cfg.spacing, cfg);
    let preop = generate_from_model(cfg, &model);
    let gt_forward = ground_truth_shift(&preop, &model, shift);
    // Deform the anatomy by forward splatting (exactly consistent with
    // gt_forward even where the field gradient is steep); the approximate
    // inverse is still provided for resampling-style consumers.
    let gt_backward = invert_field(&gt_forward, 12);
    let mut intraop_labels = forward_warp_labels(&preop.labels, &gt_forward, labels::CSF);
    if shift.resect_tumor {
        // The resection cavity replaces (shifted) tumor tissue.
        for v in intraop_labels.data_mut() {
            if *v == labels::TUMOR {
                *v = labels::RESECTION;
            }
        }
    }
    // Re-render intensity from warped labels with a different noise seed:
    // a genuinely *new* scan of the deformed anatomy, not a warped copy —
    // this reproduces the paper's scan-to-scan intensity variability.
    let intra_cfg = PhantomConfig { seed: cfg.seed.wrapping_add(1), ..cfg.clone() };
    let intensity = render_intensity(&intraop_labels, &intra_cfg);
    let intraop = PhantomScan { intensity, labels: intraop_labels };
    SyntheticCase { preop, intraop, gt_forward, gt_backward, model }
}

/// Apply an additional rigid misalignment to a scan (the paper's
/// intraoperative scans arrive in a different scanner coordinate frame and
/// are first aligned by MI rigid registration). Returns the transformed
/// scan: `out(x) = in(R x + t)` in voxel coordinates. A test fixture:
/// `tests/pipeline_end_to_end.rs` and `tests/warm_scan_bitwise.rs` read it.
pub fn apply_rigid_misalignment(
    scan: &PhantomScan,
    rotation: Mat3,
    translation_vox: Vec3,
) -> PhantomScan {
    let d = scan.intensity.dims();
    let c = Vec3::new(d.nx as f64 / 2.0, d.ny as f64 / 2.0, d.nz as f64 / 2.0);
    let map = |p: Vec3| rotation * (p - c) + c + translation_vox;
    let intensity = crate::interp::resample_with(&scan.intensity, &scan.intensity, 0.0, map);
    let labels_out = crate::interp::resample_labels_with(&scan.labels, d, scan.labels.spacing(), labels::BACKGROUND, map);
    PhantomScan { intensity, labels: labels_out }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fraction of voxels where two segmentations agree.
    fn label_agreement(a: &Volume<u8>, b: &Volume<u8>) -> f64 {
        let same = a.data().iter().zip(b.data()).filter(|(x, y)| x == y).count();
        same as f64 / a.data().len() as f64
    }

    fn small_cfg() -> PhantomConfig {
        PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.0),
            ..Default::default()
        }
    }

    #[test]
    fn preop_contains_all_major_tissues() {
        let scan = generate_preop(&small_cfg());
        let ls = scan.labels.labels();
        for l in [labels::BACKGROUND, labels::SKIN, labels::SKULL, labels::CSF, labels::BRAIN, labels::VENTRICLE, labels::TUMOR] {
            assert!(ls.contains(&l), "missing {}", labels::label_name(l));
        }
    }

    #[test]
    fn anatomy_is_nested() {
        let cfg = small_cfg();
        let model = HeadModel::fit(cfg.dims, cfg.spacing, &cfg);
        // Center of head must be brain-ish tissue; far corner background.
        let c = model.brain.center;
        assert!(labels::is_brain_tissue(model.label_at(c)) || model.label_at(c) == labels::VENTRICLE);
        assert_eq!(model.label_at(Vec3::ZERO), labels::BACKGROUND);
    }

    #[test]
    fn project_surface_lands_on_level_one() {
        let e = Ellipsoid::axis_aligned(Vec3::new(10.0, 20.0, 30.0), Vec3::new(8.0, 5.0, 3.0));
        for p in [
            Vec3::new(11.0, 21.0, 30.5), // inside
            Vec3::new(40.0, 0.0, 55.0),  // outside
            e.center,                    // degenerate centre
        ] {
            let s = e.project_surface(p);
            assert!((e.level(s) - 1.0).abs() < 1e-12, "level {}", e.level(s));
        }
        // Projection preserves the ray direction from the centre.
        let p = Vec3::new(14.0, 22.0, 31.0);
        let s = e.project_surface(p);
        let d1 = (p - e.center).normalized();
        let d2 = (s - e.center).normalized();
        assert!((d1 - d2).norm() < 1e-12);
    }

    #[test]
    fn carve_cavity_respects_rigid_structures() {
        let cfg = small_cfg();
        let scan = generate_preop(&cfg);
        let model = HeadModel::fit(cfg.dims, cfg.spacing, &cfg);
        // A cavity big enough to overlap skull and background.
        let cavity = Ellipsoid::axis_aligned(
            model.brain.center + Vec3::new(model.brain.radii.x * 0.8, 0.0, 0.0),
            Vec3::splat(model.brain.radii.x * 0.6),
        );
        let carved = carve_cavity(&scan.labels, &cavity, labels::RESECTION);
        assert!(carved.data().contains(&labels::RESECTION), "cavity carved nothing");
        // Rigid labels are untouched voxel-for-voxel.
        for (x, y, z, &l) in scan.labels.iter_voxels() {
            let c = *carved.get(x, y, z);
            if !labels::is_deformable(l) {
                assert_eq!(c, l, "rigid voxel changed at ({x},{y},{z})");
            } else {
                assert!(c == l || c == labels::RESECTION);
            }
        }
    }

    #[test]
    fn skin_brighter_than_ventricle_in_rendering() {
        let scan = generate_preop(&small_cfg());
        let mut skin_sum = 0.0f64;
        let mut skin_n = 0;
        let mut vent_sum = 0.0f64;
        let mut vent_n = 0;
        for (x, y, z, &l) in scan.labels.iter_voxels() {
            let v = *scan.intensity.get(x, y, z) as f64;
            if l == labels::SKIN {
                skin_sum += v;
                skin_n += 1;
            } else if l == labels::VENTRICLE {
                vent_sum += v;
                vent_n += 1;
            }
        }
        assert!(skin_n > 0 && vent_n > 0);
        assert!(skin_sum / skin_n as f64 > vent_sum / vent_n as f64 + 50.0);
    }

    #[test]
    fn ground_truth_shift_zero_outside_brain_region() {
        let cfg = small_cfg();
        let model = HeadModel::fit(cfg.dims, cfg.spacing, &cfg);
        let scan = generate_from_model(&cfg, &model);
        let f = ground_truth_shift(&scan, &model, &BrainShiftConfig::default());
        for (x, y, z, &l) in scan.labels.iter_voxels() {
            if !labels::is_deformable(l) {
                assert_eq!(f.get(x, y, z), Vec3::ZERO);
            }
        }
        assert!(f.max_magnitude() > 4.0, "shift too small: {}", f.max_magnitude());
        assert!(f.max_magnitude() <= 8.0 + 1e-9);
    }

    #[test]
    fn case_generation_resects_tumor() {
        let case = generate_case(&small_cfg(), &BrainShiftConfig::default());
        assert!(!case.intraop.labels.data().contains(&labels::TUMOR));
        assert!(case.intraop.labels.data().contains(&labels::RESECTION));
        assert!(case.preop.labels.data().contains(&labels::TUMOR));
    }

    #[test]
    fn forward_backward_fields_are_inverse() {
        let case = generate_case(&small_cfg(), &BrainShiftConfig::default());
        let comp = case.gt_forward.compose(&case.gt_backward);
        // The field tapers to zero discontinuously at the rigid skull, so
        // a handful of boundary voxels carry interpolation error; the bulk
        // residual must stay well below a voxel (4 mm spacing here).
        assert!(comp.mean_magnitude() < 0.25, "mean {}", comp.mean_magnitude());
        assert!(comp.max_magnitude() < 2.0, "max {}", comp.max_magnitude());
    }

    #[test]
    fn rigid_misalignment_identity_is_noop() {
        let scan = generate_preop(&small_cfg());
        let moved = apply_rigid_misalignment(&scan, Mat3::IDENTITY, Vec3::ZERO);
        assert!(label_agreement(&scan.labels, &moved.labels) > 0.999);
    }

    #[test]
    fn rigid_misalignment_translation_moves_labels() {
        let scan = generate_preop(&small_cfg());
        let moved = apply_rigid_misalignment(&scan, Mat3::IDENTITY, Vec3::new(3.0, 0.0, 0.0));
        assert!(label_agreement(&scan.labels, &moved.labels) < 0.99);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_preop(&small_cfg());
        let b = generate_preop(&small_cfg());
        assert_eq!(a.intensity.data(), b.intensity.data());
        assert_eq!(a.labels.data(), b.labels.data());
    }

    #[test]
    fn full_case_is_bitwise_deterministic() {
        // The golden-field regression fixtures hash every artifact of a
        // generated case; each must be bit-identical across runs.
        let shift = BrainShiftConfig::default();
        let a = generate_case(&small_cfg(), &shift);
        let b = generate_case(&small_cfg(), &shift);
        assert_eq!(a.preop.intensity.data(), b.preop.intensity.data());
        assert_eq!(a.intraop.intensity.data(), b.intraop.intensity.data());
        assert_eq!(a.preop.labels.data(), b.preop.labels.data());
        assert_eq!(a.intraop.labels.data(), b.intraop.labels.data());
        assert_eq!(a.gt_forward.data(), b.gt_forward.data());
        assert_eq!(a.gt_backward.data(), b.gt_backward.data());
    }

    #[test]
    fn noise_is_a_pure_function_of_seed_and_voxel() {
        // No hidden RNG state: the deviate at a voxel does not depend on
        // which (or how many) other voxels were rendered before it.
        let a = voxel_gaussian(42, 3, 7, 11);
        for _ in 0..5 {
            assert_eq!(voxel_gaussian(42, 3, 7, 11).to_bits(), a.to_bits());
        }
        assert_ne!(voxel_gaussian(43, 3, 7, 11).to_bits(), a.to_bits());
        assert_ne!(voxel_gaussian(42, 4, 7, 11).to_bits(), a.to_bits());
    }

    #[test]
    fn different_seeds_render_different_noise() {
        let cfg_a = small_cfg();
        let cfg_b = PhantomConfig { seed: cfg_a.seed ^ 0xDEAD_BEEF, ..cfg_a.clone() };
        let a = generate_preop(&cfg_a);
        let b = generate_preop(&cfg_b);
        assert_eq!(a.labels.data(), b.labels.data(), "labels are noise-free");
        assert_ne!(a.intensity.data(), b.intensity.data());
    }

    #[test]
    fn voxel_gaussian_has_standard_moments() {
        let mut sum = 0.0;
        let mut sq = 0.0;
        let n = 64 * 64 * 16;
        for z in 0..16usize {
            for y in 0..64usize {
                for x in 0..64usize {
                    let g = voxel_gaussian(7, x, y, z);
                    sum += g;
                    sq += g * g;
                }
            }
        }
        let mean = sum / n as f64;
        let sd = (sq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((sd - 1.0).abs() < 0.02, "sd {sd}");
    }
}

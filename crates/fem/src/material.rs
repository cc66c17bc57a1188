//! Linear-elastic material models.
//!
//! The paper assumes "a linear elastic continuum with no initial stresses
//! or strains", with the brain treated as a homogeneous material; its
//! discussion attributes the ventricle misregistration to that homogeneity
//! and proposes falx/CSF-aware materials as future work — we provide both
//! the homogeneous table and a heterogeneous one for the ablation.

use brainshift_imaging::labels::{self, Label};

/// An isotropic linear-elastic material.
///
/// ```
/// use brainshift_fem::Material;
/// let brain = Material::brain();
/// // λ and μ recover E and ν: E = μ(3λ+2μ)/(λ+μ)
/// let (l, m) = (brain.lame_lambda(), brain.lame_mu());
/// let e = m * (3.0 * l + 2.0 * m) / (l + m);
/// assert!((e - brain.youngs_modulus).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Young's modulus, Pa.
    pub youngs_modulus: f64,
    /// Poisson's ratio (dimensionless, < 0.5).
    pub poisson_ratio: f64,
}

impl Material {
    /// A material from Young's modulus (Pa) and Poisson's ratio.
    pub const fn new(youngs_modulus: f64, poisson_ratio: f64) -> Self {
        Material { youngs_modulus, poisson_ratio }
    }

    /// First Lamé parameter λ.
    pub fn lame_lambda(&self) -> f64 {
        let e = self.youngs_modulus;
        let nu = self.poisson_ratio;
        e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    }

    /// Second Lamé parameter μ (shear modulus).
    pub fn lame_mu(&self) -> f64 {
        let e = self.youngs_modulus;
        let nu = self.poisson_ratio;
        e / (2.0 * (1.0 + nu))
    }

    /// Brain parenchyma (the paper's homogeneous model): soft tissue,
    /// nearly incompressible. E = 3 kPa, ν = 0.45 (in the range used by
    /// the contemporaneous literature the paper cites, e.g. Miga/Paulsen).
    pub const fn brain() -> Material {
        Material::new(3000.0, 0.45)
    }

    /// Cerebral falx: stiff dura membrane (≈20× brain).
    pub const fn falx() -> Material {
        Material::new(60000.0, 0.45)
    }

    /// CSF-filled spaces (ventricles): much softer than parenchyma.
    pub const fn csf() -> Material {
        Material::new(300.0, 0.49)
    }

    /// Tumor: somewhat stiffer than normal parenchyma.
    pub const fn tumor() -> Material {
        Material::new(9000.0, 0.45)
    }
}

/// Maps tissue labels to materials.
#[derive(Debug, Clone)]
pub struct MaterialTable {
    per_label: [Material; labels::NUM_LABELS],
    /// Table name for reports ("homogeneous" / "heterogeneous").
    pub name: &'static str,
}

impl MaterialTable {
    /// The paper's model: every deformable tissue behaves as homogeneous
    /// brain.
    pub fn homogeneous() -> Self {
        MaterialTable { per_label: [Material::brain(); labels::NUM_LABELS], name: "homogeneous" }
    }

    /// The improved model the paper proposes as future work: distinct
    /// falx, ventricle (CSF) and tumor properties.
    pub fn heterogeneous() -> Self {
        let mut per_label = [Material::brain(); labels::NUM_LABELS];
        per_label[labels::FALX as usize] = Material::falx();
        per_label[labels::VENTRICLE as usize] = Material::csf();
        per_label[labels::CSF as usize] = Material::csf();
        per_label[labels::TUMOR as usize] = Material::tumor();
        per_label[labels::RESECTION as usize] = Material::csf();
        MaterialTable { per_label, name: "heterogeneous" }
    }

    /// Material of a tissue label.
    #[inline]
    pub fn of(&self, label: Label) -> Material {
        self.per_label[(label as usize).min(labels::NUM_LABELS - 1)]
    }

    /// Override one label's material.
    pub fn set(&mut self, label: Label, m: Material) {
        self.per_label[label as usize] = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lame_parameters_match_closed_form() {
        let m = Material::new(3000.0, 0.45);
        // λ = Eν/((1+ν)(1−2ν)), μ = E/(2(1+ν))
        assert!((m.lame_lambda() - 3000.0 * 0.45 / (1.45 * 0.1)).abs() < 1e-9);
        assert!((m.lame_mu() - 3000.0 / 2.9).abs() < 1e-9);
    }

    #[test]
    fn homogeneous_table_is_uniform() {
        let t = MaterialTable::homogeneous();
        for l in 0..labels::NUM_LABELS as u8 {
            assert_eq!(t.of(l), Material::brain());
        }
    }

    #[test]
    fn heterogeneous_table_differs_where_expected() {
        let t = MaterialTable::heterogeneous();
        assert_eq!(t.of(labels::BRAIN), Material::brain());
        assert_eq!(t.of(labels::FALX), Material::falx());
        assert_eq!(t.of(labels::VENTRICLE), Material::csf());
        assert!(t.of(labels::FALX).youngs_modulus > t.of(labels::BRAIN).youngs_modulus);
    }

    #[test]
    fn table_override() {
        let mut t = MaterialTable::homogeneous();
        t.set(labels::TUMOR, Material::new(1.0, 0.3));
        assert_eq!(t.of(labels::TUMOR).youngs_modulus, 1.0);
    }

    #[test]
    fn nearly_incompressible_lambda_dominates() {
        let m = Material::csf(); // ν = 0.49
        assert!(m.lame_lambda() > 10.0 * m.lame_mu());
    }
}

//! Dense displacement fields.
//!
//! The output of the biomechanical simulation is a displacement vector at
//! every voxel; applying it to the preoperative data is the final step of
//! the paper's pipeline ("resample a data set according to the computed
//! deformation, which requires approximately 0.5 seconds").

use crate::geom::Vec3;
use crate::interp::{sample_nearest, sample_trilinear};
use crate::volume::{Dims, Spacing, Volume};
use rayon::prelude::*;

/// A dense field of 3-D displacement vectors, in millimetres, defined on a
/// voxel grid. `u(x)` maps a point of the *source* configuration to its
/// displaced position `x + u(x)`.
#[derive(Debug, Clone)]
pub struct DisplacementField {
    dims: Dims,
    spacing: Spacing,
    /// One displacement per voxel, x-fastest.
    data: Vec<Vec3>,
}

impl DisplacementField {
    /// A zero (identity) field.
    pub fn zeros(dims: Dims, spacing: Spacing) -> Self {
        DisplacementField { dims, spacing, data: vec![Vec3::ZERO; dims.len()] }
    }

    /// Build from a function of voxel coordinates.
    pub fn from_fn(dims: Dims, spacing: Spacing, mut f: impl FnMut(usize, usize, usize) -> Vec3) -> Self {
        let mut data = Vec::with_capacity(dims.len());
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(f(x, y, z));
                }
            }
        }
        DisplacementField { dims, spacing, data }
    }

    #[inline]
    /// Grid dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    #[inline]
    /// Voxel spacing (mm).
    pub fn spacing(&self) -> Spacing {
        self.spacing
    }

    #[inline]
    /// Displacement at voxel `(x, y, z)`.
    pub fn get(&self, x: usize, y: usize, z: usize) -> Vec3 {
        self.data[self.dims.index(x, y, z)]
    }

    #[inline]
    /// Set the displacement at voxel `(x, y, z)`.
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: Vec3) {
        let i = self.dims.index(x, y, z);
        self.data[i] = v;
    }

    /// The raw displacement buffer (x-fastest order).
    pub fn data(&self) -> &[Vec3] {
        &self.data
    }

    /// Mutable access to the raw displacement buffer.
    pub fn data_mut(&mut self) -> &mut [Vec3] {
        &mut self.data
    }

    /// Trilinearly interpolate the displacement at continuous voxel
    /// coordinates `p`; outside the grid the nearest in-grid value is used
    /// (displacements extend smoothly past the head).
    pub fn sample(&self, p: Vec3) -> Vec3 {
        let d = self.dims;
        let cx = p.x.clamp(0.0, d.nx as f64 - 1.0);
        let cy = p.y.clamp(0.0, d.ny as f64 - 1.0);
        let cz = p.z.clamp(0.0, d.nz as f64 - 1.0);
        let x0 = cx.floor() as usize;
        let y0 = cy.floor() as usize;
        let z0 = cz.floor() as usize;
        let x1 = (x0 + 1).min(d.nx - 1);
        let y1 = (y0 + 1).min(d.ny - 1);
        let z1 = (z0 + 1).min(d.nz - 1);
        let fx = cx - x0 as f64;
        let fy = cy - y0 as f64;
        let fz = cz - z0 as f64;
        let mut acc = Vec3::ZERO;
        for (iz, wz) in [(z0, 1.0 - fz), (z1, fz)] {
            for (iy, wy) in [(y0, 1.0 - fy), (y1, fy)] {
                for (ix, wx) in [(x0, 1.0 - fx), (x1, fx)] {
                    let w = wx * wy * wz;
                    if w != 0.0 {
                        acc += self.data[d.index(ix, iy, iz)] * w;
                    }
                }
            }
        }
        acc
    }

    /// Maximum displacement magnitude over the field, in mm.
    pub fn max_magnitude(&self) -> f64 {
        self.data.iter().map(|v| v.norm()).fold(0.0, f64::max)
    }

    /// Mean displacement magnitude over the field, in mm.
    pub fn mean_magnitude(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|v| v.norm()).sum::<f64>() / self.data.len() as f64
    }
}

/// Warp a scalar volume *backward* through a displacement field defined on
/// the **target** grid: `out(x) = src(x + u(x))`. This is the standard
/// resampling used to deform the preoperative scan onto the intraoperative
/// configuration when `u` maps target voxels back into the source.
pub fn warp_volume_backward(src: &Volume<f32>, field: &DisplacementField, outside: f32) -> Volume<f32> {
    let d = field.dims();
    let sp = field.spacing();
    let mut out = Volume::filled(d, sp, outside);
    let slab = d.nx * d.ny;
    out.data_mut()
        .par_chunks_mut(slab)
        .enumerate()
        .for_each(|(z, slice)| {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let u = field.get(x, y, z);
                    let p = Vec3::new(
                        x as f64 + u.x / sp.dx,
                        y as f64 + u.y / sp.dy,
                        z as f64 + u.z / sp.dz,
                    );
                    slice[x + d.nx * y] = sample_trilinear(src, p, outside);
                }
            }
        });
    out
}

/// Warp a label volume backward through a displacement field with
/// nearest-neighbour sampling.
pub fn warp_labels_backward(src: &Volume<u8>, field: &DisplacementField, outside: u8) -> Volume<u8> {
    let d = field.dims();
    let sp = field.spacing();
    let mut out = Volume::filled(d, sp, outside);
    let slab = d.nx * d.ny;
    out.data_mut()
        .par_chunks_mut(slab)
        .enumerate()
        .for_each(|(z, slice)| {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let u = field.get(x, y, z);
                    let p = Vec3::new(
                        x as f64 + u.x / sp.dx,
                        y as f64 + u.y / sp.dy,
                        z as f64 + u.z / sp.dz,
                    );
                    slice[x + d.nx * y] = sample_nearest(src, p, outside);
                }
            }
        });
    out
}

/// Approximately invert a displacement field by fixed-point iteration:
/// find `v` with `v(x) = -u(x + v(x))`. Converges for moderate, smooth
/// deformations such as intraoperative brain shift.
pub fn invert_field(field: &DisplacementField, iterations: usize) -> DisplacementField {
    let d = field.dims();
    let sp = field.spacing();
    let mut inv = DisplacementField::zeros(d, sp);
    for _ in 0..iterations {
        let data: Vec<Vec3> = (0..d.len())
            .into_par_iter()
            .map(|i| {
                let (x, y, z) = d.coords(i);
                let v = inv.data[i];
                let p = Vec3::new(
                    x as f64 + v.x / sp.dx,
                    y as f64 + v.y / sp.dy,
                    z as f64 + v.z / sp.dz,
                );
                -field.sample(p)
            })
            .collect();
        inv.data = data;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{Dims, Spacing};

    impl DisplacementField {
        /// Compose: the field that applies `self` then `other`
        /// (`u(x) = u1(x) + u2(x + u1(x))`), the check that two fields
        /// invert each other.
        pub(crate) fn compose(&self, other: &DisplacementField) -> DisplacementField {
            let sp = self.spacing;
            let d = self.dims;
            let data = (0..d.len())
                .map(|i| {
                    let (x, y, z) = d.coords(i);
                    let u1 = self.data[i];
                    // displaced point in voxel coords of `other`'s grid
                    let p = Vec3::new(
                        x as f64 + u1.x / sp.dx,
                        y as f64 + u1.y / sp.dy,
                        z as f64 + u1.z / sp.dz,
                    );
                    u1 + other.sample(p)
                })
                .collect();
            DisplacementField { dims: d, spacing: sp, data }
        }
    }

    fn constant_field(u: Vec3) -> DisplacementField {
        DisplacementField::from_fn(Dims::new(8, 8, 8), Spacing::iso(1.0), |_, _, _| u)
    }

    #[test]
    fn zero_field_is_identity_warp() {
        let v = Volume::from_fn(Dims::new(8, 8, 8), Spacing::iso(1.0), |x, y, z| (x * y + z) as f32);
        let f = DisplacementField::zeros(v.dims(), v.spacing());
        let w = warp_volume_backward(&v, &f, 0.0);
        for (a, b) in v.data().iter().zip(w.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn constant_shift_moves_values() {
        let v = Volume::from_fn(Dims::new(8, 8, 8), Spacing::iso(1.0), |x, _, _| x as f32);
        let f = constant_field(Vec3::new(2.0, 0.0, 0.0));
        let w = warp_volume_backward(&v, &f, f32::NAN);
        // out(x) = src(x+2) = x+2
        assert!((w.get(3, 4, 4) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn sample_clamps_outside() {
        let f = constant_field(Vec3::new(1.0, 2.0, 3.0));
        let s = f.sample(Vec3::new(-10.0, 50.0, 3.0));
        assert!((s - Vec3::new(1.0, 2.0, 3.0)).norm() < 1e-12);
    }

    #[test]
    fn magnitudes() {
        let f = constant_field(Vec3::new(3.0, 4.0, 0.0));
        assert!((f.max_magnitude() - 5.0).abs() < 1e-12);
        assert!((f.mean_magnitude() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn invert_constant_field() {
        let f = constant_field(Vec3::new(1.5, -0.5, 0.25));
        let inv = invert_field(&f, 10);
        let comp = f.compose(&inv);
        assert!(comp.max_magnitude() < 1e-9, "{}", comp.max_magnitude());
    }

    #[test]
    fn warp_labels_nearest() {
        let mut v: Volume<u8> = Volume::zeros(Dims::new(8, 8, 8), Spacing::iso(1.0));
        v.set(5, 4, 4, 7);
        let f = constant_field(Vec3::new(1.0, 0.0, 0.0));
        let w = warp_labels_backward(&v, &f, 0);
        assert_eq!(*w.get(4, 4, 4), 7);
    }
}

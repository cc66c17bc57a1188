//! Dense 3-D volumes (the fundamental image type of the pipeline).
//!
//! An intraoperative MRI in the paper is a `256×256×60` scalar volume; the
//! segmentation pipeline also manipulates label volumes and multichannel
//! feature volumes. `Volume<T>` stores voxels in x-fastest order
//! (`idx = x + nx*(y + ny*z)`), with physical voxel spacing so that
//! world-coordinate geometry (meshes, FEM) and voxel-coordinate image
//! processing interoperate.

use crate::geom::Vec3;

/// Volume dimensions in voxels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Voxels along x.
    pub nx: usize,
    /// Voxels along y.
    pub ny: usize,
    /// Voxels along z.
    pub nz: usize,
}

impl Dims {
    #[inline]
    /// Dimensions from per-axis voxel counts.
    pub const fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Dims { nx, ny, nz }
    }

    /// Total number of voxels.
    #[inline]
    pub const fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline]
    /// True when the volume holds no voxels.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of voxel `(x, y, z)`. Callers must pass in-range
    /// coordinates; this is checked in debug builds only.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Inverse of [`Dims::index`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.len());
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }

    /// True when `(x, y, z)` lies inside the volume.
    #[inline]
    pub fn contains(&self, x: i64, y: i64, z: i64) -> bool {
        x >= 0
            && y >= 0
            && z >= 0
            && (x as usize) < self.nx
            && (y as usize) < self.ny
            && (z as usize) < self.nz
    }
}

/// Physical spacing between voxel centres, in millimetres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spacing {
    /// Spacing along x, mm.
    pub dx: f64,
    /// Spacing along y, mm.
    pub dy: f64,
    /// Spacing along z, mm.
    pub dz: f64,
}

impl Spacing {
    #[inline]
    /// Spacing from per-axis values (mm).
    pub const fn new(dx: f64, dy: f64, dz: f64) -> Self {
        Spacing { dx, dy, dz }
    }

    /// Isotropic spacing.
    #[inline]
    pub const fn iso(d: f64) -> Self {
        Spacing::new(d, d, d)
    }

    /// Voxel volume in mm³.
    #[inline]
    pub fn voxel_volume(&self) -> f64 {
        self.dx * self.dy * self.dz
    }
}

impl Default for Spacing {
    fn default() -> Self {
        Spacing::iso(1.0)
    }
}

/// A dense 3-D volume of voxels of type `T`.
///
/// ```
/// use brainshift_imaging::{Volume, Dims, Spacing};
/// let v = Volume::from_fn(Dims::new(4, 4, 4), Spacing::iso(2.0), |x, y, z| (x + y + z) as f32);
/// assert_eq!(*v.get(1, 2, 3), 6.0);
/// assert_eq!(v.world(1, 0, 0).x, 2.0); // spacing in mm
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Volume<T> {
    dims: Dims,
    spacing: Spacing,
    data: Vec<T>,
}

impl<T: Clone> Volume<T> {
    /// A volume filled with `value`.
    pub fn filled(dims: Dims, spacing: Spacing, value: T) -> Self {
        Volume { dims, spacing, data: vec![value; dims.len()] }
    }
}

impl<T: Clone + Default> Volume<T> {
    /// A volume of default-valued voxels (0 for numeric types).
    pub fn zeros(dims: Dims, spacing: Spacing) -> Self {
        Volume::filled(dims, spacing, T::default())
    }
}

impl<T> Volume<T> {
    /// Wrap an existing buffer. Panics if `data.len() != dims.len()`.
    pub fn from_vec(dims: Dims, spacing: Spacing, data: Vec<T>) -> Self {
        assert_eq!(data.len(), dims.len(), "buffer length must match dims");
        Volume { dims, spacing, data }
    }

    /// Build a volume by evaluating `f(x, y, z)` at every voxel.
    pub fn from_fn(dims: Dims, spacing: Spacing, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(dims.len());
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(f(x, y, z));
                }
            }
        }
        Volume { dims, spacing, data }
    }

    #[inline]
    /// Volume dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    #[inline]
    /// Voxel spacing (mm).
    pub fn spacing(&self) -> Spacing {
        self.spacing
    }

    #[inline]
    /// The raw voxel buffer (x-fastest order).
    pub fn data(&self) -> &[T] {
        &self.data
    }

    #[inline]
    /// Mutable access to the raw voxel buffer.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    #[inline]
    /// Voxel value at `(x, y, z)` (panics out of range).
    pub fn get(&self, x: usize, y: usize, z: usize) -> &T {
        &self.data[self.dims.index(x, y, z)]
    }

    #[inline]
    /// Mutable voxel at `(x, y, z)`.
    pub fn get_mut(&mut self, x: usize, y: usize, z: usize) -> &mut T {
        let i = self.dims.index(x, y, z);
        &mut self.data[i]
    }

    #[inline]
    /// Overwrite the voxel at `(x, y, z)`.
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.dims.index(x, y, z);
        self.data[i] = v;
    }

    /// Voxel value at signed coordinates, or `None` outside the volume.
    #[inline]
    pub fn try_get(&self, x: i64, y: i64, z: i64) -> Option<&T> {
        if self.dims.contains(x, y, z) {
            Some(&self.data[self.dims.index(x as usize, y as usize, z as usize)])
        } else {
            None
        }
    }

    /// World coordinates (mm) of the centre of voxel `(x, y, z)`.
    #[inline]
    pub fn world(&self, x: usize, y: usize, z: usize) -> Vec3 {
        Vec3::new(
            x as f64 * self.spacing.dx,
            y as f64 * self.spacing.dy,
            z as f64 * self.spacing.dz,
        )
    }

    /// Continuous voxel coordinates of a world point (may be out of range).
    #[inline]
    pub fn voxel_of_world(&self, p: Vec3) -> Vec3 {
        Vec3::new(p.x / self.spacing.dx, p.y / self.spacing.dy, p.z / self.spacing.dz)
    }

    /// Physical extent of the volume in mm.
    pub fn extent(&self) -> Vec3 {
        Vec3::new(
            self.dims.nx as f64 * self.spacing.dx,
            self.dims.ny as f64 * self.spacing.dy,
            self.dims.nz as f64 * self.spacing.dz,
        )
    }

    /// Iterate `(x, y, z, &value)` in storage order.
    pub fn iter_voxels(&self) -> impl Iterator<Item = (usize, usize, usize, &T)> {
        let dims = self.dims;
        self.data.iter().enumerate().map(move |(i, v)| {
            let (x, y, z) = dims.coords(i);
            (x, y, z, v)
        })
    }

    /// Map every voxel through `f`, producing a volume of a new type.
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Volume<U> {
        Volume {
            dims: self.dims,
            spacing: self.spacing,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Extract the axial slice `z` as a row-major (y, x) buffer.
    pub fn slice_z(&self, z: usize) -> Vec<T>
    where
        T: Clone,
    {
        assert!(z < self.dims.nz);
        let n = self.dims.nx * self.dims.ny;
        self.data[z * n..(z + 1) * n].to_vec()
    }
}

impl Volume<f32> {
    /// Minimum and maximum voxel values (0,0 for an empty volume).
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Mean voxel value.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }
}

impl Volume<u8> {
    /// Count voxels equal to `label`.
    pub fn count_label(&self, label: u8) -> usize {
        self.data.iter().filter(|&&v| v == label).count()
    }

    /// The set of distinct labels present, sorted.
    pub fn labels(&self) -> Vec<u8> {
        let mut seen = [false; 256];
        for &v in &self.data {
            seen[v as usize] = true;
        }
        (0u16..256).filter(|&i| seen[i as usize]).map(|i| i as u8).collect()
    }
}

impl brainshift_persist::Persist for Dims {
    fn encode(
        &self,
        enc: &mut brainshift_persist::Encoder,
    ) -> Result<(), brainshift_persist::PersistError> {
        enc.put_usize(self.nx);
        enc.put_usize(self.ny);
        enc.put_usize(self.nz);
        Ok(())
    }
    fn decode(
        dec: &mut brainshift_persist::Decoder<'_>,
    ) -> Result<Self, brainshift_persist::PersistError> {
        Ok(Dims { nx: dec.get_usize()?, ny: dec.get_usize()?, nz: dec.get_usize()? })
    }
}

impl brainshift_persist::Persist for Spacing {
    fn encode(
        &self,
        enc: &mut brainshift_persist::Encoder,
    ) -> Result<(), brainshift_persist::PersistError> {
        enc.put_f64(self.dx);
        enc.put_f64(self.dy);
        enc.put_f64(self.dz);
        Ok(())
    }
    fn decode(
        dec: &mut brainshift_persist::Decoder<'_>,
    ) -> Result<Self, brainshift_persist::PersistError> {
        Ok(Spacing { dx: dec.get_f64()?, dy: dec.get_f64()?, dz: dec.get_f64()? })
    }
}

impl<T: brainshift_persist::Persist> brainshift_persist::Persist for Volume<T> {
    fn encode(
        &self,
        enc: &mut brainshift_persist::Encoder,
    ) -> Result<(), brainshift_persist::PersistError> {
        self.dims.encode(enc)?;
        self.spacing.encode(enc)?;
        self.data.encode(enc)
    }
    fn decode(
        dec: &mut brainshift_persist::Decoder<'_>,
    ) -> Result<Self, brainshift_persist::PersistError> {
        let dims = Dims::decode(dec)?;
        let spacing = Spacing::decode(dec)?;
        let data = Vec::<T>::decode(dec)?;
        if data.len() != dims.len() {
            return Err(brainshift_persist::PersistError::InvalidData {
                reason: format!("volume has {} voxels for dims {dims:?}", data.len()),
            });
        }
        Ok(Volume { dims, spacing, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coords_roundtrip() {
        let d = Dims::new(7, 5, 3);
        for idx in 0..d.len() {
            let (x, y, z) = d.coords(idx);
            assert_eq!(d.index(x, y, z), idx);
        }
    }

    #[test]
    fn storage_is_x_fastest() {
        let d = Dims::new(4, 3, 2);
        assert_eq!(d.index(1, 0, 0), 1);
        assert_eq!(d.index(0, 1, 0), 4);
        assert_eq!(d.index(0, 0, 1), 12);
    }

    #[test]
    fn contains_bounds() {
        let d = Dims::new(2, 2, 2);
        assert!(d.contains(0, 0, 0));
        assert!(d.contains(1, 1, 1));
        assert!(!d.contains(-1, 0, 0));
        assert!(!d.contains(2, 0, 0));
        assert!(!d.contains(0, 0, 2));
    }

    #[test]
    fn from_fn_matches_get() {
        let v = Volume::from_fn(Dims::new(3, 4, 5), Spacing::iso(1.0), |x, y, z| (x + 10 * y + 100 * z) as i32);
        assert_eq!(*v.get(2, 3, 4), 432);
        assert_eq!(*v.get(0, 0, 0), 0);
        assert_eq!(v.try_get(3, 0, 0), None);
        assert_eq!(v.try_get(2, 3, 4), Some(&432));
    }

    #[test]
    fn world_voxel_roundtrip() {
        let v: Volume<f32> = Volume::zeros(Dims::new(10, 10, 10), Spacing::new(0.5, 1.0, 2.0));
        let w = v.world(4, 5, 6);
        assert_eq!(w, Vec3::new(2.0, 5.0, 12.0));
        let back = v.voxel_of_world(w);
        assert!((back.x - 4.0).abs() < 1e-12);
        assert!((back.y - 5.0).abs() < 1e-12);
        assert!((back.z - 6.0).abs() < 1e-12);
    }

    #[test]
    fn map_and_minmax() {
        let v = Volume::from_fn(Dims::new(2, 2, 2), Spacing::iso(1.0), |x, _, _| x as f32);
        let doubled = v.map(|&a| a * 2.0);
        assert_eq!(doubled.min_max(), (0.0, 2.0));
        assert!((v.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn labels_and_counts() {
        let mut v: Volume<u8> = Volume::zeros(Dims::new(3, 3, 3), Spacing::iso(1.0));
        v.set(0, 0, 0, 5);
        v.set(1, 1, 1, 5);
        v.set(2, 2, 2, 9);
        assert_eq!(v.labels(), vec![0, 5, 9]);
        assert_eq!(v.count_label(5), 2);
        assert_eq!(v.count_label(9), 1);
        assert_eq!(v.count_label(0), 24);
    }

    #[test]
    fn slice_extraction() {
        let v = Volume::from_fn(Dims::new(2, 2, 3), Spacing::iso(1.0), |x, y, z| (x + 2 * y + 4 * z) as u8);
        assert_eq!(v.slice_z(1), vec![4, 5, 6, 7]);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch_panics() {
        let _ = Volume::from_vec(Dims::new(2, 2, 2), Spacing::iso(1.0), vec![0u8; 7]);
    }
}

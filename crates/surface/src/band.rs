//! The band around a reference boundary: the voxels on which a scan's
//! target is classified and the active surface's distance force computed.

use brainshift_imaging::{Dims, Volume};
use std::fmt;

/// The voxels within a half-width *B* of a reference boundary, built once
/// per surgery from the reference's signed distance φ_ref: |φ_ref| per
/// voxel, *B*, the band's voxels in ascending order and their membership
/// on the grid.
///
/// A classifier runs on [`Band::voxels`]; a
/// [`DistanceForce`](crate::DistanceForce) built on the band computes φ
/// and ∇φ on its voxels only, saturates them elsewhere, and guards its
/// samples with |φ_ref| and *B*.
#[derive(Debug)]
pub struct Band {
    /// |φ_ref| per voxel (mm).
    distance: Vec<f32>,
    /// Half-width *B* (mm).
    width: f32,
    /// The voxels with |φ_ref| ≤ *B*, ascending.
    voxels: Vec<usize>,
    /// `true` on the band's voxels.
    member: Volume<bool>,
}

impl Band {
    /// The voxels of `reference`'s grid with |`reference`| ≤ `width`,
    /// `reference` being the signed distance (mm) to the reference
    /// boundary. An infinite `width` holds every voxel.
    pub fn new(reference: &Volume<f32>, width: f32) -> Band {
        let distance: Vec<f32> = reference.data().iter().map(|p| p.abs()).collect();
        let member = Volume::from_vec(
            reference.dims(),
            reference.spacing(),
            distance.iter().map(|&r| r <= width).collect(),
        );
        let voxels = (0..distance.len()).filter(|&v| member.data()[v]).collect();
        Band { distance, width, voxels, member }
    }

    /// The grid the band lies on.
    pub fn dims(&self) -> Dims {
        self.member.dims()
    }

    /// Half-width *B* (mm).
    pub fn width(&self) -> f32 {
        self.width
    }

    /// |φ_ref| per voxel (mm).
    pub fn distance(&self) -> &[f32] {
        &self.distance
    }

    /// The band's voxels, ascending.
    pub fn voxels(&self) -> &[usize] {
        &self.voxels
    }

    /// `true` on the band's voxels.
    pub fn member(&self) -> &Volume<bool> {
        &self.member
    }

    /// True when the band holds every voxel of its grid.
    pub fn is_whole(&self) -> bool {
        self.voxels.len() == self.distance.len()
    }
}

/// A typed failure of the surface stage.
#[derive(Debug, Clone, PartialEq)]
pub enum SurfaceError {
    /// A target mask arrived on a grid other than its band's.
    GridMismatch {
        /// Grid of the band.
        band: Dims,
        /// Grid of the target mask.
        mask: Dims,
    },
}

impl fmt::Display for SurfaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurfaceError::GridMismatch { band, mask } => {
                write!(f, "target mask grid {mask:?} does not match the band's {band:?}")
            }
        }
    }
}

impl std::error::Error for SurfaceError {}

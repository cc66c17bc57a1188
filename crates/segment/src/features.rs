//! Multichannel feature space for intraoperative classification.
//!
//! "The intraoperative image data then together with the spatial
//! localization model forms a multichannel 3D data set. Each voxel of the
//! combined data sets is then represented by a vector having components
//! from the intraoperative MR scan [and] the spatially varying tissue
//! location model..."
//!
//! Channels are reference-counted so a constant channel (a saturated
//! distance map of the *preoperative* segmentation) can be shared between
//! stacks without copying. The classification hot loop does not build a
//! stack: [`Classifier::classify`](crate::classify::Classifier::classify)
//! reads each listed voxel's weighted row straight from the channels.

use std::sync::Arc;

use brainshift_imaging::volume::Spacing;
use brainshift_imaging::{Dims, Volume};

/// A stack of aligned scalar channels: channel 0 is MR intensity, the rest
/// are saturated distance maps of preoperative tissue classes.
#[derive(Debug, Clone)]
pub struct FeatureStack {
    dims: Dims,
    spacing: Spacing,
    channels: Vec<Arc<Volume<f32>>>,
    /// Per-channel scale applied when extracting vectors (balances
    /// intensity units against millimetre distances).
    weights: Vec<f32>,
}

impl FeatureStack {
    /// Start a stack from the intensity channel with weight 1. The
    /// intensity volume's grid spacing becomes the stack's spacing and is
    /// propagated onto classification outputs.
    pub fn from_intensity(intensity: Volume<f32>) -> Self {
        let dims = intensity.dims();
        let spacing = intensity.spacing();
        FeatureStack { dims, spacing, channels: vec![Arc::new(intensity)], weights: vec![1.0] }
    }

    /// Add an arbitrary channel.
    pub fn push_channel(&mut self, channel: Volume<f32>, weight: f32) {
        self.push_shared_channel(Arc::new(channel), weight);
    }

    /// Add a channel shared with other stacks (e.g. the per-surgery
    /// distance maps reused across scans) without copying its data.
    pub fn push_shared_channel(&mut self, channel: Arc<Volume<f32>>, weight: f32) {
        assert_eq!(channel.dims(), self.dims, "channel grid mismatch");
        self.channels.push(channel);
        self.weights.push(weight);
    }

    /// Number of channels in the stack.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Grid dimensions shared by all channels.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Grid spacing (taken from the intensity channel).
    pub fn spacing(&self) -> Spacing {
        self.spacing
    }

    /// Feature vector of voxel `(x, y, z)` (weights applied).
    pub fn vector(&self, x: usize, y: usize, z: usize) -> Vec<f32> {
        self.channels
            .iter()
            .zip(&self.weights)
            .map(|(c, &w)| *c.get(x, y, z) * w)
            .collect()
    }

    /// Feature vector by linear voxel index.
    pub fn vector_at(&self, idx: usize) -> Vec<f32> {
        self.channels
            .iter()
            .zip(&self.weights)
            .map(|(c, &w)| c.data()[idx] * w)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::dtransform::label_distance_map;

    #[test]
    fn stack_builds_vectors_with_weights() {
        let d = Dims::new(4, 4, 4);
        let intensity = Volume::from_fn(d, Spacing::iso(1.0), |x, _, _| x as f32);
        let mut fs = FeatureStack::from_intensity(intensity);
        let extra = Volume::from_fn(d, Spacing::iso(1.0), |_, y, _| y as f32);
        fs.push_channel(extra, 0.5);
        assert_eq!(fs.num_channels(), 2);
        assert_eq!(fs.vector(2, 3, 0), vec![2.0, 1.5]);
        assert_eq!(fs.vector_at(d.index(2, 3, 0)), vec![2.0, 1.5]);
    }

    #[test]
    fn stack_keeps_intensity_spacing() {
        let sp = Spacing::new(0.9, 1.1, 2.5);
        let intensity = Volume::from_fn(Dims::new(3, 3, 3), sp, |_, _, _| 0.0f32);
        let fs = FeatureStack::from_intensity(intensity);
        assert_eq!(fs.spacing(), sp);
    }

    #[test]
    fn shared_channels_are_not_copied() {
        let d = Dims::new(4, 4, 4);
        let chan = Arc::new(Volume::from_fn(d, Spacing::iso(1.0), |x, _, _| x as f32));
        let mut a = FeatureStack::from_intensity(Volume::zeros(d, Spacing::iso(1.0)));
        let mut b = FeatureStack::from_intensity(Volume::zeros(d, Spacing::iso(1.0)));
        a.push_shared_channel(chan.clone(), 1.0);
        b.push_shared_channel(chan.clone(), 1.0);
        assert_eq!(Arc::strong_count(&chan), 3);
        assert_eq!(a.vector(2, 0, 0)[1], 2.0);
    }

    #[test]
    fn distance_channel_negative_inside_label() {
        let d = Dims::new(6, 6, 6);
        let intensity: Volume<f32> = Volume::zeros(d, Spacing::iso(1.0));
        let seg = Volume::from_fn(d, Spacing::iso(1.0), |x, _, _| if x < 3 { 4u8 } else { 0 });
        let mut fs = FeatureStack::from_intensity(intensity);
        fs.push_channel(label_distance_map(&seg, 4, 10.0), 1.0);
        assert!(fs.vector(0, 3, 3)[1] < 0.0, "inside should be negative");
        assert!(fs.vector(5, 3, 3)[1] > 0.0, "outside should be positive");
    }

    #[test]
    #[should_panic]
    fn mismatched_channel_rejected() {
        let a: Volume<f32> = Volume::zeros(Dims::new(4, 4, 4), Spacing::iso(1.0));
        let b: Volume<f32> = Volume::zeros(Dims::new(5, 5, 5), Spacing::iso(1.0));
        let mut fs = FeatureStack::from_intensity(a);
        fs.push_channel(b, 1.0);
    }
}

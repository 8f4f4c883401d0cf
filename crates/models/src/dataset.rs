//! Dataset descriptors for the timing model.
//!
//! The paper trains on CIFAR-10 and ImageNet. The simulator only needs the
//! loading-cost profile of a dataset: how many samples an epoch contains,
//! how many bytes reach the GPU per sample, and how much shared host CPU
//! time decoding/augmenting one sample costs. The functional engine
//! (crate `pipebd-data`) builds synthetic datasets that match these shapes.

use crate::arch::ActShape;

/// Loading-cost profile of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name, e.g. `"cifar10"`.
    pub name: String,
    /// Training-set size (samples per epoch).
    pub train_samples: u64,
    /// Per-sample tensor shape delivered to the model.
    pub sample_shape: ActShape,
    /// Number of classes.
    pub classes: usize,
    /// Host CPU time to decode + augment one sample, in microseconds.
    /// This is the shared resource the paper's "extra data loading"
    /// overhead queues on.
    pub decode_us_per_sample: f64,
}

impl DatasetSpec {
    /// CIFAR-10: 50 000 train images of 3×32×32.
    ///
    /// The 25 µs/sample decode cost models an augmentation pipeline
    /// (crop + flip + normalize) on raw bitmaps, matching the visible
    /// data-loading share in the paper's Fig. 2.
    pub fn cifar10() -> Self {
        DatasetSpec {
            name: "cifar10".into(),
            train_samples: 50_000,
            sample_shape: ActShape::new(3, 32, 32),
            classes: 10,
            decode_us_per_sample: 25.0,
        }
    }

    /// ImageNet-1k: 1 281 167 train images decoded to 3×224×224.
    ///
    /// The 1.8 ms/sample decode cost models JPEG decode + resize +
    /// augmentation, the dominant loader cost on ImageNet.
    pub fn imagenet() -> Self {
        DatasetSpec {
            name: "imagenet".into(),
            train_samples: 1_281_167,
            sample_shape: ActShape::new(3, 224, 224),
            classes: 1000,
            decode_us_per_sample: 1800.0,
        }
    }

    /// A miniature dataset used by fast tests and examples.
    pub fn mini(samples: u64, side: usize, classes: usize) -> Self {
        DatasetSpec {
            name: format!("mini{side}"),
            train_samples: samples,
            sample_shape: ActShape::new(3, side, side),
            classes,
            decode_us_per_sample: 10.0,
        }
    }

    /// Bytes transferred host→device per sample (fp32 tensor).
    pub fn sample_bytes(&self) -> u64 {
        self.sample_shape.bytes()
    }

    /// Number of optimizer steps in one epoch at the given global batch
    /// size (drop-last semantics, minimum 1).
    pub fn steps_per_epoch(&self, batch: usize) -> u64 {
        (self.train_samples / batch.max(1) as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cifar_profile() {
        let d = DatasetSpec::cifar10();
        assert_eq!(d.train_samples, 50_000);
        assert_eq!(d.sample_bytes(), 3 * 32 * 32 * 4);
        assert_eq!(d.steps_per_epoch(256), 195);
    }

    #[test]
    fn imagenet_profile() {
        let d = DatasetSpec::imagenet();
        assert_eq!(d.steps_per_epoch(256), 5004);
        assert!(d.decode_us_per_sample > DatasetSpec::cifar10().decode_us_per_sample);
    }

    #[test]
    fn steps_never_zero() {
        let d = DatasetSpec::mini(10, 8, 2);
        assert_eq!(d.steps_per_epoch(64), 1);
        assert_eq!(d.steps_per_epoch(0), 10);
    }
}

//! Synthetic datasets for the functional engine.
//!
//! The paper trains on CIFAR-10 and ImageNet, which we do not have. For
//! the *timing* experiments only the loading profile matters (see
//! [`pipebd_models::DatasetSpec`]). For the *functional* experiments —
//! demonstrating that Pipe-BD scheduling leaves training results unchanged
//! — any deterministic input distribution exercises the identical code
//! path, so this crate generates procedural images: each class has a
//! parametric spatial pattern, perturbed with seeded noise. The noise is
//! one standard normal per pixel from [`Rng64::normal`] (a ziggurat, so
//! 98.5 % of attempts cost one multiply and one compare), drawn in pixel
//! order from a stream seeded by the sample's index.
//!
//! # Example
//!
//! ```
//! use pipebd_data::SyntheticImageDataset;
//!
//! let ds = SyntheticImageDataset::mini(64, 8, 4, 7);
//! let (images, labels) = ds.batch(0, 16);
//! assert_eq!(images.dims(), &[16, 3, 8, 8]);
//! assert_eq!(labels.len(), 16);
//! // Deterministic: the same batch is bit-identical on every call.
//! assert_eq!(images.data(), ds.batch(0, 16).0.data());
//! ```

#![warn(missing_docs)]

use pipebd_models::DatasetSpec;
use pipebd_tensor::{Rng64, Tensor};

/// A deterministic, procedurally generated image-classification dataset.
///
/// Sample `i` is a function of `(seed, i)` only — no global state — so any
/// device/thread can materialize any subset of the data independently, the
/// way a distributed loader shards a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticImageDataset {
    spec: DatasetSpec,
    seed: u64,
}

impl SyntheticImageDataset {
    /// Wraps a dataset descriptor with a generation seed.
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        SyntheticImageDataset { spec, seed }
    }

    /// A small dataset for tests: `samples` images of `3×side×side` over
    /// `classes` classes.
    pub fn mini(samples: u64, side: usize, classes: usize, seed: u64) -> Self {
        SyntheticImageDataset::new(DatasetSpec::mini(samples, side, classes), seed)
    }

    /// The dataset descriptor (loading profile).
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.spec.train_samples
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.spec.train_samples == 0
    }

    /// The label of sample `index`.
    pub fn label(&self, index: u64) -> usize {
        // Stable pseudo-random class assignment.
        let mut rng = Rng64::seed_from_u64(self.seed ^ index.wrapping_mul(0x9E37_79B9));
        rng.below(self.spec.classes.max(1))
    }

    /// Materializes sample `index` as a `[3, h, w]` tensor.
    pub fn sample(&self, index: u64) -> Tensor {
        let shape = self.spec.sample_shape;
        let mut data = vec![0.0f32; shape.elems() as usize];
        self.write_sample(index, &mut data);
        Tensor::from_vec(data, &[shape.c, shape.h, shape.w]).expect("shape math is consistent")
    }

    /// Writes sample `index` into `out`, one `[c, h, w]` image: a
    /// class-dependent smooth pattern plus seeded noise. The pattern is a
    /// sine of the column times a cosine of the row, so each is evaluated
    /// once per row or column instead of once per pixel. The noise stream
    /// is drawn in pixel order, a row at a time into the row itself, and
    /// the pattern is then added in place. Returns the sample's label.
    fn write_sample(&self, index: u64, out: &mut [f32]) -> usize {
        let shape = self.spec.sample_shape;
        let label = self.label(index);
        let class = label as f32;
        let mut rng = Rng64::seed_from_u64(self.seed ^ index.rotate_left(17));
        let (h, w) = (shape.h as f32, shape.w as f32);
        let cos_row: Vec<f32> = (0..shape.h)
            .map(|y| ((y as f32 / h * (1.0 + class)) * std::f32::consts::PI).cos())
            .collect();
        let mut sin_col = vec![0.0f32; shape.w];
        for c in 0..shape.c {
            let phase = class * 0.7 + c as f32 * 1.3;
            for (x, s) in sin_col.iter_mut().enumerate() {
                *s = ((x as f32 / w * (2.0 + class) * std::f32::consts::PI) + phase).sin();
            }
            for (y, &cos) in cos_row.iter().enumerate() {
                let row = &mut out[(c * shape.h + y) * shape.w..][..shape.w];
                rng.fill_normal(row);
                for (v, &sin) in row.iter_mut().zip(&sin_col) {
                    *v = 0.5 * (sin * cos) + 0.1 * *v;
                }
            }
        }
        label
    }

    /// Materializes a batch starting at `start` (wrapping around the end),
    /// returning `[n, 3, h, w]` images and their labels. Each sample is
    /// written straight into its slice of the batch buffer.
    pub fn batch(&self, start: u64, n: usize) -> (Tensor, Vec<usize>) {
        let shape = self.spec.sample_shape;
        let per = shape.elems() as usize;
        let mut images = Tensor::zeros(&[n, shape.c, shape.h, shape.w]);
        let data = images.data_mut();
        let mut labels = Vec::with_capacity(n);
        for k in 0..n {
            let idx = (start + k as u64) % self.len().max(1);
            labels.push(self.write_sample(idx, &mut data[k * per..(k + 1) * per]));
        }
        (images, labels)
    }
}

/// Iterates deterministic batches across an epoch.
#[derive(Debug, Clone)]
pub struct EpochBatches<'a> {
    dataset: &'a SyntheticImageDataset,
    batch: usize,
    cursor: u64,
    remaining_steps: u64,
}

impl<'a> EpochBatches<'a> {
    /// Creates an iterator over one epoch at a batch size (drop-last).
    pub fn new(dataset: &'a SyntheticImageDataset, batch: usize) -> Self {
        EpochBatches {
            dataset,
            batch,
            cursor: 0,
            remaining_steps: dataset.spec().steps_per_epoch(batch),
        }
    }
}

impl Iterator for EpochBatches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining_steps == 0 {
            return None;
        }
        let out = self.dataset.batch(self.cursor, self.batch);
        self.cursor += self.batch as u64;
        self.remaining_steps -= 1;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as first written: the whole pattern evaluated per
    /// pixel. `sample` and `batch` must reproduce it bit for bit.
    fn per_pixel_sample(ds: &SyntheticImageDataset, index: u64) -> Vec<f32> {
        let shape = ds.spec.sample_shape;
        let class = ds.label(index) as f32;
        let mut rng = Rng64::seed_from_u64(ds.seed ^ index.rotate_left(17));
        let mut data = Vec::with_capacity(shape.elems() as usize);
        let (h, w) = (shape.h as f32, shape.w as f32);
        for c in 0..shape.c {
            let phase = class * 0.7 + c as f32 * 1.3;
            for y in 0..shape.h {
                for x in 0..shape.w {
                    let fy = y as f32 / h;
                    let fx = x as f32 / w;
                    let pattern = ((fx * (2.0 + class) * std::f32::consts::PI) + phase).sin()
                        * ((fy * (1.0 + class)) * std::f32::consts::PI).cos();
                    data.push(0.5 * pattern + 0.1 * rng.normal());
                }
            }
        }
        data
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn separable_generator_matches_the_per_pixel_formula_bitwise() {
        // Odd side, every class in play, and a batch that wraps.
        let ds = SyntheticImageDataset::mini(21, 33, 10, 11);
        for index in [0u64, 7, 20] {
            assert_eq!(
                bits(ds.sample(index).data()),
                bits(&per_pixel_sample(&ds, index)),
                "sample {index}"
            );
        }
        let (images, labels) = ds.batch(17, 9); // indices 17..=20, then 0..=4
        let per = 3 * 33 * 33;
        for (k, chunk) in images.data().chunks_exact(per).enumerate() {
            let idx = (17 + k as u64) % 21;
            assert_eq!(bits(chunk), bits(&per_pixel_sample(&ds, idx)), "row {k}");
            assert_eq!(labels[k], ds.label(idx));
        }
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn samples_are_deterministic() {
        let ds = SyntheticImageDataset::mini(32, 8, 4, 1);
        assert_eq!(ds.sample(5), ds.sample(5));
        assert_eq!(ds.label(5), ds.label(5));
    }

    #[test]
    fn different_indices_differ() {
        let ds = SyntheticImageDataset::mini(32, 8, 4, 1);
        assert_ne!(ds.sample(0), ds.sample(1));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticImageDataset::mini(32, 8, 4, 1);
        let b = SyntheticImageDataset::mini(32, 8, 4, 2);
        assert_ne!(a.sample(0), b.sample(0));
    }

    #[test]
    fn labels_cover_classes() {
        let ds = SyntheticImageDataset::mini(256, 8, 4, 3);
        let mut seen = [false; 4];
        for i in 0..256 {
            seen[ds.label(i)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn batch_wraps_around() {
        let ds = SyntheticImageDataset::mini(10, 8, 2, 4);
        let (images, labels) = ds.batch(8, 4); // indices 8,9,0,1
        assert_eq!(images.dims(), &[4, 3, 8, 8]);
        assert_eq!(labels[2], ds.label(0));
        assert_eq!(labels[3], ds.label(1));
    }

    #[test]
    fn epoch_iterator_yields_steps_per_epoch() {
        let ds = SyntheticImageDataset::mini(100, 8, 2, 5);
        let batches: Vec<_> = EpochBatches::new(&ds, 32).collect();
        assert_eq!(batches.len(), 3); // 100/32 drop-last
        assert_eq!(batches[0].0.dims()[0], 32);
    }

    #[test]
    fn batch_equals_concatenated_samples() {
        let ds = SyntheticImageDataset::mini(16, 8, 3, 6);
        let (images, _) = ds.batch(2, 2);
        let s2 = ds.sample(2);
        let s3 = ds.sample(3);
        assert_eq!(&images.data()[..s2.numel()], s2.data());
        assert_eq!(&images.data()[s2.numel()..], s3.data());
    }

    #[test]
    fn values_are_bounded() {
        let ds = SyntheticImageDataset::mini(8, 16, 10, 7);
        let (images, _) = ds.batch(0, 8);
        assert!(images.data().iter().all(|v| v.abs() < 3.0));
    }
}

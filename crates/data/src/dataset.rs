//! In-memory labeled image dataset with deterministic batching.

use leca_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// Errors from dataset construction and batching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Image and label counts differ.
    LengthMismatch {
        /// Number of images supplied.
        images: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// Images do not share a single `(C, H, W)` shape.
    InhomogeneousShapes,
    /// A requested batch range exceeds the dataset.
    RangeOutOfBounds {
        /// Requested start index.
        start: usize,
        /// Requested item count.
        count: usize,
        /// Dataset size.
        len: usize,
    },
    /// A label is `>= num_classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes.
        num_classes: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { images, labels } => {
                write!(f, "{images} images but {labels} labels")
            }
            DatasetError::InhomogeneousShapes => write!(f, "images have differing shapes"),
            DatasetError::RangeOutOfBounds { start, count, len } => {
                write!(
                    f,
                    "batch [{start}, {}) out of range for {len} items",
                    start + count
                )
            }
            DatasetError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A labeled set of same-shape `(C, H, W)` images in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset, validating shapes and label ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`DatasetError`] describing the first inconsistency.
    pub fn new(
        images: Vec<Tensor>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, DatasetError> {
        if images.len() != labels.len() {
            return Err(DatasetError::LengthMismatch {
                images: images.len(),
                labels: labels.len(),
            });
        }
        if let Some(first) = images.first() {
            if images.iter().any(|im| im.shape() != first.shape()) {
                return Err(DatasetError::InhomogeneousShapes);
            }
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DatasetError::LabelOutOfRange {
                label: bad,
                num_classes,
            });
        }
        Ok(Dataset {
            images,
            labels,
            num_classes,
        })
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when the dataset holds no images.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Per-image `(C, H, W)` shape, if any images exist.
    pub fn image_shape(&self) -> Option<&[usize]> {
        self.images.first().map(|t| t.shape())
    }

    /// The images.
    pub fn images(&self) -> &[Tensor] {
        &self.images
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Stacks images `[start, start+count)` into an `(N, C, H, W)` batch.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::RangeOutOfBounds`] when the range exceeds the
    /// dataset.
    pub fn batch(&self, start: usize, count: usize) -> Result<(Tensor, Vec<usize>), DatasetError> {
        if start + count > self.len() {
            return Err(DatasetError::RangeOutOfBounds {
                start,
                count,
                len: self.len(),
            });
        }
        let shape = self.image_shape().unwrap_or(&[]).to_vec();
        let mut bshape = vec![count];
        bshape.extend_from_slice(&shape);
        let mut data = Vec::with_capacity(count * shape.iter().product::<usize>());
        for im in &self.images[start..start + count] {
            data.extend_from_slice(im.as_slice());
        }
        let batch = Tensor::from_vec(data, &bshape).expect("validated shapes");
        Ok((batch, self.labels[start..start + count].to_vec()))
    }

    /// Shuffles images and labels together with the provided RNG.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        self.images = order.iter().map(|&i| self.images[i].clone()).collect();
        self.labels = order.iter().map(|&i| self.labels[i]).collect();
    }

    /// Iterates over `(batch, labels)` chunks of size `batch_size` (the last
    /// chunk may be smaller).
    pub fn iter_batches(&self, batch_size: usize) -> BatchIter<'_> {
        BatchIter {
            ds: self,
            pos: 0,
            batch_size: batch_size.max(1),
        }
    }
}

/// Iterator over dataset mini-batches; see [`Dataset::iter_batches`].
#[derive(Debug)]
pub struct BatchIter<'a> {
    ds: &'a Dataset,
    pos: usize,
    batch_size: usize,
}

impl Iterator for BatchIter<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.ds.len() {
            return None;
        }
        let count = self.batch_size.min(self.ds.len() - self.pos);
        let out = self.ds.batch(self.pos, count).expect("range checked");
        self.pos += count;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Dataset {
        let images = (0..6)
            .map(|i| Tensor::full(&[3, 2, 2], i as f32 / 10.0))
            .collect();
        Dataset::new(images, vec![0, 1, 2, 0, 1, 2], 3).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            Dataset::new(vec![Tensor::zeros(&[3, 2, 2])], vec![], 2),
            Err(DatasetError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(
                vec![Tensor::zeros(&[3, 2, 2]), Tensor::zeros(&[3, 4, 4])],
                vec![0, 1],
                2
            ),
            Err(DatasetError::InhomogeneousShapes)
        ));
        assert!(matches!(
            Dataset::new(vec![Tensor::zeros(&[3, 2, 2])], vec![5], 3),
            Err(DatasetError::LabelOutOfRange { label: 5, .. })
        ));
    }

    #[test]
    fn batch_stacks_images() {
        let ds = tiny();
        let (b, l) = ds.batch(2, 3).unwrap();
        assert_eq!(b.shape(), &[3, 3, 2, 2]);
        assert_eq!(l, vec![2, 0, 1]);
        assert_eq!(b.at4(0, 0, 0, 0), 0.2);
        assert!(ds.batch(5, 2).is_err());
    }

    #[test]
    fn shuffle_preserves_pairs() {
        let mut ds = tiny();
        let mut rng = StdRng::seed_from_u64(3);
        ds.shuffle(&mut rng);
        // Image value i/10 always pairs with label i % 3.
        for (im, &l) in ds.images().iter().zip(ds.labels()) {
            let i = (im.as_slice()[0] * 10.0).round() as usize;
            assert_eq!(i % 3, l);
        }
        assert_eq!(ds.len(), 6);
    }

    #[test]
    fn iter_batches_covers_all_with_ragged_tail() {
        let ds = tiny();
        let sizes: Vec<usize> = ds.iter_batches(4).map(|(b, _)| b.shape()[0]).collect();
        assert_eq!(sizes, vec![4, 2]);
        let total: usize = ds.iter_batches(2).map(|(_, l)| l.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(vec![], vec![], 3).unwrap();
        assert!(ds.is_empty());
        assert!(ds.image_shape().is_none());
        assert_eq!(ds.iter_batches(4).count(), 0);
    }
}

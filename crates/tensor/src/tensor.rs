use crate::{Result, Shape, TensorError};
use rand::distributions::Distribution;
use rand::Rng;

/// A dense, row-major, contiguous `f32` tensor.
///
/// All kernels in this crate operate on `Tensor`. The representation is a
/// flat `Vec<f32>` plus a [`Shape`]; there are no views or non-contiguous
/// strides, which keeps every loop a straightforward scan.
///
/// # Example
///
/// ```
/// use leca_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; Shape::new(shape).len()],
            shape: Shape::new(shape),
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; Shape::new(shape).len()],
            shape: Shape::new(shape),
        }
    }

    /// Creates a rank-2 identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer in a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when `data.len()` does not
    /// equal the element count implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let s = Shape::new(shape);
        if data.len() != s.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: s.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape: s })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: Shape::new(&[data.len()]),
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::new(&[]),
        }
    }

    /// Uniform random tensor over `[lo, hi)` drawn from `rng`.
    pub fn rand_uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let s = Shape::new(shape);
        let dist = rand::distributions::Uniform::new(lo, hi);
        Tensor {
            data: (0..s.len()).map(|_| dist.sample(rng)).collect(),
            shape: s,
        }
    }

    /// Normal random tensor with the given mean and standard deviation.
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], mean: f32, std: f32, rng: &mut R) -> Self {
        let s = Shape::new(shape);
        let data = (0..s.len())
            .map(|_| mean + std * crate::init::standard_normal(rng))
            .collect();
        Tensor { data, shape: s }
    }

    /// Assembles a tensor from a buffer and an already-built [`Shape`]
    /// without any validation beyond a debug assertion. Used by the
    /// workspace pool, which guarantees the invariant by construction.
    pub(crate) fn from_raw_parts(data: Vec<f32>, shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.len(), "raw-parts length mismatch");
        Tensor { data, shape }
    }

    /// Consumes the tensor, returning its buffer and shape (the inverse of
    /// [`Tensor::from_raw_parts`]).
    pub(crate) fn into_parts(self) -> (Vec<f32>, Shape) {
        (self.data, self.shape)
    }

    /// Capacity of the element buffer, which the workspace pool accounts
    /// in (it may exceed [`Tensor::len`]).
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Dimension sizes.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Fast NCHW accessor: element `(n, c, h, w)` of a rank-4 tensor.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the tensor is not rank 4 or the index is out
    /// of bounds.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.rank(), 4);
        let d = self.shape.dims();
        debug_assert!(n < d[0] && c < d[1] && h < d[2] && w < d[3]);
        self.data[((n * d[1] + c) * d[2] + h) * d[3] + w]
    }

    /// Fast NCHW setter, the mutable counterpart of [`Tensor::at4`].
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        debug_assert_eq!(self.rank(), 4);
        let d = self.shape.dims();
        debug_assert!(n < d[0] && c < d[1] && h < d[2] && w < d[3]);
        let off = ((n * d[1] + c) * d[2] + h) * d[3] + w;
        self.data[off] = value;
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when the element counts
    /// differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let s = Shape::new(shape);
        if s.len() != self.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: s.len(),
                actual: self.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: s,
        })
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix input.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Concatenates tensors along axis 0. All trailing dimensions must match.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when trailing dims differ, and
    /// [`TensorError::InvalidGeometry`] for an empty input list.
    pub fn concat0(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidGeometry("concat0 of zero tensors".into()))?;
        let tail = &first.shape()[1..];
        let mut dim0 = 0;
        for p in parts {
            if &p.shape()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    op: "concat0",
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                });
            }
            dim0 += p.shape()[0];
        }
        let mut shape = vec![dim0];
        shape.extend_from_slice(tail);
        let mut data = Vec::with_capacity(Shape::new(&shape).len());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Tensor {
            data,
            shape: Shape::new(&shape),
        })
    }

    /// Extracts rows `[start, start + count)` along axis 0.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the range exceeds the
    /// tensor's first dimension.
    pub fn slice0(&self, start: usize, count: usize) -> Result<Tensor> {
        if self.rank() == 0 || start + count > self.shape()[0] {
            return Err(TensorError::InvalidGeometry(format!(
                "slice0 [{start}, {}) out of range for shape {}",
                start + count,
                self.shape
            )));
        }
        let row = self.len() / self.shape()[0].max(1);
        let mut shape = self.shape().to_vec();
        shape[0] = count;
        Ok(Tensor {
            data: self.data[start * row..(start + count) * row].to_vec(),
            shape: Shape::new(&shape),
        })
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.zip_map_op("zip_map", other, f)
    }

    /// [`Tensor::zip_map`] reporting `op` on a shape mismatch.
    fn zip_map_op(
        &self,
        op: &'static str,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        self.check_shape(op, other)?;
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// `Ok` when `other` has this tensor's shape, else a
    /// [`TensorError::ShapeMismatch`] naming `op`.
    fn check_shape(&self, op: &'static str, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_shape("add", other)?;
        let mut out = Tensor::zeros(self.shape());
        self.add_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::add`] writing into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when any shape differs.
    pub fn add_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        self.check_shape("add_into", other)?;
        self.check_shape("add_into", out)?;
        crate::backend::add(&self.data, &other.data, &mut out.data);
        Ok(())
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map_op("sub", other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map_op("mul", other, |a, b| a * b)
    }

    /// Accumulates `other` into `self` (`self += other`), in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_shape("add_assign", other)?;
        crate::backend::add_assign(&mut self.data, &other.data);
        Ok(())
    }

    /// Accumulates `scale * other` into `self`, in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        self.check_shape("add_scaled", other)?;
        crate::backend::axpy(&mut self.data, &other.data, scale);
        Ok(())
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let mut out = self.clone();
        crate::backend::add_scalar_inplace(&mut out.data, s);
        out
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        let mut out = self.clone();
        crate::backend::scale_inplace(&mut out.data, s);
        out
    }

    /// Clamps every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        let mut out = Tensor::zeros(self.shape());
        crate::backend::clamp(&self.data, lo, hi, &mut out.data);
        out
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements; 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>() as f32
    }

    /// Index of the maximum element of each row of a rank-2 tensor.
    ///
    /// Ties resolve to the first maximal index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix input.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, k) = (self.shape()[0], self.shape()[1]);
        let mut out = Vec::with_capacity(n);
        for r in 0..n {
            let row = &self.data[r * k..(r + 1) * k];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Matrix multiplication; see [`crate::ops::matmul`].
    ///
    /// # Errors
    ///
    /// Returns an error when either operand is not rank-2 or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        crate::ops::matmul(self, other)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} (", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[1, 2]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::ShapeDataMismatch {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.0);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.sum(), 3.0);
    }

    #[test]
    fn at_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.as_slice()[5], 7.0);
    }

    #[test]
    fn at4_matches_generic_indexing() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::rand_uniform(&[2, 3, 4, 5], -1.0, 1.0, &mut rng);
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    for w in 0..5 {
                        assert_eq!(t.at4(n, c, h, w), t.at(&[n, c, h, w]));
                    }
                }
            }
        }
    }

    #[test]
    fn set4_roundtrip() {
        let mut t = Tensor::zeros(&[1, 2, 2, 2]);
        t.set4(0, 1, 1, 0, 9.0);
        assert_eq!(t.at4(0, 1, 1, 0), 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn transpose_matrix() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert!(Tensor::zeros(&[2]).transpose().is_err());
    }

    #[test]
    fn concat0_and_slice0_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        let c = Tensor::concat0(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.slice0(1, 2).unwrap().as_slice(), b.as_slice());
        assert!(c.slice0(2, 2).is_err());
    }

    #[test]
    fn concat0_shape_mismatch() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        assert!(Tensor::concat0(&[&a, &b]).is_err());
        assert!(Tensor::concat0(&[]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 10.0]);
        assert!(a.add(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn binary_ops_name_themselves_on_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let op = |r: Result<()>| match r {
            Err(TensorError::ShapeMismatch { op, .. }) => op,
            other => panic!("expected a shape mismatch, got {other:?}"),
        };
        assert_eq!(op(a.add(&b).map(drop)), "add");
        assert_eq!(op(a.sub(&b).map(drop)), "sub");
        assert_eq!(op(a.mul(&b).map(drop)), "mul");
        assert_eq!(op(a.add_into(&b, &mut Tensor::zeros(&[2]))), "add_into");
        assert_eq!(op(a.add_into(&a, &mut Tensor::zeros(&[3]))), "add_into");
    }

    #[test]
    fn add_assign_and_scaled() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[16.0, 32.0]);
        assert!(a.add_assign(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn scalar_ops_and_clamp() {
        let a = Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]).unwrap();
        assert_eq!(a.add_scalar(1.0).as_slice(), &[-1.0, 1.5, 4.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[-4.0, 1.0, 6.0]);
        assert_eq!(a.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![-1.0, 4.0, 2.0], &[3]).unwrap();
        assert_eq!(a.sum(), 5.0);
        assert!((a.mean() - 5.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -1.0);
        assert_eq!(a.norm_sq(), 21.0);
    }

    #[test]
    fn argmax_rows_ties_first() {
        let a = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.0, -1.0, -1.0], &[2, 3]).unwrap();
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
        assert!(Tensor::zeros(&[2]).argmax_rows().is_err());
    }

    #[test]
    fn rand_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform(&[16], 0.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform(&[16], 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
        assert!(a.max() < 1.0 && a.min() >= 0.0);
    }

    #[test]
    fn randn_moments_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 2.0, 0.5, &mut rng);
        assert!((t.mean() - 2.0).abs() < 0.05);
        let var = t.map(|x| (x - t.mean()).powi(2)).mean();
        assert!((var - 0.25).abs() < 0.03);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[10]);
        let s = t.to_string();
        assert!(s.contains("…"));
        assert!(s.starts_with("Tensor[10]"));
    }

    #[test]
    fn map_inplace_and_fill() {
        let mut t = Tensor::ones(&[4]);
        t.map_inplace(|x| x * 3.0);
        assert_eq!(t.sum(), 12.0);
        t.fill(0.5);
        assert_eq!(t.sum(), 2.0);
    }
}

/// A lightweight owned shape: the dimension sizes of a row-major tensor.
///
/// `Shape` exists mostly to centralize the small amount of index arithmetic
/// the crate needs (element counts, row-major strides, flat offsets) and to
/// make that arithmetic independently testable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for a scalar shape).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True when the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides for this shape.
    ///
    /// The last dimension has stride 1; each earlier dimension's stride is
    /// the product of all later dimension sizes.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `index` has the wrong rank or any
    /// coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.0.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.0.len()).rev() {
            debug_assert!(index[i] < self.0[i], "index out of bounds");
            off += index[i] * stride;
            stride *= self.0[i];
        }
        off
    }

    /// Consumes the shape, returning its dimension vector (used by the
    /// workspace pool to recycle shape allocations).
    pub(crate) fn into_dims(self) -> Vec<usize> {
        self.0
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product() {
        assert_eq!(Shape::new(&[2, 3, 4]).len(), 24);
        assert_eq!(Shape::new(&[]).len(), 1);
        assert_eq!(Shape::new(&[0, 5]).len(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 0]), 4);
    }

    #[test]
    fn is_empty_only_for_zero_dims() {
        assert!(Shape::new(&[0]).is_empty());
        assert!(!Shape::new(&[1]).is_empty());
        assert!(!Shape::new(&[]).is_empty(), "scalar shape holds one value");
    }

    #[test]
    fn conversions() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = (&[1usize, 2][..]).into();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "[1, 2]");
    }
}

//! Tensor shapes and row-major stride arithmetic.

/// Maximum supported tensor rank.
pub const MAX_RANK: usize = 6;

/// A tensor shape: a list of dimension extents, row-major.
///
/// Rank is small (≤ 4 in this project: `[batch, channels, h, w]`), so the
/// extents are stored **inline** in a fixed array — constructing a shape
/// (and therefore wrapping a buffer in a `Tensor`) performs no heap
/// allocation, which the zero-alloc inference workspace relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Create a shape from dimension extents. Panics above [`MAX_RANK`].
    pub fn new(dims: &[usize]) -> Self {
        assert!(dims.len() <= MAX_RANK, "rank {} > {MAX_RANK}", dims.len());
        let mut d = [0usize; MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: d,
            rank: dims.len() as u8,
        }
    }

    /// Dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Extent of dimension `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.dims()[i + 1];
        }
        s
    }

    /// Flat offset of a multi-index. Debug-asserts bounds.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank());
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.rank()).rev() {
            debug_assert!(
                idx[i] < self.dims()[i],
                "index {idx:?} out of {:?}",
                self.dims()
            );
            off += idx[i] * stride;
            stride *= self.dims()[i];
        }
        off
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn empty_dim_gives_zero_numel() {
        assert_eq!(Shape::new(&[5, 0, 2]).numel(), 0);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        let strides = s.strides();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]);
                    assert_eq!(off, i * strides[0] + j * strides[1] + k * strides[2]);
                }
            }
        }
    }

    #[test]
    fn offsets_are_dense_and_unique() {
        let s = Shape::new(&[3, 5]);
        let mut seen = [false; 15];
        for i in 0..3 {
            for j in 0..5 {
                let o = s.offset(&[i, j]);
                assert!(!seen[o]);
                seen[o] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[4, 15, 15]).to_string(), "[4×15×15]");
    }
}

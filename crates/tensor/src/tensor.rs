//! The `Tensor` type: contiguous row-major `f32` storage plus a shape.

use crate::ops;
use crate::shape::Shape;

/// A dense, contiguous, row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wrap an existing buffer. Panics if `data.len() != product(dims)`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// Shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let new = Shape::new(dims);
        assert_eq!(new.numel(), self.numel(), "reshape element count mismatch");
        self.shape = new;
        self
    }

    /// Borrowing variant of [`Tensor::reshape`].
    pub fn reshaped(&self, dims: &[usize]) -> Tensor {
        self.clone().reshape(dims)
    }

    /// Row `i` of a rank-2 tensor, as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row() requires a matrix");
        let cols = self.shape.dim(1);
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// New tensor with `f` applied elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Elementwise `self += other`. Shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        ops::axpy(1.0, &other.data, &mut self.data);
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        ops::axpy(alpha, &other.data, &mut self.data);
    }

    /// Scale all elements in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Set all elements to zero (reuse allocation between steps).
    pub fn zero_(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix product of two rank-2 tensors.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2);
        assert_eq!(other.shape.rank(), 2);
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "matmul inner dimension mismatch");
        let mut out = Tensor::zeros(&[m, n]);
        ops::gemm(
            false,
            false,
            m,
            n,
            k,
            1.0,
            &self.data,
            &other.data,
            0.0,
            &mut out.data,
        );
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (first on ties). Panics if empty.
    pub fn argmax(&self) -> usize {
        ops::argmax(&self.data)
    }

    /// Frobenius / L2 norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[2]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[4], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_checked() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        *t.at_mut(&[1, 2]) = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_count_checked() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn row_slices() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        assert_eq!(t.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let c = a.matmul(&Tensor::eye(2));
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn elementwise_helpers() {
        let mut a = Tensor::from_vec(vec![1., 2.], &[2]);
        let b = Tensor::from_vec(vec![10., 20.], &[2]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11., 22.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[16., 32.]);
        a.scale(0.25);
        assert_eq!(a.data(), &[4., 8.]);
        a.zero_();
        assert_eq!(a.data(), &[0., 0.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1., 2., 3., 6.], &[4]);
        assert_eq!(t.sum(), 12.0);
        assert_eq!(t.mean(), 3.0);
        assert_eq!(t.argmax(), 3);
        assert!((t.norm() - 50.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn map_applies_function() {
        let t = Tensor::from_vec(vec![-1., 2.], &[2]).map(|x| x.max(0.0));
        assert_eq!(t.data(), &[0., 2.]);
    }
}

//! A minimal dense row-major tensor.
//!
//! Storage is always `f32`; reduced-precision formats (FP16/INT8) are
//! modeled at the cost layer ([`crate::cost`]) and, for INT8, functionally
//! through explicit quantize/dequantize in [`crate::quant`]. This mirrors how
//! the paper's system treats precision: a storage/bandwidth property of the
//! GEMM inputs, not a different algorithm.

use rand::distributions::Distribution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Dense row-major tensor of `f32`.
///
/// ```
/// use dsi_kernels::tensor::Tensor;
/// use dsi_kernels::ops;
/// let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let id = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
/// assert!(ops::matmul(&a, &id).allclose(&a, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Tensor from existing data; length must match the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Deterministic pseudo-random tensor, N(0, scale²), seeded for
    /// reproducible tests.
    pub fn randn(shape: &[usize], scale: f32, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let normal = rand::distributions::Uniform::new(-1.0f32, 1.0);
        let n: usize = shape.iter().product();
        // Sum of 4 uniforms approximates a normal well enough for init and
        // keeps the dependency surface small.
        let data = (0..n)
            .map(|_| {
                let s: f32 = (0..4).map(|_| normal.sample(&mut rng)).sum();
                s * 0.5 * scale
            })
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows when viewed as a 2-D `[rows, cols]` matrix (all leading
    /// dims folded).
    pub fn rows(&self) -> usize {
        assert!(!self.shape.is_empty());
        self.data.len() / self.shape[self.shape.len() - 1]
    }

    /// Trailing dimension.
    pub fn cols(&self) -> usize {
        *self.shape.last().expect("rank-0 tensor")
    }

    /// Row `i` as a slice (2-D view).
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Largest absolute element difference against another tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in comparison");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Element-wise approximate equality.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }

    /// Empty `[0, cols]` tensor with backing storage for `rows_cap` rows
    /// already reserved, so subsequent [`Tensor::push_rows`] calls up to the
    /// capacity never reallocate. This is the allocation contract behind the
    /// amortized KV cache: reserve once at session start, append per token.
    pub fn with_capacity_rows(rows_cap: usize, cols: usize) -> Self {
        Tensor {
            shape: vec![0, cols],
            data: Vec::with_capacity(rows_cap * cols),
        }
    }

    /// Reserve storage for `additional` more rows without changing the shape.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols());
    }

    /// Rows that fit in the current backing storage without reallocating.
    pub fn capacity_rows(&self) -> usize {
        let c = self.cols();
        self.data.capacity().checked_div(c).unwrap_or(0)
    }

    /// Append `src`'s rows in place (2-D view; trailing dims must agree).
    ///
    /// Unlike [`Tensor::cat_rows`] — which copies *both* operands into a
    /// fresh allocation, making a T-step decode loop O(T²) in copied bytes —
    /// this grows the existing buffer, so appending T single rows costs
    /// amortized O(T·cols) total (and exactly zero reallocations when
    /// capacity was reserved up front).
    pub fn push_rows(&mut self, src: &Tensor) {
        let c = self.cols();
        assert_eq!(src.cols(), c, "push_rows: trailing dim mismatch");
        self.data.extend_from_slice(src.data());
        self.set_rows_2d(c);
    }

    /// Append one raw row in place (`row.len()` must equal `cols`).
    pub fn push_row_slice(&mut self, row: &[f32]) {
        let c = self.cols();
        assert_eq!(row.len(), c, "push_row_slice: length mismatch");
        self.data.extend_from_slice(row);
        self.set_rows_2d(c);
    }

    /// Drop all rows past `rows`, keeping the backing storage (the inverse
    /// of [`Tensor::push_row_slice`]): a session reset truncates its KV
    /// tensors to zero rows and the next request appends into the same
    /// allocation.
    pub fn truncate_rows(&mut self, rows: usize) {
        let c = self.cols();
        assert!(rows <= self.rows(), "truncate_rows: growing");
        self.data.truncate(rows * c);
        self.set_rows_2d(c);
    }

    /// Collapse the shape to 2-D `[rows, cols]` after a data append, reusing
    /// the shape vector's storage: per-token KV appends must not allocate.
    fn set_rows_2d(&mut self, cols: usize) {
        let new_rows = self.rows(); // derived from data.len(), already grown
        self.shape.clear();
        self.shape.push(new_rows);
        self.shape.push(cols);
    }

    /// Concatenate along the first axis; trailing dims must agree.
    pub fn cat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let cols = parts[0].cols();
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols(), cols, "cat_rows: trailing dim mismatch");
            data.extend_from_slice(p.data());
            rows += p.rows();
        }
        Tensor::from_vec(&[rows, cols], data)
    }

    /// Concatenate 2-D tensors along the column axis.
    pub fn cat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let rows = parts[0].rows();
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Tensor::zeros(&[rows, total_cols]);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows(), rows, "cat_cols: row mismatch");
                let c = p.cols();
                out.row_mut(r)[off..off + c].copy_from_slice(p.row(r));
                off += c;
            }
        }
        out
    }

    /// Slice of columns `[lo, hi)` of a 2-D view.
    pub fn col_slice(&self, lo: usize, hi: usize) -> Tensor {
        assert!(lo <= hi && hi <= self.cols());
        let rows = self.rows();
        let mut out = Tensor::zeros(&[rows, hi - lo]);
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[lo..hi]);
        }
        out
    }

    /// Slice of rows `[lo, hi)` of a 2-D view.
    pub fn row_slice(&self, lo: usize, hi: usize) -> Tensor {
        assert!(lo <= hi && hi <= self.rows());
        let c = self.cols();
        Tensor::from_vec(&[hi - lo, c], self.data[lo * c..hi * c].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn randn_is_deterministic() {
        let a = Tensor::randn(&[4, 4], 0.1, 7);
        let b = Tensor::randn(&[4, 4], 0.1, 7);
        let c = Tensor::randn(&[4, 4], 0.1, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rows_cols_views() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn folded_rows_for_3d() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.rows(), 6);
        assert_eq!(t.cols(), 4);
    }

    #[test]
    fn cat_and_slice_roundtrip() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2, 2], vec![5., 6., 7., 8.]);
        let c = Tensor::cat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.row(0), &[1., 2., 5., 6.]);
        assert!(c.col_slice(0, 2).allclose(&a, 0.0));
        assert!(c.col_slice(2, 4).allclose(&b, 0.0));

        let r = Tensor::cat_rows(&[&a, &b]);
        assert_eq!(r.shape(), &[4, 2]);
        assert!(r.row_slice(2, 4).allclose(&b, 0.0));
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_checks_len() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn push_rows_matches_cat_rows() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[1, 3], vec![7., 8., 9.]);
        let want = Tensor::cat_rows(&[&a, &b]);
        let mut got = Tensor::with_capacity_rows(4, 3);
        got.push_rows(&a);
        got.push_rows(&b);
        assert!(got.allclose(&want, 0.0));
        assert_eq!(got.shape(), &[3, 3]);
    }

    #[test]
    fn reserved_capacity_prevents_reallocation() {
        let mut t = Tensor::with_capacity_rows(8, 4);
        assert!(t.capacity_rows() >= 8);
        let ptr = t.data().as_ptr();
        for i in 0..8 {
            t.push_row_slice(&[i as f32; 4]);
        }
        // All appends fit in the reserved buffer: same backing allocation.
        assert_eq!(t.data().as_ptr(), ptr);
        assert_eq!(t.rows(), 8);
        assert_eq!(t.row(5), &[5.0; 4]);
    }

    #[test]
    fn reserve_rows_grows_capacity() {
        let mut t = Tensor::zeros(&[1, 4]);
        t.reserve_rows(16);
        assert!(t.capacity_rows() >= 17);
    }

    #[test]
    #[should_panic(expected = "trailing dim")]
    fn push_rows_checks_cols() {
        let mut t = Tensor::zeros(&[1, 4]);
        t.push_rows(&Tensor::zeros(&[1, 3]));
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2], vec![1.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(a.allclose(&b, 0.5));
        assert!(!a.allclose(&b, 0.4));
    }
}

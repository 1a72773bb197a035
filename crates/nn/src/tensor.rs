//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is deliberately simple: an owned `Vec<f32>` plus a shape.
//! Everything is row-major (C order) and contiguous, which keeps the layer
//! implementations easy to audit. The operations provided are exactly the
//! ones the networks in this repository need — this is not a general
//! replacement for `ndarray`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use serde::{Deserialize, Serialize, Value};

/// A dense, contiguous, row-major `f32` n-dimensional array.
///
/// # Examples
///
/// ```
/// use snia_nn::Tensor;
/// let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.sum(), 21.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// A shape and a data vector that do not make a tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// The shape's element count overflows `usize`.
    Overflow {
        /// The offending shape.
        shape: Vec<usize>,
    },
    /// The data length differs from the shape's element count.
    LengthMismatch {
        /// The shape.
        shape: Vec<usize>,
        /// Its element count.
        expected: usize,
        /// The data length.
        found: usize,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::Overflow { shape } => {
                write!(f, "shape {shape:?} has more elements than fit in usize")
            }
            ShapeError::LengthMismatch {
                shape,
                expected,
                found,
            } => write!(
                f,
                "shape {shape:?} (len {expected}) does not match data length {found}"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Decodes through [`Tensor::try_from_vec`], so a decoded tensor always
/// holds exactly its shape's element count.
impl Deserialize for Tensor {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Parts {
            shape: Vec<usize>,
            data: Vec<f32>,
        }
        let Parts { shape, data } = Parts::from_value(v)?;
        Tensor::try_from_vec(shape, data).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, .., {:.4}] n={})",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero-sized product *and* is non-empty in a
    /// way that would be ambiguous (a zero dimension is allowed — it yields
    /// an empty tensor).
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from a shape and a flat row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape` (see
    /// [`Tensor::try_from_vec`]).
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        Self::try_from_vec(shape, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a tensor from a shape and a flat row-major data vector,
    /// or says why they do not fit.
    ///
    /// # Errors
    ///
    /// [`ShapeError::Overflow`] when the shape's element count overflows
    /// `usize`, [`ShapeError::LengthMismatch`] when `data.len()` differs
    /// from it.
    pub fn try_from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, ShapeError> {
        let Some(expected) = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) else {
            return Err(ShapeError::Overflow { shape });
        };
        if expected != data.len() {
            return Err(ShapeError::LengthMismatch {
                shape,
                expected,
                found: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// Creates a scalar (0-d) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![v],
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Mutable reference to the value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let i = self.flat_index(idx);
        &mut self.data[i]
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        let mut stride = 1;
        for i in (0..idx.len()).rev() {
            assert!(
                idx[i] < self.shape[i],
                "index {:?} out of bounds for shape {:?}",
                idx,
                self.shape
            );
            flat += idx[i] * stride;
            stride *= self.shape[i];
        }
        flat
    }

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        self.clone().into_reshape(shape)
    }

    /// [`Tensor::reshape`] that keeps this tensor's buffer instead of
    /// copying it.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn into_reshape(self, shape: Vec<usize>) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "cannot reshape {:?} (len {}) to {:?}",
            self.shape,
            self.data.len(),
            shape
        );
        Tensor {
            shape,
            data: self.data,
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise binary zip into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Adds `other * scale` into `self` elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Fills the tensor with zeros, keeping its shape.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// 2-D matrix multiply: `self` is `(m, k)`, `other` is `(k, n)`,
    /// result is `(m, n)`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "matmul lhs must be 2-D, got {:?}",
            self.shape
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul rhs must be 2-D, got {:?}",
            other.shape
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dims: {:?} x {:?}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_nn(&self.data, &other.data, &mut out, m, k, n);
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// 2-D matrix multiply with the right operand transposed:
    /// `self` is `(m, k)`, `other` is `(n, k)`, result is `(m, n)`.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_t lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_t rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_t inner dims: {:?} x {:?}^T",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_nt(&self.data, &other.data, &mut out, m, k, n);
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// 2-D matrix multiply with the left operand transposed:
    /// `self` is `(k, m)`, `other` is `(k, n)`, result is `(m, n)`.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "t_matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "t_matmul rhs must be 2-D");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "t_matmul inner dims: {:?}^T x {:?}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_tn(&self.data, &other.data, &mut out, m, k, n);
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data,
        }
    }

    /// Sums a 2-D tensor over axis 0, producing a 1-D tensor of length
    /// `shape[1]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "sum_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        Tensor {
            shape: vec![n],
            data: out,
        }
    }

    /// Extracts row `i` of a 2-D tensor as a 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "row requires a 2-D tensor");
        let n = self.shape[1];
        assert!(i < self.shape[0], "row index out of bounds");
        Tensor {
            shape: vec![n],
            data: self.data[i * n..(i + 1) * n].to_vec(),
        }
    }

    /// Concatenates 2-D tensors along axis 1 (columns). All inputs must have
    /// the same number of rows.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not 2-D, or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols needs at least one tensor");
        let rows = parts[0].shape[0];
        for p in parts {
            assert_eq!(p.ndim(), 2, "concat_cols requires 2-D tensors");
            assert_eq!(p.shape[0], rows, "concat_cols row mismatch");
        }
        let total_cols: usize = parts.iter().map(|p| p.shape[1]).sum();
        let mut data = Vec::with_capacity(rows * total_cols);
        for r in 0..rows {
            for p in parts {
                let n = p.shape[1];
                data.extend_from_slice(&p.data[r * n..(r + 1) * n]);
            }
        }
        Tensor {
            shape: vec![rows, total_cols],
            data,
        }
    }

    /// Splits a 2-D tensor into column blocks of the given widths.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not sum to the column count.
    pub fn split_cols(&self, widths: &[usize]) -> Vec<Tensor> {
        assert_eq!(self.ndim(), 2, "split_cols requires a 2-D tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let total: usize = widths.iter().sum();
        assert_eq!(total, cols, "split widths {:?} != {} cols", widths, cols);
        let mut outs: Vec<Tensor> = widths
            .iter()
            .map(|&w| Tensor::zeros(vec![rows, w]))
            .collect();
        for r in 0..rows {
            let mut off = 0;
            for (t, &w) in outs.iter_mut().zip(widths) {
                t.data[r * w..(r + 1) * w]
                    .copy_from_slice(&self.data[r * cols + off..r * cols + off + w]);
                off += w;
            }
        }
        outs
    }

    /// Stacks 1-D tensors of equal length into a 2-D tensor (one per row).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths differ.
    pub fn stack_rows(rows: &[&Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows needs at least one tensor");
        let n = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * n);
        for r in rows {
            assert_eq!(r.len(), n, "stack_rows length mismatch");
            data.extend_from_slice(&r.data);
        }
        Tensor {
            shape: vec![rows.len(), n],
            data,
        }
    }

    /// Euclidean (L2) norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

macro_rules! impl_elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_elementwise!(Add, add, +);
impl_elementwise!(Sub, sub, -);
impl_elementwise!(Mul, mul, *);
impl_elementwise!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.add_scaled(rhs, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoding_checks_the_shape_against_the_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let decoded: Tensor = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(decoded, t);

        let short = r#"{"shape":[8,10],"data":[0.5]}"#;
        let err = serde_json::from_str::<Tensor>(short).unwrap_err();
        assert!(
            err.to_string().contains("does not match data length 1"),
            "{err}"
        );
        assert_eq!(
            Tensor::try_from_vec(vec![8, 10], vec![0.5]),
            Err(ShapeError::LengthMismatch {
                shape: vec![8, 10],
                expected: 80,
                found: 1
            })
        );

        // 2^32 · 2^32 wraps to 0 in u64: an unchecked product would accept
        // an empty data vector for it.
        let huge = format!(r#"{{"shape":[{0},{0}],"data":[]}}"#, 1u64 << 32);
        let err = serde_json::from_str::<Tensor>(&huge).unwrap_err();
        assert!(err.to_string().contains("more elements than fit"), "{err}");
        assert_eq!(
            Tensor::try_from_vec(vec![1 << 32, 1 << 32], Vec::new()),
            Err(ShapeError::Overflow {
                shape: vec![1 << 32, 1 << 32]
            })
        );
    }

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(vec![2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(vec![4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(vec![2, 2], 2.5);
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3, 4]);
        *t.at_mut(&[1, 2, 3]) = 7.0;
        assert_eq!(t.at(&[1, 2, 3]), 7.0);
        assert_eq!(t.data()[t.len() - 1], 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let t = Tensor::zeros(vec![2, 2]);
        t.at(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.reshape(vec![3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![4, 3], (0..12).map(|i| i as f32).collect());
        let direct = a.matmul_t(&b);
        let via_transpose = a.matmul(&b.transpose());
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor::from_vec(vec![3, 2], (0..6).map(|i| i as f32).collect());
        let b = Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32 * 0.5).collect());
        let direct = a.t_matmul(&b);
        let via_transpose = a.transpose().matmul(&b);
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect());
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn sum_rows_known() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.sum_rows().data(), &[5., 7., 9.]);
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(vec![2, 3], vec![5., 6., 7., 8., 9., 10.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(c.row(0).data(), &[1., 2., 5., 6., 7.]);
        let parts = c.split_cols(&[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn stack_rows_known() {
        let a = Tensor::from_slice(&[1., 2.]);
        let b = Tensor::from_slice(&[3., 4.]);
        let s = Tensor::stack_rows(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!((&a + &b).data(), &[5., 7., 9.]);
        assert_eq!((&a - &b).data(), &[-3., -3., -3.]);
        assert_eq!((&a * &b).data(), &[4., 10., 18.]);
        assert_eq!((&b / 2.0).data(), &[2., 2.5, 3.]);
        assert_eq!((-&a).data(), &[-1., -2., -3.]);
    }

    #[test]
    fn add_scaled() {
        let mut a = Tensor::from_slice(&[1., 2.]);
        let b = Tensor::from_slice(&[10., 20.]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[6., 12.]);
    }

    #[test]
    fn norm_is_euclidean() {
        let a = Tensor::from_slice(&[3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Tensor::ones(vec![3]);
        assert!(a.all_finite());
        a.data_mut()[1] = f32::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(vec![100]);
        let s = format!("{:?}", t);
        assert!(s.contains("shape"));
    }
}

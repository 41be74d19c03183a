//! The core dense tensor type.

use std::error::Error;
use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// Error type for fallible tensor constructors and conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements does not match the product of the shape.
    ShapeMismatch {
        /// Number of elements provided.
        elements: usize,
        /// Shape whose product does not equal `elements`.
        shape: Vec<usize>,
    },
    /// An axis argument was out of range for the tensor's rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { elements, shape } => write!(
                f,
                "element count {elements} does not match shape {shape:?} (product {})",
                shape.iter().product::<usize>()
            ),
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank-{rank} tensor")
            }
        }
    }
}

impl Error for TensorError {}

/// A dense, row-major, `f32` tensor of arbitrary rank.
///
/// `Tensor` is deliberately simple: contiguous storage, owned data, no
/// views. All shape-changing operations copy. The networks in this
/// repository are small (a few hundred thousand parameters), so clarity
/// wins over zero-copy cleverness.
///
/// Most binary operations panic on shape mismatch; the panic message names
/// the operation and both shapes. This mirrors the behaviour of mainstream
/// array libraries and keeps arithmetic chains readable.
///
/// # Example
///
/// ```
/// use ai2_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// ```
    /// # use ai2_tensor::Tensor;
    /// let t = Tensor::zeros(&[4]);
    /// assert_eq!(t.sum(), 0.0);
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            data: vec![value; len],
            shape: shape.to_vec(),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        if data.len() != shape.iter().product::<usize>() {
            return Err(TensorError::ShapeMismatch {
                elements: data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: vec![data.len()],
        }
    }

    /// Creates a 2-D tensor from equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "from_rows: row {i} has length {} but row 0 has length {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Tensor {
            data,
            shape: vec![rows.len(), cols],
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows of a matrix (axis 0 length).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn rows(&self) -> usize {
        assert_eq!(self.rank(), 2, "rows: tensor is rank {}", self.rank());
        self.shape[0]
    }

    /// Number of columns of a matrix (axis 1 length).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols: tensor is rank {}", self.rank());
        self.shape[1]
    }

    /// Borrows the underlying flat buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes this tensor in place to `shape`, zero-filled, reusing the
    /// existing allocations whenever their capacity suffices.
    ///
    /// After `reset_zeros` the tensor is indistinguishable from
    /// `Tensor::zeros(shape)`, but no heap traffic occurred if the buffer
    /// and shape vector were large enough — how inference workspaces are
    /// reused across batches.
    pub fn reset_zeros(&mut self, shape: &[usize]) {
        let len = shape.iter().product();
        self.data.clear();
        self.data.resize(len, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Returns a copy with a new shape covering the same elements.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.len(),
            shape.iter().product::<usize>(),
            "reshape: cannot view {:?} as {:?}",
            self.shape,
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        }
    }

    /// Borrows row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        assert!(
            r < self.shape[0],
            "row {r} out of bounds for {:?}",
            self.shape
        );
        &self.data[r * c..(r + 1) * c]
    }

    /// Mutably borrows row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols();
        assert!(
            r < self.shape[0],
            "row {r} out of bounds for {:?}",
            self.shape
        );
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Returns the rows `range.start..range.end` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range is out of bounds.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let c = self.cols();
        assert!(
            start <= end && end <= self.shape[0],
            "slice_rows: {start}..{end} out of bounds for {:?}",
            self.shape
        );
        Tensor {
            data: self.data[start * c..end * c].to_vec(),
            shape: vec![end - start, c],
        }
    }

    /// Stacks 1-D tensors (all the same length) into a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths differ.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows: empty input");
        let c = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * c);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), c, "stack_rows: row {i} length {} != {c}", r.len());
            data.extend_from_slice(&r.data);
        }
        Tensor {
            data,
            shape: vec![rows.len(), c],
        }
    }

    /// Concatenates matrices with equal column counts along axis 0.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let c = parts[0].cols();
        let total: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = Vec::with_capacity(total * c);
        for p in parts {
            assert_eq!(p.cols(), c, "concat_rows: column mismatch");
            data.extend_from_slice(&p.data);
        }
        Tensor {
            data,
            shape: vec![total, c],
        }
    }

    /// Concatenates matrices with equal row counts along axis 1.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let r = parts[0].rows();
        let total: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = Vec::with_capacity(r * total);
        for i in 0..r {
            for p in parts {
                assert_eq!(p.rows(), r, "concat_cols: row mismatch");
                data.extend_from_slice(p.row(i));
            }
        }
        Tensor {
            data,
            shape: vec![r, total],
        }
    }

    /// Value at a flat index.
    pub fn at(&self, i: usize) -> f32 {
        self.data[i]
    }

    /// True when every element is finite (no NaN / ±∞).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            data: Vec::new(),
            shape: vec![0],
        }
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert_eq!(self.rank(), 2);
        &self.data[r * self.shape[1] + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert_eq!(self.rank(), 2);
        &mut self.data[r * self.shape[1] + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.rank() == 2 && self.shape[0] <= 8 && self.shape[1] <= 8 {
            writeln!(f)?;
            for r in 0..self.shape[0] {
                write!(f, "  [")?;
                for c in 0..self.shape[1] {
                    if c > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{:+.4}", self[(r, c)])?;
                }
                writeln!(f, "]")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t[(1, 0)], 3.0);
    }

    #[test]
    fn from_vec_error_display() {
        let e = Tensor::from_vec(vec![1.0], &[2, 2]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("element count 1"), "{msg}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]).reshape(&[2, 2]);
        assert_eq!(t[(0, 1)], 2.0);
        assert_eq!(t.reshape(&[4]).shape(), &[4]);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_bad_size_panics() {
        Tensor::zeros(&[2, 2]).reshape(&[3]);
    }

    #[test]
    fn rows_and_slices() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s[(0, 0)], 3.0);
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        let m = Tensor::stack_rows(&[a, b]);
        assert_eq!(m.shape(), &[2, 2]);

        let left = Tensor::from_rows(&[&[1.0], &[2.0]]);
        let right = Tensor::from_rows(&[&[10.0, 11.0], &[20.0, 21.0]]);
        let cat = Tensor::concat_cols(&[&left, &right]);
        assert_eq!(cat.shape(), &[2, 3]);
        assert_eq!(cat[(1, 2)], 21.0);

        let vcat = Tensor::concat_rows(&[&right, &right]);
        assert_eq!(vcat.shape(), &[4, 2]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.as_mut_slice()[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn display_small_matrix() {
        let t = Tensor::eye(2);
        let s = format!("{t}");
        assert!(s.contains("Tensor[2, 2]"));
        assert!(s.contains("+1.0000"));
    }
}

use std::fmt;
use std::sync::Arc;

use crate::error::TensorError;
use crate::recycle::Buf;
use crate::reduce;
use crate::rng::Rng64;
use crate::shape::Shape;

/// A dense, row-major, `f32` tensor.
///
/// Storage is reference-counted and copy-on-write: [`Clone`] is a
/// refcount bump that shares the buffer, and the first write through
/// either handle ([`Tensor::data_mut`] and every `_inplace`/`_assign`
/// method built on it) copies the buffer first unless that handle is the
/// only one left, so a write is never visible through another handle. An
/// activation is immutable once produced, which is what lets a layer's
/// backward cache, a block boundary and a relayed [`SharedTensor`] all
/// hold the one buffer that already exists.
///
/// Operations come in two flavours: methods that allocate a result, and
/// `_inplace`/`_assign` methods that mutate `self` (used on hot paths like
/// optimizer updates, where the tensor is uniquely held and the write is
/// in place). Call [`Tensor::data_mut`] once outside a loop, not per
/// element: each call re-checks uniqueness.
///
/// [`SharedTensor`]: crate::SharedTensor
///
/// # Example
///
/// ```
/// use pipebd_tensor::Tensor;
///
/// # fn main() -> Result<(), pipebd_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = a.map(|x| x * 2.0);
/// assert_eq!(b.data(), &[2.0, 4.0, 6.0, 8.0]);
/// assert_eq!(a.sum(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Buf>,
}

impl Tensor {
    pub(crate) fn from_parts(shape: Shape, data: Buf) -> Self {
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// A tensor of the given shape whose every element `write` sets: its
    /// buffer is not zeroed first ([`Buf::overwritten`]).
    #[inline(always)]
    pub(crate) fn overwritten(dims: &[usize], write: impl FnOnce(&mut [f32])) -> Self {
        let shape = Shape::new(dims);
        let data = Buf::overwritten(shape.numel(), write);
        Tensor::from_parts(shape, data)
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::full(dims, 0.0)
    }

    /// A tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor::from_parts(shape, Buf::filled(n, value))
    }

    /// Builds a tensor from a buffer and shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the number of elements implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
                op: "from_vec",
            });
        }
        Ok(Tensor::from_parts(shape, Buf::foreign(data)))
    }

    /// Standard-normal-initialized tensor.
    pub fn randn(dims: &[usize], rng: &mut Rng64) -> Self {
        let mut t = Tensor::zeros(dims);
        rng.fill_normal(t.data_mut());
        t
    }

    /// Kaiming/He normal initialization for a weight tensor with the given
    /// fan-in (suitable for ReLU networks).
    pub fn kaiming(dims: &[usize], fan_in: usize, rng: &mut Rng64) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.normal_with(0.0, std);
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer: in place when this handle
    /// is the buffer's only holder, otherwise of a private copy taken
    /// first (copy-on-write).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut Arc::make_mut(&mut self.data)[..]
    }

    /// Consumes the tensor, returning its buffer: a move when this handle
    /// is the buffer's only holder, a copy otherwise.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).map_or_else(|shared| shared.to_vec(), Buf::into_vec)
    }

    /// Whether both tensors hold the same buffer.
    pub(crate) fn shares_buffer(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of live handles to this tensor's buffer.
    pub(crate) fn buffer_holders(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation failures from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation failures from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data_mut()[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data (shared, not copied) and a new
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.data.len(),
                op: "reshape",
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = Buf::build(self.numel(), |v| v.extend(self.data.iter().map(|&x| f(x))));
        Tensor::from_parts(self.shape.clone(), data)
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "zip")?;
        let pairs = self.data.iter().zip(other.data.iter());
        let data = Buf::build(self.numel(), |v| v.extend(pairs.map(|(&a, &b)| f(a, b))));
        Ok(Tensor::from_parts(self.shape.clone(), data))
    }

    /// [`Tensor::zip`], and `Σ term(a, b)` over the same pairs added in
    /// [`reduce`]'s lane order, reading both operands from memory once.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_sum(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
        term: impl Fn(f32, f32) -> f32,
    ) -> Result<(Tensor, f32), TensorError> {
        self.check_same_shape(other, "zip_sum")?;
        let mut sum = 0.0;
        let data = Buf::overwritten(self.numel(), |v| {
            sum = reduce::zip_sum(&self.data, &other.data, v, f, term);
        });
        Ok((Tensor::from_parts(self.shape.clone(), data), sum))
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a * b)
    }

    /// `self += other`, elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other, "add_assign")?;
        for (a, &b) in self.data_mut().iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// `self += alpha * other` (axpy), elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other, "axpy")?;
        for (a, &b) in self.data_mut().iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in self.data_mut() {
            *v *= alpha;
        }
    }

    /// Sets every element to zero (buffer reuse for gradient accumulators).
    pub fn fill(&mut self, value: f32) {
        self.data_mut().fill(value);
    }

    /// Sum of all elements (lane-ordered, see [`crate::reduce`]).
    pub fn sum(&self) -> f32 {
        reduce::sum(&self.data)
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max_value(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm of the tensor (lane-ordered, see [`crate::reduce`]).
    pub fn sq_norm(&self) -> f32 {
        reduce::sq_norm(&self.data)
    }

    /// Index of the maximum element (first on ties); `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Maximum absolute difference against another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        self.check_same_shape(other, "max_abs_diff")?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Whether all elements are within `tol` of another tensor's.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> Result<bool, TensorError> {
        Ok(self.max_abs_diff(other)? <= tol)
    }

    /// Splits a batched tensor (axis 0) into `parts` nearly-equal chunks.
    ///
    /// The first `numel % parts` chunks get one extra row, mirroring how a
    /// data-parallel runtime shards a batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `parts == 0`, the tensor
    /// is rank-0, or there are fewer rows than parts.
    pub fn split_batch(&self, parts: usize) -> Result<Vec<Tensor>, TensorError> {
        if parts == 0 {
            return Err(TensorError::invalid("split_batch: parts must be > 0"));
        }
        if self.shape.rank() == 0 {
            return Err(TensorError::invalid("split_batch: tensor is rank-0"));
        }
        let batch = self.shape.dim(0);
        if batch < parts {
            return Err(TensorError::invalid(format!(
                "split_batch: cannot split batch {batch} into {parts} parts"
            )));
        }
        let row = self.numel() / batch;
        let base = batch / parts;
        let extra = batch % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let rows = base + usize::from(p < extra);
            let mut dims = self.shape.dims().to_vec();
            dims[0] = rows;
            let shard = &self.data[start * row..(start + rows) * row];
            let data = Buf::build(shard.len(), |v| v.extend_from_slice(shard));
            out.push(Tensor::from_parts(Shape::new(&dims), data));
            start += rows;
        }
        Ok(out)
    }

    /// Concatenates tensors along axis 0. All non-batch dims must match.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `parts` is empty, or
    /// [`TensorError::ShapeMismatch`] if trailing dimensions differ.
    pub fn cat_batch(parts: &[Tensor]) -> Result<Tensor, TensorError> {
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::cat_batch_refs(&refs)
    }

    /// [`Tensor::cat_batch`] over borrowed tensors — lets callers holding
    /// shared handles (e.g. [`SharedTensor`]) concatenate without first
    /// materializing owned clones.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `parts` is empty, or
    /// [`TensorError::ShapeMismatch`] if trailing dimensions differ.
    ///
    /// [`SharedTensor`]: crate::SharedTensor
    pub fn cat_batch_refs(parts: &[&Tensor]) -> Result<Tensor, TensorError> {
        let first = *parts
            .first()
            .ok_or_else(|| TensorError::invalid("cat_batch: no tensors given"))?;
        let tail = &first.dims()[1..];
        let mut batch = 0usize;
        for p in parts {
            if &p.dims()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    expected: first.dims().to_vec(),
                    actual: p.dims().to_vec(),
                    op: "cat_batch",
                });
            }
            batch += p.dims()[0];
        }
        let mut dims = first.dims().to_vec();
        dims[0] = batch;
        let shape = Shape::new(&dims);
        let data = Buf::build(shape.numel(), |v| {
            for p in parts {
                v.extend_from_slice(&p.data);
            }
        });
        Ok(Tensor::from_parts(shape, data))
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<(), TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                actual: other.shape.dims().to_vec(),
                op,
            });
        }
        Ok(())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.numel() <= 16 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data())
        } else {
            write!(
                f,
                "Tensor({}, [{} elements, sum {:.4}])",
                self.shape,
                self.numel(),
                self.sum()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[3]).sum(), 3.0);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 7.0);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn elementwise_math() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(matches!(
            a.add(&b),
            Err(TensorError::ShapeMismatch { op: "zip", .. })
        ));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.data(), &[0.0, -1.0]);
        a.scale(3.0);
        assert_eq!(a.data(), &[0.0, -3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max_value(), 3.0);
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.sq_norm(), 14.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.at(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn split_and_cat_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[6, 4]).unwrap();
        let parts = t.split_batch(4).unwrap();
        assert_eq!(parts.len(), 4);
        // 6 rows into 4 parts: 2, 2, 1, 1.
        assert_eq!(parts[0].dims(), &[2, 4]);
        assert_eq!(parts[2].dims(), &[1, 4]);
        let whole = Tensor::cat_batch(&parts).unwrap();
        assert_eq!(whole, t);
    }

    #[test]
    fn split_batch_validations() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.split_batch(0).is_err());
        assert!(t.split_batch(3).is_err());
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.1], &[2]).unwrap();
        assert!((a.max_abs_diff(&b).unwrap() - 0.1).abs() < 1e-6);
        assert!(a.allclose(&b, 0.2).unwrap());
        assert!(!a.allclose(&b, 0.05).unwrap());
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let mut rng = Rng64::seed_from_u64(3);
        let w = Tensor::kaiming(&[64, 64], 64, &mut rng);
        let std = (w.sq_norm() / w.numel() as f32).sqrt();
        let expected = (2.0f32 / 64.0).sqrt();
        assert!((std - expected).abs() < 0.02, "std {std} vs {expected}");
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", Tensor::zeros(&[2])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(&[100])).is_empty());
    }
}

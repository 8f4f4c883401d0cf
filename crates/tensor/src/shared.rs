//! Read-only tensor handles for the executor data plane.
//!
//! The threaded Pipe-BD executor relays boundary activations between stages
//! and broadcasts averaged gradients within a stage. Those tensors are
//! immutable once produced, and [`Tensor`] storage is itself
//! reference-counted, so [`SharedTensor`] is a [`Tensor`] that says so in
//! its type: it hands out `&Tensor` only, and cloning or sending one is a
//! reference-count bump on the tensor's own buffer, not a buffer copy. A
//! layer that caches a relayed activation (`x.clone()`) holds that same
//! buffer.
//!
//! The few sites that legitimately mutate a shared tensor go through
//! [`SharedTensor::make_mut`], which is the tensor's copy-on-write: the
//! first write is in place when the handle is the buffer's only holder,
//! and copies the buffer first when it is aliased, so a mutation through
//! one handle is never observable through another.

use std::ops::Deref;

use crate::tensor::Tensor;

/// A tensor handle that is read-only until [`SharedTensor::make_mut`].
///
/// `Clone` is O(1) (a refcount bump). Read access goes through `Deref`, so
/// a `&SharedTensor` coerces to `&Tensor` wherever one is expected.
///
/// # Example
///
/// ```
/// use pipebd_tensor::{SharedTensor, Tensor};
///
/// let a = SharedTensor::new(Tensor::ones(&[2, 2]));
/// let mut b = a.clone();          // refcount bump, same buffer
/// assert!(a.ptr_eq(&b));
/// b.make_mut().scale(3.0);        // copy-on-write: `a` is untouched
/// assert!(!a.ptr_eq(&b));
/// assert_eq!(a.sum(), 4.0);
/// assert_eq!(b.sum(), 12.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SharedTensor(Tensor);

impl SharedTensor {
    /// Wraps a tensor in a shared handle (moves the buffer; no copy).
    pub fn new(tensor: Tensor) -> Self {
        SharedTensor(tensor)
    }

    /// Mutable access with copy-on-write semantics.
    ///
    /// If this handle is the buffer's only holder a write through the
    /// returned tensor lands in place; otherwise the first write copies
    /// the buffer and re-points this handle at the private copy. Aliasing
    /// handles never observe the mutation.
    pub fn make_mut(&mut self) -> &mut Tensor {
        &mut self.0
    }

    /// Unwraps into a tensor that holds its buffer alone.
    ///
    /// Free (a move) when this handle is the buffer's only holder; copies
    /// the buffer when it is aliased.
    pub fn into_tensor(mut self) -> Tensor {
        // The copy-on-write point, asked for now: nothing for the only
        // holder, a private copy for an aliased handle.
        self.0.data_mut();
        self.0
    }

    /// Whether two handles share the same allocation.
    pub fn ptr_eq(&self, other: &SharedTensor) -> bool {
        self.0.shares_buffer(&other.0)
    }

    /// Number of live handles to this allocation.
    pub fn ref_count(&self) -> usize {
        self.0.buffer_holders()
    }
}

impl Deref for SharedTensor {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        &self.0
    }
}

impl AsRef<Tensor> for SharedTensor {
    fn as_ref(&self) -> &Tensor {
        &self.0
    }
}

impl From<Tensor> for SharedTensor {
    fn from(tensor: Tensor) -> Self {
        SharedTensor::new(tensor)
    }
}

impl From<SharedTensor> for Tensor {
    fn from(shared: SharedTensor) -> Self {
        shared.into_tensor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_aliasing_not_copying() {
        let a = SharedTensor::new(Tensor::ones(&[4]));
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.ref_count(), 2);
    }

    #[test]
    fn make_mut_unique_is_in_place() {
        let mut a = SharedTensor::new(Tensor::ones(&[4]));
        let before = a.data().as_ptr();
        a.make_mut().scale(2.0);
        assert_eq!(a.data().as_ptr(), before, "unique owner must not copy");
        assert_eq!(a.sum(), 8.0);
    }

    #[test]
    fn make_mut_aliased_copies_first() {
        let a = SharedTensor::new(Tensor::ones(&[4]));
        let mut b = a.clone();
        b.make_mut().fill(5.0);
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.sum(), 4.0, "alias must not observe the mutation");
        assert_eq!(b.sum(), 20.0);
        assert_eq!(a.ref_count(), 1);
    }

    #[test]
    fn into_tensor_unique_is_a_move() {
        let a = SharedTensor::new(Tensor::ones(&[4]));
        let before = a.data().as_ptr();
        let t = a.into_tensor();
        assert_eq!(t.data().as_ptr(), before, "unique unwrap must move");
    }

    #[test]
    fn into_tensor_aliased_clones() {
        let a = SharedTensor::new(Tensor::ones(&[4]));
        let b = a.clone();
        let t = b.into_tensor();
        assert_eq!(t, *a);
        assert_eq!(a.ref_count(), 1);
    }

    #[test]
    fn deref_and_conversions() {
        let shared: SharedTensor = Tensor::full(&[2], 3.0).into();
        assert_eq!(shared.dims(), &[2]);
        let owned: Tensor = shared.clone().into();
        assert_eq!(owned, *shared);
    }
}

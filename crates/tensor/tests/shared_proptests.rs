//! Property-based tests for copy-on-write [`Tensor`] storage and the
//! [`SharedTensor`] handle over it.
//!
//! The executor data plane relies on one invariant above all: a tensor
//! relayed by shared handle is immutable through that handle, and the few
//! legitimate mutation sites (via `make_mut`) must never be observable
//! through an alias. These properties pin that down over random data and
//! random mutations.

use pipebd_tensor::{SharedTensor, Tensor};
use proptest::prelude::*;

fn vecf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-5.0f32..5.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aliased_mutation_is_unobservable(data in vecf(12), scale in -3.0f32..3.0, shift in -3.0f32..3.0) {
        let original = Tensor::from_vec(data, &[3, 4]).unwrap();
        let a = SharedTensor::new(original.clone());
        let mut b = a.clone();
        let mut c = b.clone();
        b.make_mut().scale(scale);
        c.make_mut().map_inplace(|x| x + shift);
        // The untouched alias still sees the original values…
        prop_assert_eq!(&*a, &original);
        // …and each mutated handle sees exactly its own mutation.
        let mut expect_b = original.clone();
        expect_b.scale(scale);
        let mut expect_c = original.clone();
        expect_c.map_inplace(|x| x + shift);
        prop_assert_eq!(&*b, &expect_b);
        prop_assert_eq!(&*c, &expect_c);
        prop_assert!(!a.ptr_eq(&b));
        prop_assert!(!a.ptr_eq(&c));
    }

    #[test]
    fn unique_make_mut_is_in_place(data in vecf(8), value in -2.0f32..2.0) {
        let mut a = SharedTensor::new(Tensor::from_vec(data, &[8]).unwrap());
        let ptr = a.data().as_ptr();
        a.make_mut().fill(value);
        // Sole ownership: mutation must not have copied the buffer.
        prop_assert_eq!(a.data().as_ptr(), ptr);
        prop_assert_eq!(&*a, &Tensor::full(&[8], value));
    }

    #[test]
    fn into_tensor_preserves_data_under_aliasing(data in vecf(10)) {
        let t = Tensor::from_vec(data, &[2, 5]).unwrap();
        let a = SharedTensor::new(t.clone());
        let b = a.clone();
        // Unwrapping an aliased handle clones; unwrapping the survivor
        // moves. Both must yield the original values.
        prop_assert_eq!(b.into_tensor(), t.clone());
        prop_assert_eq!(a.into_tensor(), t);
    }

    #[test]
    fn tensor_clone_shares_until_either_side_writes(
        data in vecf(12),
        scale in -3.0f32..3.0,
        write_original in any::<bool>(),
    ) {
        let mut a = Tensor::from_vec(data.clone(), &[3, 4]).unwrap();
        let mut b = a.clone();
        let ptr = a.data().as_ptr();
        // A clone is the same allocation, not a copy of it…
        prop_assert_eq!(b.data().as_ptr(), ptr);
        // …and so is a reshape.
        let flat = a.reshape(&[12]).unwrap();
        prop_assert_eq!(flat.data().as_ptr(), ptr);
        drop(flat);
        // The first write through either side copies, for that side only.
        let (written, other) = if write_original { (&mut a, &mut b) } else { (&mut b, &mut a) };
        written.scale(scale);
        prop_assert_ne!(written.data().as_ptr(), ptr);
        prop_assert_eq!(other.data().as_ptr(), ptr);
        prop_assert_eq!(other.data(), &data[..]);
        let expect: Vec<f32> = data.iter().map(|x| x * scale).collect();
        prop_assert_eq!(written.data(), &expect[..]);
        // Each side now holds its buffer alone: further writes are in place.
        let (pw, po) = (written.data().as_ptr(), other.data().as_ptr());
        written.data_mut()[0] = 1.0;
        other.data_mut()[0] = 2.0;
        prop_assert_eq!(written.data().as_ptr(), pw);
        prop_assert_eq!(other.data().as_ptr(), po);
    }

    #[test]
    fn unique_tensor_mutates_in_place_and_into_vec_moves(data in vecf(16), value in -2.0f32..2.0) {
        let mut t = Tensor::from_vec(data, &[4, 4]).unwrap();
        let ptr = t.data().as_ptr();
        t.map_inplace(|x| x + value);
        t.axpy(value, &Tensor::ones(&[4, 4])).unwrap();
        t.set(&[1, 1], value).unwrap();
        prop_assert_eq!(t.data().as_ptr(), ptr);
        // A dropped clone leaves the survivor unique again.
        drop(t.clone());
        t.fill(value);
        prop_assert_eq!(t.data().as_ptr(), ptr);
        let v = t.into_vec();
        prop_assert_eq!(v.as_ptr(), ptr);
    }

    #[test]
    fn into_vec_of_a_shared_tensor_leaves_the_other_holder_intact(data in vecf(9)) {
        let a = Tensor::from_vec(data.clone(), &[9]).unwrap();
        let b = a.clone();
        let mut v = b.into_vec();
        prop_assert_ne!(v.as_ptr(), a.data().as_ptr());
        v[0] += 1.0;
        prop_assert_eq!(a.data(), &data[..]);
    }
}

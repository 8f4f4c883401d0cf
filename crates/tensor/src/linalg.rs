//! Dense matrix products and bias helpers.
//!
//! These are the only "BLAS-like" kernels the NN layers need. All matrices
//! are rank-2 tensors in row-major order. The three products run the
//! packed blocked GEMM (`gemm` module); the naive streaming loops are
//! retained as the oracle, reachable through the `*_with` variants'
//! [`KernelPolicy`] argument. Transposed variants never materialize a
//! transpose under either policy.

use crate::error::TensorError;
use crate::gemm::gemm_strided;
use crate::kernel::KernelPolicy;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product `self @ other` for rank-2 tensors `[m, k] x [k, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank-2,
    /// and [`TensorError::ShapeMismatch`] if the inner dimensions differ.
    ///
    /// # Example
    ///
    /// ```
    /// use pipebd_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), pipebd_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&i)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_with(other, KernelPolicy::Blocked)
    }

    /// [`Tensor::matmul`] with an explicit [`KernelPolicy`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_with(&self, other: &Tensor, policy: KernelPolicy) -> Result<Tensor, TensorError> {
        let (m, k) = rank2(self, "matmul")?;
        let (k2, n) = rank2(other, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![m, k],
                actual: vec![k2, n],
                op: "matmul",
            });
        }
        let a = self.data();
        let b = other.data();
        let mut result = Tensor::zeros(&[m, n]);
        let out = result.data_mut();
        match policy {
            KernelPolicy::Blocked => {
                gemm_strided(m, n, k, a, k, 1, b, n, 1, out);
            }
            KernelPolicy::Naive => {
                // i-k-j loop order: streams through b rows, cache friendly.
                for i in 0..m {
                    for p in 0..k {
                        let aik = a[i * k + p];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &b[p * n..(p + 1) * n];
                        let orow = &mut out[i * n..(i + 1) * n];
                        for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                            *o += aik * bv;
                        }
                    }
                }
            }
        }
        Ok(result)
    }

    /// `selfᵀ @ other` for rank-2 tensors `[k, m]ᵀ x [k, n]`.
    ///
    /// Used by linear-layer weight gradients without materializing the
    /// transpose.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_t_a(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_t_a_with(other, KernelPolicy::Blocked)
    }

    /// [`Tensor::matmul_t_a`] with an explicit [`KernelPolicy`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_t_a_with(
        &self,
        other: &Tensor,
        policy: KernelPolicy,
    ) -> Result<Tensor, TensorError> {
        let (k, m) = rank2(self, "matmul_t_a")?;
        let (k2, n) = rank2(other, "matmul_t_a")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![k, m],
                actual: vec![k2, n],
                op: "matmul_t_a",
            });
        }
        let a = self.data();
        let b = other.data();
        let mut result = Tensor::zeros(&[m, n]);
        let out = result.data_mut();
        match policy {
            KernelPolicy::Blocked => {
                // A is stored [k, m]; strides express the transpose.
                gemm_strided(m, n, k, a, 1, m, b, n, 1, out);
            }
            KernelPolicy::Naive => {
                for p in 0..k {
                    let arow = &a[p * m..(p + 1) * m];
                    let brow = &b[p * n..(p + 1) * n];
                    for (i, &av) in arow.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let orow = &mut out[i * n..(i + 1) * n];
                        for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
        Ok(result)
    }

    /// `self @ otherᵀ` for rank-2 tensors `[m, k] x [n, k]ᵀ`.
    ///
    /// Used by linear-layer input gradients without materializing the
    /// transpose.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_b_t(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_b_t_with(other, KernelPolicy::Blocked)
    }

    /// [`Tensor::matmul_b_t`] with an explicit [`KernelPolicy`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_b_t_with(
        &self,
        other: &Tensor,
        policy: KernelPolicy,
    ) -> Result<Tensor, TensorError> {
        let (m, k) = rank2(self, "matmul_b_t")?;
        let (n, k2) = rank2(other, "matmul_b_t")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![m, k],
                actual: vec![n, k2],
                op: "matmul_b_t",
            });
        }
        let a = self.data();
        let b = other.data();
        let mut result = Tensor::zeros(&[m, n]);
        let out = result.data_mut();
        match policy {
            KernelPolicy::Blocked => {
                // B is stored [n, k]; strides express the transpose.
                gemm_strided(m, n, k, a, k, 1, b, 1, k, out);
            }
            KernelPolicy::Naive => {
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    for j in 0..n {
                        let brow = &b[j * k..(j + 1) * k];
                        let mut acc = 0.0f32;
                        for (&av, &bv) in arow.iter().zip(brow.iter()) {
                            acc += av * bv;
                        }
                        out[i * n + j] = acc;
                    }
                }
            }
        }
        Ok(result)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank-2.
    pub fn transpose2d(&self) -> Result<Tensor, TensorError> {
        let (m, n) = rank2(self, "transpose2d")?;
        let a = self.data();
        let mut result = Tensor::zeros(&[n, m]);
        let out = result.data_mut();
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Ok(result)
    }

    /// Adds a length-`n` bias row to every row of an `[m, n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bias` is not `[n]`.
    pub fn add_bias_rows(&self, bias: &Tensor) -> Result<Tensor, TensorError> {
        let (m, n) = rank2(self, "add_bias_rows")?;
        if bias.dims() != [n] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![n],
                actual: bias.dims().to_vec(),
                op: "add_bias_rows",
            });
        }
        let mut out = self.clone();
        for i in 0..m {
            let row = &mut out.data_mut()[i * n..(i + 1) * n];
            for (o, &b) in row.iter_mut().zip(bias.data().iter()) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Sums an `[m, n]` matrix over its rows, producing `[n]`.
    ///
    /// This is the adjoint of [`Tensor::add_bias_rows`] with respect to the
    /// bias.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank-2.
    pub fn sum_rows(&self) -> Result<Tensor, TensorError> {
        let (m, n) = rank2(self, "sum_rows")?;
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }
}

fn rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize), TensorError> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
            op,
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_hand_checked() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[1.0, 2.0, 3.0], &[3, 1]);
        assert!(a.matmul(&b).is_err());
        let v = t(&[1.0], &[1]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn transposed_products_match_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, -1.0, 0.5, 2.0, 0.0, 3.0], &[2, 3]);
        // aᵀ @ b  ==  transpose(a) @ b
        let via_t = a.transpose2d().unwrap().matmul(&b).unwrap();
        let direct = a.matmul_t_a(&b).unwrap();
        assert!(via_t.allclose(&direct, 1e-6).unwrap());
        // a @ bᵀ  ==  a @ transpose(b)
        let via_t2 = a.matmul(&b.transpose2d().unwrap()).unwrap();
        let direct2 = a.matmul_b_t(&b).unwrap();
        assert!(via_t2.allclose(&direct2, 1e-6).unwrap());
    }

    #[test]
    fn transpose_involution() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let back = a.transpose2d().unwrap().transpose2d().unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn bias_rows_and_adjoint() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[10.0, 20.0], &[2]);
        let y = x.add_bias_rows(&b).unwrap();
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
        let g = x.sum_rows().unwrap();
        assert_eq!(g.data(), &[4.0, 6.0]);
    }

    #[test]
    fn bias_shape_checked() {
        let x = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[1.0], &[1]);
        assert!(x.add_bias_rows(&b).is_err());
    }
}

//! Loss functions for blockwise distillation and evaluation.

use pipebd_tensor::{Result, Tensor, TensorError};

/// A scalar loss with the gradient w.r.t. the first argument.
#[derive(Debug, Clone, PartialEq)]
pub struct LossValue {
    /// The loss value.
    pub loss: f32,
    /// Gradient of the loss with respect to the prediction tensor.
    pub grad: Tensor,
}

/// Mean-squared-error distillation loss between a student activation and a
/// (detached) teacher activation: `L = mean((s − t)²)`.
///
/// This is the per-block objective of blockwise distillation (`L(Δoutput)`
/// in the paper's Fig. 1): the teacher tensor is a constant, so only the
/// student gradient is produced.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the activations differ in shape.
///
/// # Example
///
/// ```
/// use pipebd_nn::mse_loss;
/// use pipebd_tensor::Tensor;
///
/// # fn main() -> Result<(), pipebd_tensor::TensorError> {
/// let s = Tensor::from_vec(vec![1.0, 2.0], &[2])?;
/// let t = Tensor::from_vec(vec![0.0, 2.0], &[2])?;
/// let l = mse_loss(&s, &t)?;
/// assert!((l.loss - 0.5).abs() < 1e-6);
/// assert_eq!(l.grad.data(), &[1.0, 0.0]); // 2(s-t)/n
/// # Ok(())
/// # }
/// ```
pub fn mse_loss(student: &Tensor, teacher: &Tensor) -> Result<LossValue> {
    let n = student.numel().max(1) as f32;
    let k = 2.0 / n;
    // The gradient and the squared distance from one read of both.
    let (grad, sq) = student.zip_sum(teacher, |s, t| (s - t) * k, |s, t| (s - t) * (s - t))?;
    Ok(LossValue { loss: sq / n, grad })
}

/// Softmax cross-entropy with integer labels on `[batch, classes]` logits.
///
/// Returns the mean loss over the batch and its gradient w.r.t. the logits.
///
/// # Errors
///
/// Returns an error if `logits` is not rank-2 or `labels.len()` differs from
/// the batch size, or any label is out of range.
pub fn cross_entropy_loss(logits: &Tensor, labels: &[usize]) -> Result<LossValue> {
    if logits.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: logits.shape().rank(),
            op: "cross_entropy",
        });
    }
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != n {
        return Err(TensorError::LengthMismatch {
            expected: n,
            actual: labels.len(),
            op: "cross_entropy",
        });
    }
    let ld = logits.data();
    let mut grad = Tensor::zeros(&[n, c]);
    let mut loss = 0.0f32;
    for i in 0..n {
        let label = labels[i];
        if label >= c {
            return Err(TensorError::invalid(format!(
                "cross_entropy: label {label} out of range for {c} classes"
            )));
        }
        let row = &ld[i * c..(i + 1) * c];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let sum_exp: f32 = row.iter().map(|&v| (v - max).exp()).sum();
        let log_z = max + sum_exp.ln();
        loss += log_z - row[label];
        let grow = &mut grad.data_mut()[i * c..(i + 1) * c];
        for (j, g) in grow.iter_mut().enumerate() {
            let p = (row[j] - log_z).exp();
            *g = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    Ok(LossValue {
        loss: loss / n as f32,
        grad,
    })
}

/// Top-1 accuracy of `[batch, classes]` logits against integer labels.
///
/// # Errors
///
/// Returns an error if `logits` is not rank-2 or sizes disagree.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    if logits.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: logits.shape().rank(),
            op: "accuracy",
        });
    }
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != n {
        return Err(TensorError::LengthMismatch {
            expected: n,
            actual: labels.len(),
            op: "accuracy",
        });
    }
    let ld = logits.data();
    let mut correct = 0usize;
    for i in 0..n {
        let row = &ld[i * c..(i + 1) * c];
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        if best == labels[i] {
            correct += 1;
        }
    }
    Ok(correct as f32 / n.max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_tensor::Rng64;

    #[test]
    fn mse_zero_when_equal() {
        let t = Tensor::ones(&[2, 3]);
        let l = mse_loss(&t, &t).unwrap();
        assert_eq!(l.loss, 0.0);
        assert_eq!(l.grad.sq_norm(), 0.0);
    }

    #[test]
    fn mse_is_bitwise_the_two_pass_formulation() {
        // A gradient pass, then `reduce::sq_dist` over both operands again.
        let mut rng = Rng64::seed_from_u64(3);
        for n in [0usize, 1, 15, 16, 17, 1000, 4099] {
            let s = Tensor::randn(&[n], &mut rng);
            let t = Tensor::randn(&[n], &mut rng);
            let k = 2.0 / n.max(1) as f32;
            let grad = s.zip(&t, |s, t| (s - t) * k).unwrap();
            let loss = pipebd_tensor::reduce::sq_dist(s.data(), t.data()) / n.max(1) as f32;
            let l = mse_loss(&s, &t).unwrap();
            assert_eq!(l.loss.to_bits(), loss.to_bits(), "loss n={n}");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&l.grad), bits(&grad), "grad n={n}");
        }
    }

    #[test]
    fn mse_grad_matches_finite_differences() {
        let mut rng = Rng64::seed_from_u64(0);
        let s = Tensor::randn(&[2, 3], &mut rng);
        let t = Tensor::randn(&[2, 3], &mut rng);
        let l = mse_loss(&s, &t).unwrap();
        for i in 0..s.numel() {
            let mut sp = s.clone();
            sp.data_mut()[i] += 1e-3;
            let mut sm = s.clone();
            sm.data_mut()[i] -= 1e-3;
            let num = (mse_loss(&sp, &t).unwrap().loss - mse_loss(&sm, &t).unwrap().loss) / 2e-3;
            assert!((num - l.grad.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros(&[1, 4]);
        let l = cross_entropy_loss(&logits, &[2]).unwrap();
        assert!((l.loss - (4.0f32).ln()).abs() < 1e-5);
        // grad = p - onehot, p = 0.25
        assert!((l.grad.data()[2] - (0.25 - 1.0)).abs() < 1e-5);
        assert!((l.grad.data()[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_differences() {
        let mut rng = Rng64::seed_from_u64(1);
        let logits = Tensor::randn(&[3, 5], &mut rng);
        let labels = [0usize, 3, 4];
        let l = cross_entropy_loss(&logits, &labels).unwrap();
        for &i in &[0usize, 4, 7, 14] {
            let mut lp = logits.clone();
            lp.data_mut()[i] += 1e-3;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= 1e-3;
            let num = (cross_entropy_loss(&lp, &labels).unwrap().loss
                - cross_entropy_loss(&lm, &labels).unwrap().loss)
                / 2e-3;
            assert!(
                (num - l.grad.data()[i]).abs() < 1e-3,
                "grad[{i}] {num} vs {}",
                l.grad.data()[i]
            );
        }
    }

    #[test]
    fn cross_entropy_validations() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy_loss(&logits, &[0]).is_err()); // wrong label count
        assert!(cross_entropy_loss(&logits, &[0, 9]).is_err()); // label range
        assert!(cross_entropy_loss(&Tensor::zeros(&[3]), &[0, 0, 0]).is_err());
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]).unwrap();
        let acc = accuracy(&logits, &[0, 1, 1]).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
    }
}

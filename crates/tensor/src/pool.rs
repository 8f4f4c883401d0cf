//! Global average pooling and its adjoint.

use crate::error::TensorError;
use crate::tensor::Tensor;

fn rank4(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize), TensorError> {
    if t.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.shape().rank(),
            op,
        });
    }
    Ok((t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]))
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs.
pub fn global_avg_pool(x: &Tensor) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = rank4(x, "global_avg_pool")?;
    let inv = 1.0 / (h * w) as f32;
    let xd = x.data();
    let mut out = vec![0.0f32; n * c];
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            out[b * c + ch] = xd[base..base + h * w].iter().sum::<f32>() * inv;
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Adjoint of [`global_avg_pool`].
///
/// # Errors
///
/// Returns an error if `dy` is not `[n, c]` consistent with `input_dims`.
pub fn global_avg_pool_backward(dy: &Tensor, input_dims: &[usize]) -> Result<Tensor, TensorError> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_dims.len(),
            op: "global_avg_pool_backward",
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    if dy.dims() != [n, c] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, c],
            actual: dy.dims().to_vec(),
            op: "global_avg_pool_backward",
        });
    }
    let inv = 1.0 / (h * w) as f32;
    let dyd = dy.data();
    let mut dx = vec![0.0f32; n * c * h * w];
    for b in 0..n {
        for ch in 0..c {
            let g = dyd[b * c + ch] * inv;
            let base = (b * c + ch) * h * w;
            for v in &mut dx[base..base + h * w] {
                *v = g;
            }
        }
    }
    Tensor::from_vec(dx, input_dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn global_avg_pool_and_backward() {
        let mut rng = Rng64::seed_from_u64(1);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        // Hand check one entry.
        let mut acc = 0.0;
        for h in 0..4 {
            for w in 0..4 {
                acc += x.at(&[1, 2, h, w]).unwrap();
            }
        }
        assert!((y.at(&[1, 2]).unwrap() - acc / 16.0).abs() < 1e-5);
        let dy = Tensor::ones(&[2, 3]);
        let dx = global_avg_pool_backward(&dy, &[2, 3, 4, 4]).unwrap();
        assert!((dx.sum() - 6.0).abs() < 1e-5);
    }

    #[test]
    fn pool_validations() {
        let v = Tensor::zeros(&[4]);
        assert!(global_avg_pool(&v).is_err()); // wrong rank
        let dy = Tensor::zeros(&[2, 3]);
        assert!(global_avg_pool_backward(&dy, &[2, 3, 4]).is_err());
        assert!(global_avg_pool_backward(&dy, &[3, 2, 4, 4]).is_err());
    }
}

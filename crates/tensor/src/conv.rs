//! Grouped 2-D convolution kernels and their adjoints.
//!
//! A single grouped convolution covers all the convolution flavours the
//! model zoo needs: `groups == 1` is an ordinary convolution, and
//! `groups == in_channels` is a depthwise convolution (the first half of the
//! DS-Conv replacement blocks from the paper's model-compression workload).
//!
//! Each kernel exists in two implementations; the un-suffixed functions
//! run the blocked one, the `*_with` variants take a [`KernelPolicy`]:
//!
//! * **naive** — direct 7-deep loops: slow, exact, deterministic, easy to
//!   verify against finite differences, and kept as the oracle;
//! * **blocked** — the kernel the `lowering` module picks from the
//!   geometry: the `direct` module's for stride-1 dense, the `stencil`
//!   module's for depthwise (one to two orders of magnitude faster), and
//!   the naive loops for the rest — strided dense and grouped but not
//!   depthwise, which no executed model runs.

use crate::epilogue::{grad_epilogue, Activation, Epilogue};
use crate::error::TensorError;
use crate::kernel::KernelPolicy;
use crate::lowering::{self, ConvGeom, Direction};
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution.
///
/// Weights use layout `[out_channels, in_channels / groups, kernel, kernel]`;
/// activations use `[batch, channels, height, width]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding along both spatial axes.
    pub padding: usize,
    /// Channel groups (1 = dense, `in_channels` = depthwise).
    pub groups: usize,
}

impl Conv2dSpec {
    /// A dense (ungrouped) convolution spec.
    pub fn dense(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups: 1,
        }
    }

    /// A depthwise convolution spec (`groups == channels`).
    pub fn depthwise(channels: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dSpec {
            in_channels: channels,
            out_channels: channels,
            kernel,
            stride,
            padding,
            groups: channels,
        }
    }

    /// Expected weight tensor dims: `[co, ci/groups, k, k]`, or `[0; 4]`
    /// for a spec that every convolution refuses (a zero channel count,
    /// kernel, stride or `groups`, or `groups` not dividing the channels).
    pub fn weight_dims(&self) -> [usize; 4] {
        if self.check().is_err() {
            return [0; 4];
        }
        [
            self.out_channels,
            self.in_channels / self.groups,
            self.kernel,
            self.kernel,
        ]
    }

    /// Output spatial extent for an input extent.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the stride is zero, the
    /// padded input is smaller than the kernel, or its extent overflows.
    pub fn out_extent(&self, extent: usize) -> Result<usize, TensorError> {
        if self.stride == 0 {
            return Err(TensorError::invalid("conv2d: stride must be > 0"));
        }
        let padded = self
            .padding
            .checked_mul(2)
            .and_then(|p| p.checked_add(extent))
            .ok_or_else(|| TensorError::invalid("conv2d: padded input overflows"))?;
        if padded < self.kernel {
            return Err(TensorError::invalid(format!(
                "conv2d: padded input {padded} smaller than kernel {}",
                self.kernel
            )));
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }

    /// Multiply-add count for one sample at the given input extent, or 0
    /// for a spec that every convolution refuses (as for
    /// [`Conv2dSpec::weight_dims`]). Saturates rather than overflow.
    ///
    /// Used to keep the simulator's FLOP model and the executable models in
    /// agreement.
    pub fn flops_per_sample(&self, height: usize, width: usize) -> u64 {
        if self.check().is_err() {
            return 0;
        }
        let out = |e: usize| {
            let padded = e.saturating_add(self.padding.saturating_mul(2));
            padded.saturating_sub(self.kernel) / self.stride + 1
        };
        // 2 ops (mul + add) per MAC.
        [
            out(height),
            out(width),
            self.out_channels,
            self.in_channels / self.groups,
            self.kernel,
            self.kernel,
        ]
        .into_iter()
        .fold(2u64, |acc, v| acc.saturating_mul(v as u64))
    }

    /// Checks the spec against itself: channels, kernel and stride are
    /// nonzero, and `groups` divides both channel counts.
    fn check(&self) -> Result<(), TensorError> {
        if self.in_channels == 0 || self.out_channels == 0 || self.kernel == 0 {
            return Err(TensorError::invalid(format!(
                "conv2d: in {} and out {} channels and kernel {} must be > 0",
                self.in_channels, self.out_channels, self.kernel
            )));
        }
        if self.stride == 0 {
            return Err(TensorError::invalid("conv2d: stride must be > 0"));
        }
        if self.groups == 0
            || self.in_channels % self.groups != 0
            || self.out_channels % self.groups != 0
        {
            return Err(TensorError::invalid(format!(
                "conv2d: groups {} must divide in {} and out {}",
                self.groups, self.in_channels, self.out_channels
            )));
        }
        Ok(())
    }

    /// Checks the spec and the input; `x`'s `(n, ci, h, w)`.
    fn validate_input(&self, x: &Tensor) -> Result<(usize, usize, usize, usize), TensorError> {
        self.check()?;
        if x.shape().rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: x.shape().rank(),
                op: "conv2d",
            });
        }
        let [n, ci, h, wd] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
        if ci != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                expected: vec![n, self.in_channels, h, wd],
                actual: x.dims().to_vec(),
                op: "conv2d",
            });
        }
        Ok((n, ci, h, wd))
    }

    /// The geometry of a weight gradient: `x` checked exactly as forward
    /// checks it, then `dy` against the output it implies.
    fn validate_grad_weight(&self, x: &Tensor, dy: &Tensor) -> Result<ConvGeom, TensorError> {
        let (n, _ci, h, w) = self.validate_input(x)?;
        let (oh, ow) = (self.out_extent(h)?, self.out_extent(w)?);
        if dy.dims() != [n, self.out_channels, oh, ow] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![n, self.out_channels, oh, ow],
                actual: dy.dims().to_vec(),
                op: "conv2d_grad_weight",
            });
        }
        Ok(ConvGeom { n, h, w, oh, ow })
    }

    fn validate(
        &self,
        x: &Tensor,
        w: &Tensor,
    ) -> Result<(usize, usize, usize, usize), TensorError> {
        let dims = self.validate_input(x)?;
        if w.dims() != self.weight_dims() {
            return Err(TensorError::ShapeMismatch {
                expected: self.weight_dims().to_vec(),
                actual: w.dims().to_vec(),
                op: "conv2d",
            });
        }
        Ok(dims)
    }
}

/// Forward grouped 2-D convolution.
///
/// # Errors
///
/// Returns an error if the spec is inconsistent with the operand shapes or
/// the padded input is smaller than the kernel.
///
/// # Example
///
/// ```
/// use pipebd_tensor::{conv2d, Conv2dSpec, Tensor};
///
/// # fn main() -> Result<(), pipebd_tensor::TensorError> {
/// // 3x3 identity-ish kernel on a 1-channel 4x4 image.
/// let spec = Conv2dSpec::dense(1, 1, 3, 1, 1);
/// let x = Tensor::ones(&[1, 1, 4, 4]);
/// let mut w = Tensor::zeros(&[1, 1, 3, 3]);
/// w.set(&[0, 0, 1, 1], 1.0)?; // center tap
/// let y = conv2d(&x, &w, spec)?;
/// assert_eq!(y.dims(), &[1, 1, 4, 4]);
/// assert_eq!(y.sum(), 16.0);
/// # Ok(())
/// # }
/// ```
pub fn conv2d(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Result<Tensor, TensorError> {
    conv2d_fused(x, w, spec, Epilogue::NONE)
}

/// [`conv2d`] whose every output element is finished by `epilogue` as the
/// kernel writes it: `acc + bias[oc]`, then the activation.
///
/// # Errors
///
/// Same conditions as [`conv2d`], and a bias that is not one value per
/// output channel.
pub fn conv2d_fused(
    x: &Tensor,
    w: &Tensor,
    spec: Conv2dSpec,
    epilogue: Epilogue<'_>,
) -> Result<Tensor, TensorError> {
    conv2d_with(x, w, spec, epilogue, KernelPolicy::Blocked)
}

/// [`conv2d_fused`] with an explicit [`KernelPolicy`].
///
/// # Errors
///
/// Same conditions as [`conv2d_fused`].
pub fn conv2d_with(
    x: &Tensor,
    w: &Tensor,
    spec: Conv2dSpec,
    epilogue: Epilogue<'_>,
    policy: KernelPolicy,
) -> Result<Tensor, TensorError> {
    let (n, _ci, h, wd) = spec.validate(x, w)?;
    if let Some(b) = epilogue.bias.filter(|b| b.len() != spec.out_channels) {
        return Err(TensorError::ShapeMismatch {
            expected: vec![spec.out_channels],
            actual: vec![b.len()],
            op: "conv2d",
        });
    }
    let oh = spec.out_extent(h)?;
    let ow = spec.out_extent(wd)?;
    let geom = ConvGeom {
        n,
        h,
        w: wd,
        oh,
        ow,
    };
    let kernel = geom.kernel(&spec, Direction::Forward, policy);
    // Every kernel writes every element of the output.
    Ok(Tensor::overwritten(
        &[n, spec.out_channels, oh, ow],
        |out| lowering::forward(x.data(), w.data(), out, epilogue, &spec, &geom, kernel),
    ))
}

pub(crate) fn conv2d_naive(
    xd: &[f32],
    wdta: &[f32],
    out: &mut [f32],
    epilogue: Epilogue<'_>,
    spec: Conv2dSpec,
    geom: &ConvGeom,
) {
    #[rustfmt::skip]
    let ConvGeom { n, h, w: wd, oh, ow } = *geom;
    let cig = spec.in_channels / spec.groups;
    let cog = spec.out_channels / spec.groups;
    let k = spec.kernel;

    for b in 0..n {
        for g in 0..spec.groups {
            for ocg in 0..cog {
                let oc = g * cog + ocg;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for icg in 0..cig {
                            let ic = g * cig + icg;
                            let xbase = ((b * spec.in_channels + ic) * h) * wd;
                            let wbase = ((oc * cig + icg) * k) * k;
                            for ky in 0..k {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if ix < 0 || ix >= wd as isize {
                                        continue;
                                    }
                                    acc += xd[xbase + iy as usize * wd + ix as usize]
                                        * wdta[wbase + ky * k + kx];
                                }
                            }
                        }
                        out[((b * spec.out_channels + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
                let plane = &mut out[(b * spec.out_channels + oc) * oh * ow..][..oh * ow];
                epilogue.finish(plane, oc);
            }
        }
    }
}

/// Gradient of the convolution output with respect to its input.
///
/// `dy` has the forward output's shape; the result has the forward input's
/// shape.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with `spec` and `input_hw`.
pub fn conv2d_grad_input(
    dy: &Tensor,
    w: &Tensor,
    spec: Conv2dSpec,
    input_hw: (usize, usize),
) -> Result<Tensor, TensorError> {
    conv2d_grad_input_with(dy, w, spec, input_hw, KernelPolicy::Blocked)
}

/// [`conv2d_grad_input`] with an explicit [`KernelPolicy`].
///
/// # Errors
///
/// Same conditions as [`conv2d_grad_input`].
pub fn conv2d_grad_input_with(
    dy: &Tensor,
    w: &Tensor,
    spec: Conv2dSpec,
    input_hw: (usize, usize),
    policy: KernelPolicy,
) -> Result<Tensor, TensorError> {
    let (h, wd) = input_hw;
    spec.check()?;
    if w.dims() != spec.weight_dims() {
        return Err(TensorError::ShapeMismatch {
            expected: spec.weight_dims().to_vec(),
            actual: w.dims().to_vec(),
            op: "conv2d_grad_input",
        });
    }
    if dy.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: dy.shape().rank(),
            op: "conv2d_grad_input",
        });
    }
    let n = dy.dims()[0];
    let oh = spec.out_extent(h)?;
    let ow = spec.out_extent(wd)?;
    if dy.dims() != [n, spec.out_channels, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, spec.out_channels, oh, ow],
            actual: dy.dims().to_vec(),
            op: "conv2d_grad_input",
        });
    }
    let geom = ConvGeom {
        n,
        h,
        w: wd,
        oh,
        ow,
    };
    let kernel = geom.kernel(&spec, Direction::GradInput, policy);
    // The direct adjoint and the stencil write every element; the oracle
    // zeroes the whole tensor first.
    Ok(Tensor::overwritten(&[n, spec.in_channels, h, wd], |dx| {
        lowering::grad_input(dy.data(), w.data(), dx, &spec, &geom, kernel)
    }))
}

pub(crate) fn conv2d_grad_input_naive(
    dyd: &[f32],
    wdta: &[f32],
    dx: &mut [f32],
    spec: Conv2dSpec,
    geom: &ConvGeom,
) {
    #[rustfmt::skip]
    let ConvGeom { n, h, w: wd, oh, ow } = *geom;
    dx.fill(0.0);
    let cig = spec.in_channels / spec.groups;
    let cog = spec.out_channels / spec.groups;
    let k = spec.kernel;

    for b in 0..n {
        for g in 0..spec.groups {
            for ocg in 0..cog {
                let oc = g * cog + ocg;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = dyd[((b * spec.out_channels + oc) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        for icg in 0..cig {
                            let ic = g * cig + icg;
                            let xbase = ((b * spec.in_channels + ic) * h) * wd;
                            let wbase = ((oc * cig + icg) * k) * k;
                            for ky in 0..k {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if ix < 0 || ix >= wd as isize {
                                        continue;
                                    }
                                    dx[xbase + iy as usize * wd + ix as usize] +=
                                        go * wdta[wbase + ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Gradient of the convolution output with respect to the weights.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with `spec`.
pub fn conv2d_grad_weight(
    x: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) -> Result<Tensor, TensorError> {
    conv2d_grad_weight_with(x, dy, spec, KernelPolicy::Blocked)
}

/// [`conv2d_grad_weight`] with an explicit [`KernelPolicy`].
///
/// # Errors
///
/// Same conditions as [`conv2d_grad_weight`].
pub fn conv2d_grad_weight_with(
    x: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
    policy: KernelPolicy,
) -> Result<Tensor, TensorError> {
    let geom = spec.validate_grad_weight(x, dy)?;
    let kernel = geom.kernel(&spec, Direction::GradWeight, policy);
    let mut dw = Tensor::zeros(&spec.weight_dims());
    lowering::grad_weight(x.data(), dy.data(), dw.data_mut(), &spec, &geom, kernel);
    Ok(dw)
}

/// The backward of a forward [`Epilogue`] with `activation`, given the
/// output `y` it produced: `dz = dy` where the activation passes `y`, else
/// `0`, and the bias gradient `Σ dz` per channel — both from one read of
/// `dy` and `y`, in the order the module `epilogue` documents. With
/// [`Activation::None`], `dz` is `dy` itself (a shared handle) and `y` is
/// not read.
///
/// # Errors
///
/// Returns an error unless `dy` is rank 4 and `y` has its shape.
pub fn conv2d_grad_epilogue(
    dy: &Tensor,
    y: &Tensor,
    activation: Activation,
) -> Result<(Tensor, Tensor), TensorError> {
    let [_, c, oh, ow] = gradient_dims(dy, y, "conv2d_grad_epilogue")?;
    let mut db = vec![0.0f32; c];
    let dz = grad_epilogue(dy.data(), y.data(), activation, &mut db, oh * ow).map_or_else(
        || dy.clone(),
        |dz| Tensor::from_parts(dy.shape().clone(), dz),
    );
    Ok((dz, Tensor::from_vec(db, &[c])?))
}

/// [`conv2d_grad_weight`] of [`conv2d_grad_epilogue`]'s `dz`, and its bias
/// gradient, without `dz` ever being a tensor where the kernel allows:
/// the depthwise stencil gates each `dy` plane as it reads it (and sums it
/// there); every other kernel reads a `dz` that one fused pass wrote.
/// Bitwise the two calls.
///
/// # Errors
///
/// Same conditions as [`conv2d_grad_weight`] and [`conv2d_grad_epilogue`].
pub fn conv2d_grad_weight_fused(
    x: &Tensor,
    dy: &Tensor,
    y: &Tensor,
    activation: Activation,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor), TensorError> {
    let geom = spec.validate_grad_weight(x, dy)?;
    gradient_dims(dy, y, "conv2d_grad_weight")?;
    let c = spec.out_channels;
    let (mut dw, mut db) = (Tensor::zeros(&spec.weight_dims()), vec![0.0f32; c]);
    lowering::grad_weight_gated(
        x.data(),
        dy.data(),
        y.data(),
        activation,
        dw.data_mut(),
        &mut db,
        &spec,
        &geom,
    );
    Ok((dw, Tensor::from_vec(db, &[c])?))
}

/// `dy`'s dims, checked rank 4 and equal to `y`'s.
fn gradient_dims(dy: &Tensor, y: &Tensor, op: &'static str) -> Result<[usize; 4], TensorError> {
    let dims: [usize; 4] = dy
        .dims()
        .try_into()
        .map_err(|_| TensorError::RankMismatch {
            expected: 4,
            actual: dy.shape().rank(),
            op,
        })?;
    if y.dims() != dims {
        return Err(TensorError::ShapeMismatch {
            expected: dims.to_vec(),
            actual: y.dims().to_vec(),
            op,
        });
    }
    Ok(dims)
}

pub(crate) fn conv2d_grad_weight_naive(
    xd: &[f32],
    dyd: &[f32],
    dw: &mut [f32],
    spec: Conv2dSpec,
    geom: &ConvGeom,
) {
    #[rustfmt::skip]
    let ConvGeom { n, h, w: wd, oh, ow } = *geom;
    let cig = spec.in_channels / spec.groups;
    let cog = spec.out_channels / spec.groups;
    let k = spec.kernel;

    for b in 0..n {
        for g in 0..spec.groups {
            for ocg in 0..cog {
                let oc = g * cog + ocg;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = dyd[((b * spec.out_channels + oc) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        for icg in 0..cig {
                            let ic = g * cig + icg;
                            let xbase = ((b * spec.in_channels + ic) * h) * wd;
                            let wbase = ((oc * cig + icg) * k) * k;
                            for ky in 0..k {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if ix < 0 || ix >= wd as isize {
                                        continue;
                                    }
                                    dw[wbase + ky * k + kx] +=
                                        go * xd[xbase + iy as usize * wd + ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Numerically differentiates `f` at `x[i]` via central differences.
    fn numeric_grad(f: &dyn Fn(&Tensor) -> f32, x: &Tensor, i: usize, eps: f32) -> f32 {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        (f(&xp) - f(&xm)) / (2.0 * eps)
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let spec = Conv2dSpec::dense(1, 1, 3, 1, 1);
        let mut rng = Rng64::seed_from_u64(1);
        let x = Tensor::randn(&[1, 1, 5, 5], &mut rng);
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.set(&[0, 0, 1, 1], 1.0).unwrap();
        let y = conv2d(&x, &w, spec).unwrap();
        assert!(y.allclose(&x, 1e-6).unwrap());
    }

    #[test]
    fn stride_two_halves_resolution() {
        let spec = Conv2dSpec::dense(1, 2, 3, 2, 1);
        let x = Tensor::ones(&[2, 1, 8, 8]);
        let w = Tensor::ones(&[2, 1, 3, 3]);
        let y = conv2d(&x, &w, spec).unwrap();
        assert_eq!(y.dims(), &[2, 2, 4, 4]);
    }

    #[test]
    fn depthwise_channels_independent() {
        let spec = Conv2dSpec::depthwise(2, 3, 1, 1);
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        // Put energy only in channel 0.
        for h in 0..4 {
            for w_ in 0..4 {
                x.set(&[0, 0, h, w_], 1.0).unwrap();
            }
        }
        let w = Tensor::ones(&[2, 1, 3, 3]);
        let y = conv2d(&x, &w, spec).unwrap();
        // Channel 1 of output must be zero (depthwise has no cross-talk).
        for h in 0..4 {
            for w_ in 0..4 {
                assert_eq!(y.at(&[0, 1, h, w_]).unwrap(), 0.0);
            }
        }
        assert!(y.at(&[0, 0, 1, 1]).unwrap() > 0.0);
    }

    #[test]
    fn grouped_conv_matches_blockdiag_dense() {
        // A 2-group conv equals a dense conv with a block-diagonal kernel.
        let mut rng = Rng64::seed_from_u64(2);
        let x = Tensor::randn(&[2, 4, 5, 5], &mut rng);
        let gspec = Conv2dSpec {
            in_channels: 4,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 2,
        };
        let gw = Tensor::randn(&[4, 2, 3, 3], &mut rng);
        let gy = conv2d(&x, &gw, gspec).unwrap();

        let dspec = Conv2dSpec::dense(4, 4, 3, 1, 1);
        let mut dw = Tensor::zeros(&[4, 4, 3, 3]);
        for oc in 0..4 {
            let g = oc / 2;
            for icg in 0..2 {
                let ic = g * 2 + icg;
                for ky in 0..3 {
                    for kx in 0..3 {
                        dw.set(&[oc, ic, ky, kx], gw.at(&[oc, icg, ky, kx]).unwrap())
                            .unwrap();
                    }
                }
            }
        }
        let dy = conv2d(&x, &dw, dspec).unwrap();
        assert!(gy.allclose(&dy, 1e-5).unwrap());
    }

    #[test]
    fn grad_input_matches_finite_differences() {
        let spec = Conv2dSpec::dense(2, 3, 3, 2, 1);
        let mut rng = Rng64::seed_from_u64(3);
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        // Scalar objective: weighted sum of outputs (weights = fixed random).
        let y0 = conv2d(&x, &w, spec).unwrap();
        let probe = Tensor::randn(y0.dims(), &mut rng);
        let f = |xt: &Tensor| conv2d(xt, &w, spec).unwrap().mul(&probe).unwrap().sum();
        let dx = conv2d_grad_input(&probe, &w, spec, (6, 6)).unwrap();
        for &i in &[0usize, 7, 20, 35, 71] {
            let num = numeric_grad(&f, &x, i, 1e-2);
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dx[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn grad_weight_matches_finite_differences() {
        let spec = Conv2dSpec::depthwise(2, 3, 1, 1);
        let mut rng = Rng64::seed_from_u64(4);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let w = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        let y0 = conv2d(&x, &w, spec).unwrap();
        let probe = Tensor::randn(y0.dims(), &mut rng);
        let f = |wt: &Tensor| conv2d(&x, wt, spec).unwrap().mul(&probe).unwrap().sum();
        let dw = conv2d_grad_weight(&x, &probe, spec).unwrap();
        for i in 0..dw.numel() {
            let num = numeric_grad(&f, &w, i, 1e-2);
            let ana = dw.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dw[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn validation_errors() {
        let spec = Conv2dSpec::dense(2, 2, 3, 1, 1);
        let x = Tensor::zeros(&[1, 3, 4, 4]); // wrong channels
        let w = Tensor::zeros(&[2, 2, 3, 3]);
        assert!(conv2d(&x, &w, spec).is_err());
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let wbad = Tensor::zeros(&[2, 2, 5, 5]); // wrong kernel
        assert!(conv2d(&x, &wbad, spec).is_err());
        let bad = Conv2dSpec { stride: 0, ..spec };
        assert!(conv2d(&x, &w, bad).is_err());

        // Grad-weight checks x exactly as forward does, then dy.
        let dy = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(conv2d_grad_weight(&x, &dy, spec).is_ok());
        assert!(conv2d_grad_weight(&x, &dy, bad).is_err());
        let xbad = Tensor::zeros(&[1, 3, 4, 4]); // wrong channels
        assert!(matches!(
            conv2d_grad_weight(&xbad, &dy, spec),
            Err(TensorError::ShapeMismatch { op: "conv2d", .. })
        ));
        assert!(conv2d_grad_weight(&Tensor::zeros(&[2, 4, 4]), &dy, spec).is_err()); // rank
        for dims in [[1, 3, 4, 4], [2, 2, 4, 4], [1, 2, 3, 4]] {
            assert!(matches!(
                conv2d_grad_weight(&x, &Tensor::zeros(&dims), spec),
                Err(TensorError::ShapeMismatch {
                    op: "conv2d_grad_weight",
                    ..
                })
            ));
        }
    }

    /// Every `groups` divides 0, so these specs passed the group check and
    /// then panicked inside the kernels.
    #[test]
    fn zero_channels_and_kernels_are_refused() {
        let x = Tensor::ones(&[1, 3, 4, 4]);
        let refused =
            |r: Result<Tensor, TensorError>| matches!(r, Err(TensorError::InvalidArgument { .. }));
        let no_out = Conv2dSpec::dense(3, 0, 3, 1, 1);
        let w = Tensor::zeros(&no_out.weight_dims());
        let dy = Tensor::zeros(&[1, 0, 4, 4]);
        assert!(refused(conv2d(&x, &w, no_out)));
        assert!(refused(conv2d_grad_weight(&x, &dy, no_out)));
        assert!(refused(conv2d_grad_input(&dy, &w, no_out, (4, 4))));
        let no_in = Conv2dSpec::dense(0, 2, 3, 1, 1);
        let w = Tensor::zeros(&no_in.weight_dims());
        assert!(refused(conv2d(&Tensor::ones(&[1, 0, 4, 4]), &w, no_in)));
        let no_kernel = Conv2dSpec::dense(3, 2, 0, 1, 1);
        let w = Tensor::zeros(&no_kernel.weight_dims());
        assert!(refused(conv2d(&x, &w, no_kernel)));
    }

    #[test]
    fn spec_queries_are_total() {
        let no_groups = Conv2dSpec {
            groups: 0,
            ..Conv2dSpec::dense(4, 4, 3, 1, 1)
        };
        let no_stride = Conv2dSpec::dense(4, 4, 3, 0, 1);
        assert_eq!(no_groups.weight_dims(), [0; 4]);
        assert_eq!(no_groups.flops_per_sample(8, 8), 0);
        assert_eq!(no_stride.flops_per_sample(8, 8), 0);
        assert!(matches!(
            no_stride.out_extent(8),
            Err(TensorError::InvalidArgument { .. })
        ));
        let huge = Conv2dSpec::dense(4, 4, 3, 1, usize::MAX / 2 + 1);
        assert!(huge.out_extent(8).is_err());
        assert_eq!(Conv2dSpec::dense(4, 4, 3, 1, 1).out_extent(8).unwrap(), 8);
    }

    #[test]
    fn flops_counting_sane() {
        let spec = Conv2dSpec::dense(3, 8, 3, 1, 1);
        // 2 * co * oh * ow * ci * k * k = 2*8*4*4*3*9 = 6912
        assert_eq!(spec.flops_per_sample(4, 4), 6912);
        let dw = Conv2dSpec::depthwise(8, 3, 1, 1);
        // 2 * 8 * 16 * 1 * 9
        assert_eq!(dw.flops_per_sample(4, 4), 2 * 8 * 16 * 9);
    }
}

//! What a convolution does to an output element as it writes it, and the
//! backward of that.
//!
//! **Forward.** An [`Epilogue`] is `acc + bias[oc]` (when there is a bias)
//! and then the [`Activation`], applied by every lowering as it writes its
//! output or while what it wrote is still in cache (`lowering`'s table
//! says where): the same two operations, in the same order, as a
//! bias pass and an activation pass over the finished tensor would apply.
//!
//! **Backward.** The activation's gradient is a select on the *output*:
//! `dz = dy` where [`Activation::passes`] the element's `y`, else `0`
//! (`y > 0` exactly where the pre-activation was, and `0 < y < 6` likewise
//! for ReLU6). The bias gradient of channel `c` is `Σ dz` over its planes:
//! each plane summed in [`reduce`]'s lane order (element `i` of the plane
//! into lane `i % 16`, folded by the 8/4/2/1 tree — bitwise
//! `reduce::sum(plane)`), the planes added in batch order from `0.0`.

use crate::recycle::Buf;
use crate::reduce;

/// The activation a convolution's [`Epilogue`] applies after the bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// The identity.
    None,
    /// `max(0, v)`.
    Relu,
    /// `clamp(v, 0, 6)`, MobileNetV2's.
    Relu6,
}

impl Activation {
    /// The activation of `v`.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::None => v,
            Activation::Relu => v.max(0.0),
            Activation::Relu6 => v.clamp(0.0, 6.0),
        }
    }

    /// Whether the gradient passes an element whose *output* is `y`.
    #[inline(always)]
    pub fn passes(self, y: f32) -> bool {
        match self {
            Activation::None => true,
            Activation::Relu => y > 0.0,
            Activation::Relu6 => y > 0.0 && y < 6.0,
        }
    }

    /// `dy` where the gradient passes `y`, else `0` — a select, not a
    /// branch: which side an element takes is data the branch predictor
    /// cannot learn.
    #[inline(always)]
    pub fn gate(self, dy: f32, y: f32) -> f32 {
        if self.passes(y) {
            dy
        } else {
            0.0
        }
    }

    /// Writes `out[i] = gate(dy[i], y[i])` and returns `Σ out[i]` in
    /// [`reduce`]'s lane order, from one read of `dy` and `y`.
    #[inline(always)]
    pub(crate) fn gate_sum(self, dy: &[f32], y: &[f32], out: &mut [f32]) -> f32 {
        // One arm per activation: a `match` inside the loop is tested per
        // element.
        macro_rules! arm {
            ($act:expr) => {
                reduce::zip_sum(dy, y, out, |g, y| $act.gate(g, y), |g, y| $act.gate(g, y))
            };
        }
        match self {
            Activation::None => arm!(Activation::None),
            Activation::Relu => arm!(Activation::Relu),
            Activation::Relu6 => arm!(Activation::Relu6),
        }
    }
}

/// What a convolution applies to each output element of channel `oc` as it
/// writes it: `acc + bias[oc]` when there is a bias, then `activation`.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a> {
    /// One value per output channel.
    pub bias: Option<&'a [f32]>,
    /// Applied after the bias.
    pub activation: Activation,
}

/// `$body` with `$f` bound to the epilogue `$e`'s function of one element of
/// channel `$oc`, once per arm of its bias and activation: a `match` inside
/// the loop would be tested per element.
macro_rules! finishing {
    ($e:expr, $oc:expr, |$f:ident| $body:expr) => {
        match ($e.bias.map(|b| b[$oc]), $e.activation) {
            (None, Activation::None) => {
                let $f = |v: f32| v;
                $body
            }
            (None, Activation::Relu) => {
                let $f = |v: f32| Activation::Relu.apply(v);
                $body
            }
            (None, Activation::Relu6) => {
                let $f = |v: f32| Activation::Relu6.apply(v);
                $body
            }
            (Some(b), Activation::None) => {
                let $f = |v: f32| v + b;
                $body
            }
            (Some(b), Activation::Relu) => {
                let $f = |v: f32| Activation::Relu.apply(v + b);
                $body
            }
            (Some(b), Activation::Relu6) => {
                let $f = |v: f32| Activation::Relu6.apply(v + b);
                $body
            }
        }
    };
}

impl Epilogue<'_> {
    /// No bias, no activation: the summed value as it is.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        activation: Activation::None,
    };

    /// Finishes summed elements of output channel `oc` in place, while
    /// the kernel that wrote them still has them in cache.
    #[inline(always)]
    pub(crate) fn finish(&self, out: &mut [f32], oc: usize) {
        finishing!(self, oc, |f| {
            for v in out.iter_mut() {
                *v = f(*v);
            }
        });
    }

    /// Writes the summed elements `acc` of output channel `oc`
    /// finished: a register tile's write-out.
    #[inline(always)]
    pub(crate) fn write(&self, out: &mut [f32], acc: &[f32], oc: usize) {
        finishing!(self, oc, |f| {
            for (o, &a) in out.iter_mut().zip(acc) {
                *o = f(a);
            }
        });
    }
}

/// The backward of an epilogue over `[n, c, plane]` gradients: adds each
/// channel's bias gradient into `db` (`c` values) and returns `dz` — `None`
/// when `activation` gates nothing and `dz` is `dy` itself. `y` is the
/// forward output, read only where the activation gates.
pub(crate) fn grad_epilogue(
    dy: &[f32],
    y: &[f32],
    activation: Activation,
    db: &mut [f32],
    plane: usize,
) -> Option<Buf> {
    let (c, plane) = (db.len(), plane.max(1));
    let planes = dy.chunks_exact(plane).zip(y.chunks_exact(plane));
    if activation == Activation::None {
        for (i, (g, _)) in planes.enumerate() {
            db[i % c] += reduce::sum(g);
        }
        return None;
    }
    Some(Buf::overwritten(dy.len(), |dz| {
        for (i, ((g, y), o)) in planes.zip(dz.chunks_exact_mut(plane)).enumerate() {
            db[i % c] += activation.gate_sum(g, y, o);
        }
    }))
}

//! The orders the stencil documents, written out element by element: a
//! forward or grad-input element is one `mul_add` chain over its present
//! taps in `(ky, kx)` order; grad-weight sums tap `t`'s products at element
//! `ox` of each row into lane `ox % 16`, rows and batches in order, and
//! folds the lanes by the 8/4/2/1 tree. The kernels must match bit for bit.

use crate::parallel::{install, ComputePool};
use crate::{conv2d, conv2d_grad_input, conv2d_grad_weight, Conv2dSpec, Rng64, Tensor};

/// One depthwise geometry: `n` batches of `spec.groups` planes of `h x w`.
struct Case {
    spec: Conv2dSpec,
    n: usize,
    h: usize,
    w: usize,
}

impl Case {
    fn out(&self) -> (usize, usize) {
        let s = &self.spec;
        (s.out_extent(self.h).unwrap(), s.out_extent(self.w).unwrap())
    }

    /// The input element output `(oy, ox)` meets through tap `(ky, kx)`,
    /// if it is inside the plane.
    fn input(&self, (oy, ox): (usize, usize), (ky, kx): (usize, usize)) -> Option<usize> {
        let (s, p) = (self.spec.stride, self.spec.padding);
        let iy = (oy * s + ky).checked_sub(p).filter(|&iy| iy < self.h)?;
        let ix = (ox * s + kx).checked_sub(p).filter(|&ix| ix < self.w)?;
        Some(iy * self.w + ix)
    }

    fn forward(&self, x: &[f32], wt: &[f32]) -> Vec<f32> {
        let (k, (oh, ow)) = (self.spec.kernel, self.out());
        let mut out = Vec::new();
        for (plane, xp) in x.chunks_exact(self.h * self.w).enumerate() {
            let w = &wt[plane % self.spec.groups * k * k..][..k * k];
            for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                let mut acc = 0.0f32;
                for (ky, kx) in (0..k).flat_map(|ky| (0..k).map(move |kx| (ky, kx))) {
                    if let Some(i) = self.input((oy, ox), (ky, kx)) {
                        acc = xp[i].mul_add(w[ky * k + kx], acc);
                    }
                }
                out.push(acc);
            }
        }
        out
    }

    fn grad_input(&self, dy: &[f32], wt: &[f32]) -> Vec<f32> {
        let (k, s, p, (oh, ow)) = (
            self.spec.kernel,
            self.spec.stride,
            self.spec.padding,
            self.out(),
        );
        // The output that input `i` meets through tap `t`, along one axis.
        let out = |i: usize, t: usize, n: usize| {
            let at = (i + p).checked_sub(t).filter(|at| at % s == 0)?;
            Some(at / s).filter(|&o| o < n)
        };
        let mut dx = Vec::new();
        for (plane, dyp) in dy.chunks_exact(oh * ow).enumerate() {
            let w = &wt[plane % self.spec.groups * k * k..][..k * k];
            for (iy, ix) in (0..self.h).flat_map(|iy| (0..self.w).map(move |ix| (iy, ix))) {
                let mut acc = 0.0f32;
                for (ky, kx) in (0..k).flat_map(|ky| (0..k).map(move |kx| (ky, kx))) {
                    if let (Some(oy), Some(ox)) = (out(iy, ky, oh), out(ix, kx, ow)) {
                        acc = dyp[oy * ow + ox].mul_add(w[ky * k + kx], acc);
                    }
                }
                dx.push(acc);
            }
        }
        dx
    }

    fn grad_weight(&self, x: &[f32], dy: &[f32]) -> Vec<f32> {
        let (c, k, (oh, ow)) = (self.spec.groups, self.spec.kernel, self.out());
        let mut dw = Vec::new();
        for (ch, (ky, kx)) in (0..c).flat_map(|ch| (0..k * k).map(move |t| (ch, (t / k, t % k)))) {
            let mut lanes = [0.0f32; 16];
            for b in 0..self.n {
                let xp = &x[(b * c + ch) * self.h * self.w..][..self.h * self.w];
                let dyp = &dy[(b * c + ch) * oh * ow..][..oh * ow];
                for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                    if let Some(i) = self.input((oy, ox), (ky, kx)) {
                        lanes[ox % 16] = dyp[oy * ow + ox].mul_add(xp[i], lanes[ox % 16]);
                    }
                }
            }
            let q: [f32; 4] =
                std::array::from_fn(|l| (lanes[l] + lanes[l + 8]) + (lanes[l + 4] + lanes[l + 12]));
            dw.push((q[0] + q[2]) + (q[1] + q[3]));
        }
        dw
    }
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_kernel_follows_the_documented_order() {
    let mut rng = Rng64::seed_from_u64(25);
    // The test kit's 8 x 8 (narrower than one vector), the benchmark's
    // 32 x 32, 64 x 64 and 16 x 16, and two ragged planes.
    let planes = [(8, 8), (32, 32), (64, 64), (16, 16), (20, 27), (33, 20)];
    for (h, w) in planes {
        for k in [1, 3, 5] {
            // Padding 0, "same", and past `k - 1`; strides 1 and 2.
            for (s, p) in [1, 2]
                .into_iter()
                .flat_map(|s| [(s, 0), (s, k / 2), (s, k + 1)])
            {
                let case = Case {
                    spec: Conv2dSpec::depthwise(3, k, s, p),
                    n: 2,
                    h,
                    w,
                };
                let x = Tensor::randn(&[case.n, 3, h, w], &mut rng);
                let wt = Tensor::randn(&case.spec.weight_dims(), &mut rng);
                let (oh, ow) = case.out();
                let dy = Tensor::randn(&[case.n, 3, oh, ow], &mut rng);
                let want = [
                    case.forward(x.data(), wt.data()),
                    case.grad_input(dy.data(), wt.data()),
                    case.grad_weight(x.data(), dy.data()),
                ];
                // Serially, and on three lanes: units split mid-channel.
                for lanes in [1, 3] {
                    let got = install(&ComputePool::new(lanes), || {
                        [
                            conv2d(&x, &wt, case.spec).unwrap(),
                            conv2d_grad_input(&dy, &wt, case.spec, (h, w)).unwrap(),
                            conv2d_grad_weight(&x, &dy, case.spec).unwrap(),
                        ]
                    });
                    for (kernel, (got, want)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            bits(got.data()),
                            bits(want),
                            "kernel {kernel}, {h}x{w}, k {k}, s {s}, p {p}, {lanes} lanes"
                        );
                    }
                }
            }
        }
    }
}

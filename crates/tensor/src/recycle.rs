//! The run-scoped buffer recycler behind [`Tensor`](crate::Tensor) storage.
//!
//! A training step frees and re-allocates the same few activation-sized
//! buffers; left to the allocator, each round trip is a trim and a fresh
//! set of page faults. Every [`ComputePool`] owns a [`Recycler`]: while the
//! pool is installed on a thread, an activation-sized [`Buf`] allocated
//! there hands its `Vec` back to that recycler when it drops — on whatever
//! thread its last handle does — and the next request for that size under
//! the pool takes it instead of calling the allocator. Both executors make
//! one pool per device thread per run and drop it once that thread is gone,
//! so the idle buffers live and die with the run.
//!
//! Only a buffer a recycler issued knows a home: a foreign `Vec`
//! ([`Buf::foreign`]) is never adopted, so nothing feeds an idle list that
//! does not also draw from it. The home is weak: a buffer that outlives its
//! run (a parameter in an outcome) must not keep the run's idle list alive,
//! and is simply freed.
//!
//! [`ComputePool`]: crate::parallel::ComputePool

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, Weak};

use crate::parallel;

/// Requests shorter than this (64 KiB of `f32`) go straight to the
/// allocator. It is also glibc's consolidation threshold: only a free of at
/// least this size coalesces a heap and trims its top, so every buffer let
/// go of when a run ends hands its pages back (with a 4 KiB floor
/// `split_nas` `peak_rss_mb` read 26.1 against 24.1, throughput the same).
const FLOOR: usize = 16 * 1024;

/// Room for this many idle buffers is reserved when the recycler is made, by
/// the thread that outlives the run: a list growing in the middle of a step
/// would be one more small allocation on top of a device thread's
/// activations, pinning its heap. A step keeps a few dozen in flight.
const IDLE_SLOTS: usize = 128;

/// What a pool's buffer recycler has done so far
/// ([`ComputePool::recycle_stats`](crate::parallel::ComputePool::recycle_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecycleStats {
    /// Buffers served from the idle list.
    pub reused: u64,
    /// Buffers that had to come from the allocator.
    pub fresh: u64,
    /// The most bytes the idle list held at once.
    pub idle_peak_bytes: u64,
}

/// The idle buffers, in the order they came home, and the counters.
#[derive(Debug)]
pub(crate) struct Recycler(Mutex<(Vec<Vec<f32>>, RecycleStats)>);

impl Default for Recycler {
    fn default() -> Self {
        Recycler(Mutex::new((
            Vec::with_capacity(IDLE_SLOTS),
            RecycleStats::default(),
        )))
    }
}

impl Recycler {
    pub(crate) fn stats(&self) -> RecycleStats {
        self.0.lock().expect("no recycler holder panics").1
    }

    /// The last buffer of exactly capacity `len` to come home, if there is
    /// one; counts the request either way.
    fn reissue(&self, len: usize) -> Option<Vec<f32>> {
        let mut guard = self.0.lock().expect("no recycler holder panics");
        let (idle, stats) = &mut *guard;
        let at = idle.iter().rposition(|b| b.capacity() == len);
        match at {
            Some(_) => stats.reused += 1,
            None => stats.fresh += 1,
        }
        at.map(|at| idle.remove(at))
    }

    /// Takes a buffer back as it is: its length and old contents stay, and
    /// only [`Buf::overwritten`] reads the length (every other constructor
    /// empties it first). Called from `Drop`, possibly during an unwind, so
    /// a poisoned lock just lets the buffer go.
    fn give(&self, data: Vec<f32>) {
        let Ok(mut guard) = self.0.lock() else {
            return;
        };
        let (idle, stats) = &mut *guard;
        idle.push(data);
        let bytes = idle.iter().map(|b| 4 * b.capacity() as u64).sum();
        stats.idle_peak_bytes = stats.idle_peak_bytes.max(bytes);
    }
}

/// A tensor's storage: the elements, and the recycler to return them to.
pub(crate) struct Buf {
    data: Vec<f32>,
    home: Option<Weak<Recycler>>,
}

/// What this thread's installed pool says to a request for `len` elements:
/// the home the buffer will return to, and an idle buffer if it has one.
/// No home (allocate, and free on drop) below the floor or with no pool.
fn request(len: usize) -> (Option<Weak<Recycler>>, Option<Vec<f32>>) {
    if len < FLOOR {
        return (None, None);
    }
    parallel::with_recycler(|r| (Some(Arc::downgrade(r)), r.reissue(len))).unwrap_or_default()
}

impl Buf {
    /// Storage for `len` elements, written by `fill` into an empty `Vec`
    /// with room for them: a reissued buffer's old contents are unreachable.
    /// Inlined so that what `fill` captured by reference (a `zip` caller's
    /// scale factor) is known not to alias the stores, as with a fresh
    /// allocation; out of line `mse_loss` reloaded it per element, 0.45 →
    /// 0.70 ms at 2 MiB.
    #[inline(always)]
    pub(crate) fn build(len: usize, fill: impl FnOnce(&mut Vec<f32>)) -> Buf {
        let (home, idle) = request(len);
        let mut data = match idle {
            Some(mut data) => {
                data.clear();
                data
            }
            None => Vec::with_capacity(len),
        };
        fill(&mut data);
        debug_assert_eq!(data.len(), len, "the builder fills its buffer");
        Buf { data, home }
    }

    /// Storage for `len` copies of `value`. A fresh buffer is `vec!`'s —
    /// for zeros the allocator's untouched pages, as without a recycler.
    pub(crate) fn filled(len: usize, value: f32) -> Buf {
        let (home, idle) = request(len);
        let data = match idle {
            Some(mut data) => {
                data.clear();
                data.resize(len, value);
                data
            }
            None => vec![value; len],
        };
        Buf { data, home }
    }

    /// Storage for `len` elements, every one of which `write` overwrites:
    /// what a reissued buffer held before is left in place for it, so the
    /// buffer is not zeroed first. A fresh one is `vec!`'s untouched pages.
    /// Inlined for the reason [`Buf::build`] is.
    #[inline(always)]
    pub(crate) fn overwritten(len: usize, write: impl FnOnce(&mut [f32])) -> Buf {
        let (home, idle) = request(len);
        let mut data = match idle {
            // Came home at its full length; `resize` only guards the rule.
            Some(mut data) => {
                data.resize(len, 0.0);
                data
            }
            None => vec![0.0; len],
        };
        write(&mut data);
        Buf { data, home }
    }

    /// Storage that was allocated elsewhere: freed, never recycled.
    pub(crate) fn foreign(data: Vec<f32>) -> Buf {
        Buf { data, home: None }
    }

    /// Moves the elements out; the `Vec` does not return to a recycler.
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        self.home = None;
        std::mem::take(&mut self.data)
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        if let Some(home) = self.home.take().and_then(|home| home.upgrade()) {
            home.give(std::mem::take(&mut self.data));
        }
    }
}

/// What `Arc::make_mut` calls on a shared tensor: the private copy is a
/// recycler issue like any other activation-sized buffer.
impl Clone for Buf {
    fn clone(&self) -> Self {
        Buf::build(self.len(), |v| v.extend_from_slice(self))
    }
}

impl Deref for Buf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl DerefMut for Buf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;

    use super::*;
    use crate::parallel::{install, with_recycler, ComputePool};
    use crate::{
        conv2d, conv2d_fused, conv2d_grad_epilogue, conv2d_grad_input, Activation, Conv2dSpec,
        Epilogue, Rng64, Tensor,
    };

    /// Activation-sized: four times the floor.
    const DIMS: [usize; 2] = [64, 1024];
    const LEN: usize = 64 * 1024;

    fn idle_here() -> usize {
        with_recycler(|r| r.0.lock().unwrap().0.len()).expect("a pool is installed")
    }

    /// Overwrites every idle buffer with `value`, at its full capacity.
    fn poison_idle(value: f32) {
        with_recycler(|r| {
            for data in &mut r.0.lock().unwrap().0 {
                data.resize(data.capacity(), value);
                data.fill(value);
            }
        });
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn kernels_writing_unfilled_buffers_leave_no_stale_bit() {
        // Every kernel whose output is not zeroed first, handed a reissued
        // buffer full of NaN: each lowering's forward with and without an
        // epilogue and its grad-input, the epilogue's backward pass and
        // `zip_sum`. An element a kernel does not write shows as a NaN
        // where the same call into a fresh (zeroed) buffer has a number.
        let mut rng = Rng64::seed_from_u64(26);
        let grouped = Conv2dSpec {
            groups: 2,
            ..Conv2dSpec::dense(8, 8, 3, 1, 1)
        };
        // 33 x 20 planes leave every tile and lane step ragged; the
        // strided case reads twice the extent.
        let lowerings = [
            ("dense direct", Conv2dSpec::dense(8, 8, 3, 1, 1), (33, 20)),
            ("pointwise", Conv2dSpec::dense(8, 8, 1, 1, 0), (33, 20)),
            (
                "depthwise stencil",
                Conv2dSpec::depthwise(8, 3, 1, 1),
                (33, 20),
            ),
            ("strided gemm", Conv2dSpec::dense(8, 8, 3, 2, 1), (66, 40)),
            ("grouped gemm", grouped, (33, 20)),
        ];
        let bias = Tensor::randn(&[8], &mut rng);
        let epilogue = Epilogue {
            bias: Some(bias.data()),
            activation: Activation::Relu6,
        };
        let pool = ComputePool::new(1);
        for (name, spec, (h, w)) in lowerings {
            let x = Tensor::randn(&[4, 8, h, w], &mut rng);
            let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
            let y = conv2d(&x, &wt, spec).unwrap();
            assert!(y.numel() >= FLOOR, "{name}: too small to be recycled");
            let dy = Tensor::randn(y.dims(), &mut rng);
            let kernels: [(&str, &dyn Fn() -> Tensor); 5] = [
                ("forward", &|| conv2d(&x, &wt, spec).unwrap()),
                ("fused forward", &|| {
                    conv2d_fused(&x, &wt, spec, epilogue).unwrap()
                }),
                ("grad input", &|| {
                    conv2d_grad_input(&dy, &wt, spec, (h, w)).unwrap()
                }),
                ("gate", &|| {
                    conv2d_grad_epilogue(&dy, &y, Activation::Relu).unwrap().0
                }),
                ("zip_sum", &|| {
                    y.zip_sum(&dy, |a, b| a * b, |a, _| a).unwrap().0
                }),
            ];
            for (kernel, run) in kernels {
                let want = run();
                install(&pool, || {
                    drop(Tensor::zeros(want.dims()));
                    poison_idle(f32::NAN);
                    let reused = pool.recycle_stats().reused;
                    let got = run();
                    assert_eq!(
                        pool.recycle_stats().reused,
                        reused + 1,
                        "{name} {kernel}: wrote a poisoned buffer"
                    );
                    let stale = bits(&got)
                        .iter()
                        .zip(bits(&want))
                        .filter(|&(&g, w)| g != w)
                        .count();
                    assert_eq!(stale, 0, "{name} {kernel}: elements that differ");
                });
            }
        }
    }

    #[test]
    fn recycled_buffers_never_show_stale_contents() {
        let pool = ComputePool::new(1);
        install(&pool, || {
            let ones = Tensor::ones(&DIMS);
            for round in 0..2 {
                let made = [
                    Tensor::zeros(&DIMS),
                    Tensor::full(&DIMS, 2.5),
                    ones.map(|v| v + 1.0),
                    ones.zip(&ones, |a, b| a + b).unwrap(),
                ];
                assert!(made[0].data().iter().all(|&v| v == 0.0), "round {round}");
                assert!(made[1].data().iter().all(|&v| v == 2.5), "round {round}");
                assert!(made[2].data().iter().all(|&v| v == 2.0), "round {round}");
                assert!(made[3].data().iter().all(|&v| v == 2.0), "round {round}");
                drop(made);
                assert_eq!(idle_here(), 4);
                poison_idle(f32::NAN);
            }
        });
        let stats = pool.recycle_stats();
        assert_eq!(
            (stats.fresh, stats.reused),
            (5, 4),
            "round 1 reuses round 0"
        );
        // `ones` is the fifth to come home, as `install` returns.
        assert_eq!(stats.idle_peak_bytes, 5 * 4 * LEN as u64);
    }

    #[test]
    fn small_and_unscoped_requests_go_to_the_allocator() {
        let pool = ComputePool::new(1);
        install(&pool, || drop(Tensor::zeros(&[FLOOR - 1])));
        drop(Tensor::zeros(&DIMS));
        assert_eq!(pool.recycle_stats(), RecycleStats::default());
    }

    #[test]
    fn a_foreign_vec_is_never_adopted() {
        let pool = ComputePool::new(1);
        install(&pool, || {
            drop(Tensor::from_vec(vec![1.0; LEN], &DIMS).unwrap());
            assert_eq!(idle_here(), 0);
            // Nor is a buffer another pool issued, even on this thread.
            let inner = install(&ComputePool::new(1), || Tensor::zeros(&DIMS));
            drop(inner);
            assert_eq!(idle_here(), 0);
        });
        assert_eq!(pool.recycle_stats(), RecycleStats::default());
    }

    #[test]
    fn buffers_come_home_across_threads() {
        // A issues; B (with a pool of its own) drops; A gets it back, B
        // never does. Every hand-over is a channel message.
        let (to_b, from_a) = channel::<Buf>();
        let (to_a, from_b) = channel::<()>();
        let (pool_a, pool_b) = (ComputePool::new(1), ComputePool::new(1));
        std::thread::scope(|s| {
            let pool_b = &pool_b;
            s.spawn(move || {
                install(pool_b, || {
                    drop(from_a.recv().unwrap());
                    assert_eq!(idle_here(), 0, "B adopted A's buffer");
                    drop(Buf::filled(LEN, 0.0));
                    to_a.send(()).unwrap();
                });
            });
            install(&pool_a, || {
                let buf = Buf::filled(LEN, 1.0);
                let ptr = buf.as_ptr();
                to_b.send(buf).unwrap();
                from_b.recv().unwrap();
                assert_eq!(idle_here(), 1);
                assert_eq!(Buf::filled(LEN, 0.0).as_ptr(), ptr, "reissued on A");
            });
        });
        let (a, b) = (pool_a.recycle_stats(), pool_b.recycle_stats());
        assert_eq!((a.fresh, a.reused), (1, 1));
        assert_eq!((b.fresh, b.reused), (1, 0), "B allocated its own");
    }

    #[test]
    fn a_buffer_outliving_its_pool_is_freed() {
        let (to_b, from_a) = channel::<Buf>();
        let (to_a, from_b) = channel::<usize>();
        std::thread::scope(|s| {
            s.spawn(move || {
                let buf = from_a.recv().unwrap();
                // A's pool was alive when this was sent…
                let home = buf.home.clone().expect("issued by A's recycler");
                to_a.send(home.strong_count()).unwrap();
                // …and is gone once A hangs up, although this handle remains.
                assert!(from_a.recv().is_err());
                assert_eq!(home.strong_count(), 0, "a buffer kept its home alive");
                drop(buf);
            });
            install(&ComputePool::new(1), || {
                to_b.send(Buf::filled(LEN, 1.0)).unwrap();
                assert!(from_b.recv().unwrap() >= 1);
            });
            drop(to_b);
        });
    }

    #[test]
    fn make_mut_copies_into_a_recycled_buffer_and_into_vec_detaches() {
        let pool = ComputePool::new(1);
        install(&pool, || {
            let spare = Tensor::zeros(&DIMS);
            let spare_ptr = spare.data().as_ptr();
            drop(spare);

            let a = Tensor::full(&DIMS, 3.0); // takes `spare`'s buffer
            assert_eq!(a.data().as_ptr(), spare_ptr);
            drop(Tensor::zeros(&DIMS)); // leaves one idle
            let idle_ptr = with_recycler(|r| r.0.lock().unwrap().0[0].as_ptr()).unwrap();

            let mut b = a.clone();
            b.data_mut()[0] = 7.0;
            assert_eq!(b.data().as_ptr(), idle_ptr, "the copy is a recycler issue");
            assert_eq!(idle_here(), 0);
            assert!(a.data().iter().all(|&v| v == 3.0), "the other handle moved");
            assert_eq!((b.data()[0], b.data()[1]), (7.0, 3.0));

            // A unique handle's `into_vec` moves, and the `Vec` is free.
            let b_ptr = b.data().as_ptr();
            let v = b.into_vec();
            assert_eq!(v.as_ptr(), b_ptr);
            drop(v);
            assert_eq!(idle_here(), 0, "a detached Vec came back");
            // A shared handle's copies; the buffer goes home with `a`.
            let copy = a.clone().into_vec();
            assert_ne!(copy.as_ptr(), a.data().as_ptr());
            drop((copy, a));
            assert_eq!(idle_here(), 1);
        });
    }
}

//! CI guard for the compute plane: quick naive-vs-blocked kernel
//! comparison that **fails** (exit 1) if the blocked path regresses below
//! the naive oracle.
//!
//! This is deliberately a pass/fail binary rather than a criterion bench:
//! the bench shim only prints numbers, and CI needs a hard signal when a
//! codegen or blocking change silently destroys the compute-plane win.
//! Thresholds are conservative (blocked must merely *beat* naive, not hit
//! the EXPERIMENTS.md speedups) so noisy shared runners do not flake.
//!
//! Run with: `cargo run --release -p pipebd_bench --bin kernel_smoke`

use std::time::Instant;

use pipebd_artifact::{BenchKernels, KernelComparison, ScalingCurve, ScalingPoint};
use pipebd_tensor::parallel::{default_pool_size, install, ComputePool};
use pipebd_tensor::{
    conv2d_grad_input_with, conv2d_grad_weight_with, conv2d_with, Conv2dSpec, KernelPolicy, Rng64,
    Tensor,
};

/// Pool widths the thread-scaling curves sample (1 = pinned serial).
const SCALING_POOLS: [usize; 3] = [1, 2, 4];

/// Best-of-N mean time per call, in seconds.
fn time(mut f: impl FnMut(), calls: usize, rounds: usize) -> f64 {
    f(); // warm up (first blocked call grows the thread-local scratch)
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / calls as f64);
    }
    best
}

fn main() {
    pipebd_bench::header(
        "Kernel smoke — blocked compute plane vs naive oracle",
        "quick mode: best-of-3 x 5 calls per kernel; fails if blocked is slower",
    );

    let mut rng = Rng64::seed_from_u64(0);
    let x = Tensor::randn(&[4, 8, 16, 16], &mut rng);
    let w = Tensor::randn(&[8, 8, 3, 3], &mut rng);
    let dy = Tensor::randn(&[4, 8, 16, 16], &mut rng);
    let spec = Conv2dSpec::dense(8, 8, 3, 1, 1);
    let a = Tensor::randn(&[128, 128], &mut rng);
    let b = Tensor::randn(&[128, 128], &mut rng);
    // The DS-Conv student's hot loop: 128 planes of 32x32, 9 taps each.
    let dwx = Tensor::randn(&[8, 16, 32, 32], &mut rng);
    let dww = Tensor::randn(&[16, 1, 3, 3], &mut rng);
    let dwdy = Tensor::randn(&[8, 16, 32, 32], &mut rng);
    let dwspec = Conv2dSpec::depthwise(16, 3, 1, 1);

    let cases: Vec<(&str, Box<dyn Fn(KernelPolicy)>)> = vec![
        (
            "conv2d_8x16x16",
            Box::new(|p| {
                std::hint::black_box(conv2d_with(&x, &w, spec, p).expect("conv2d"));
            }),
        ),
        (
            "conv2d_grad_input_8x16x16",
            Box::new(|p| {
                std::hint::black_box(
                    conv2d_grad_input_with(&dy, &w, spec, (16, 16), p).expect("grad input"),
                );
            }),
        ),
        (
            "conv2d_grad_weight_8x16x16",
            Box::new(|p| {
                std::hint::black_box(conv2d_grad_weight_with(&x, &dy, spec, p).expect("grad w"));
            }),
        ),
        (
            "dwconv2d_16x32x32",
            Box::new(|p| {
                std::hint::black_box(conv2d_with(&dwx, &dww, dwspec, p).expect("dwconv2d"));
            }),
        ),
        (
            "dwconv2d_grad_input_16x32x32",
            Box::new(|p| {
                std::hint::black_box(
                    conv2d_grad_input_with(&dwdy, &dww, dwspec, (32, 32), p).expect("dw grad in"),
                );
            }),
        ),
        (
            "dwconv2d_grad_weight_16x32x32",
            Box::new(|p| {
                std::hint::black_box(
                    conv2d_grad_weight_with(&dwx, &dwdy, dwspec, p).expect("dw grad w"),
                );
            }),
        ),
        (
            "matmul_128",
            Box::new(|p| {
                std::hint::black_box(a.matmul_with(&b, p).expect("matmul"));
            }),
        ),
    ];

    let mut failed = false;
    let mut comparisons = Vec::new();
    for (name, run) in &cases {
        let naive = time(|| run(KernelPolicy::Naive), 5, 3);
        let blocked = time(|| run(KernelPolicy::Blocked), 5, 3);
        let speedup = naive / blocked;
        let verdict = if speedup >= 1.0 { "ok" } else { "REGRESSION" };
        println!(
            "{name:<30} naive {:>9.1} us   blocked {:>9.1} us   {speedup:>5.2}x  {verdict}",
            naive * 1e6,
            blocked * 1e6,
        );
        comparisons.push(KernelComparison {
            kernel: (*name).to_string(),
            naive_ns: (naive * 1e9) as u64,
            blocked_ns: (blocked * 1e9) as u64,
            speedup,
        });
        if speedup < 1.0 {
            failed = true;
        }
    }

    // Thread-scaling curves: the blocked path timed under installed pools
    // of 1/2/4 lanes. No pass/fail here — on a 1-vCPU runner the curve is
    // legitimately flat (it records pool overhead, not speedup) — but the
    // regression gate holds the curve against the committed baseline when
    // the pool-aware fingerprint matches.
    let scaling_cases: &[(&str, &dyn Fn())] = &[
        ("matmul_128", &|| {
            std::hint::black_box(a.matmul_with(&b, KernelPolicy::Blocked).expect("matmul"));
        }),
        ("conv2d_8x16x16", &|| {
            std::hint::black_box(conv2d_with(&x, &w, spec, KernelPolicy::Blocked).expect("conv2d"));
        }),
    ];
    let mut scaling = Vec::new();
    for (name, run) in scaling_cases {
        let mut points = Vec::new();
        let mut line = format!("{name:<30} scaling ");
        for &width in &SCALING_POOLS {
            let pool = ComputePool::new(width);
            let secs = install(&pool, || time(run, 5, 3));
            line.push_str(&format!(" p{width} {:>8.1} us", secs * 1e6));
            points.push(ScalingPoint {
                pool: width,
                mean_ns: (secs * 1e9) as u64,
            });
        }
        println!("{line}");
        scaling.push(ScalingCurve {
            kernel: (*name).to_string(),
            points,
        });
    }

    // The baseline is written even on regression, so a failing run still
    // leaves the measured numbers behind for diagnosis.
    pipebd_bench::persist(
        "BENCH_kernels",
        &BenchKernels {
            kernel_policy: pipebd_tensor::kernel_policy().to_string(),
            fingerprint: pipebd_artifact::pooled_fingerprint(default_pool_size()),
            cases: comparisons,
            scaling,
        },
    );

    if failed {
        eprintln!("kernel smoke FAILED: blocked kernel slower than the naive oracle");
        std::process::exit(1);
    }
    println!("kernel smoke passed: blocked >= naive on every kernel");
}

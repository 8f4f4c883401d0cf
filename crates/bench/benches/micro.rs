//! Microbenches of the substrates: tensor kernels, the event engine, plan
//! enumeration, the profiler, and the executor relay data plane.
//!
//! Instead of `criterion_main!`, this bench drives the shim's `Criterion`
//! explicitly so it can persist every measurement as the `BENCH_e2e.json`
//! baseline through the artifact store (a shim extension; swap back to
//! `criterion_group!`/`criterion_main!` when the real criterion lands).

use criterion::Criterion;
use pipebd_core::exec::{threaded, FuncConfig};
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig, Workload};
use pipebd_nn::{Block, BlockNet, Layer, Relu, Sequential};
use pipebd_sched::{enumerate_hybrid_plans, CostModel, Profiler, StagePlan};
use pipebd_sim::{simulate, GpuModel, Resource, SimTime, TaskGraph, TaskKind};
use pipebd_tensor::{
    conv2d, conv2d_grad_input_with, conv2d_grad_weight_with, conv2d_with, Conv2dSpec, KernelPolicy,
    Rng64, SharedTensor, Tensor,
};
use std::hint::black_box;

fn bench_tensor(c: &mut Criterion) {
    let mut rng = Rng64::seed_from_u64(0);
    let a = Tensor::randn(&[64, 64], &mut rng);
    let b = Tensor::randn(&[64, 64], &mut rng);
    c.bench_function("tensor/matmul_64", |bench| {
        bench.iter(|| black_box(a.matmul(&b).expect("shapes match")))
    });

    let x = Tensor::randn(&[4, 8, 16, 16], &mut rng);
    let w = Tensor::randn(&[8, 8, 3, 3], &mut rng);
    let spec = Conv2dSpec::dense(8, 8, 3, 1, 1);
    c.bench_function("tensor/conv2d_8x16x16", |bench| {
        bench.iter(|| black_box(conv2d(&x, &w, spec).expect("shapes match")))
    });
}

/// Naive-vs-blocked A/B pairs for every hot kernel: the compute-plane
/// speedups recorded in `EXPERIMENTS.md`. Explicit `*_with` variants keep
/// the comparison independent of the process-global policy.
fn bench_kernel_policies(c: &mut Criterion) {
    let mut rng = Rng64::seed_from_u64(1);

    let a = Tensor::randn(&[256, 256], &mut rng);
    let b = Tensor::randn(&[256, 256], &mut rng);
    for policy in [KernelPolicy::Naive, KernelPolicy::Blocked] {
        c.bench_function(format!("tensor/matmul_256_{policy}"), |bench| {
            bench.iter(|| black_box(a.matmul_with(&b, policy).expect("shapes match")))
        });
    }

    let x = Tensor::randn(&[4, 8, 16, 16], &mut rng);
    let w = Tensor::randn(&[8, 8, 3, 3], &mut rng);
    let spec = Conv2dSpec::dense(8, 8, 3, 1, 1);
    let dy = Tensor::randn(&[4, 8, 16, 16], &mut rng);
    for policy in [KernelPolicy::Naive, KernelPolicy::Blocked] {
        c.bench_function(format!("tensor/conv2d_8x16x16_{policy}"), |bench| {
            bench.iter(|| black_box(conv2d_with(&x, &w, spec, policy).expect("shapes match")))
        });
        c.bench_function(
            format!("tensor/conv2d_grad_input_8x16x16_{policy}"),
            |bench| {
                bench.iter(|| {
                    black_box(
                        conv2d_grad_input_with(&dy, &w, spec, (16, 16), policy)
                            .expect("shapes match"),
                    )
                })
            },
        );
        c.bench_function(
            format!("tensor/conv2d_grad_weight_8x16x16_{policy}"),
            |bench| {
                bench.iter(|| {
                    black_box(conv2d_grad_weight_with(&x, &dy, spec, policy).expect("shapes match"))
                })
            },
        );
    }

    // The DS-Conv student's hot loop: depthwise 3x3 over 128 planes of
    // 32x32. Blocked here is the direct stencil, not im2col + GEMM.
    let x = Tensor::randn(&[8, 16, 32, 32], &mut rng);
    let w = Tensor::randn(&[16, 1, 3, 3], &mut rng);
    let spec = Conv2dSpec::depthwise(16, 3, 1, 1);
    let dy = Tensor::randn(&[8, 16, 32, 32], &mut rng);
    for policy in [KernelPolicy::Naive, KernelPolicy::Blocked] {
        c.bench_function(format!("tensor/dwconv2d_16x32x32_{policy}"), |bench| {
            bench.iter(|| black_box(conv2d_with(&x, &w, spec, policy).expect("shapes match")))
        });
        c.bench_function(
            format!("tensor/dwconv2d_grad_input_16x32x32_{policy}"),
            |bench| {
                bench.iter(|| {
                    black_box(
                        conv2d_grad_input_with(&dy, &w, spec, (32, 32), policy)
                            .expect("shapes match"),
                    )
                })
            },
        );
        c.bench_function(
            format!("tensor/dwconv2d_grad_weight_16x32x32_{policy}"),
            |bench| {
                bench.iter(|| {
                    black_box(conv2d_grad_weight_with(&x, &dy, spec, policy).expect("shapes match"))
                })
            },
        );
    }
}

fn bench_engine(c: &mut Criterion) {
    // A 4-device pipeline of 1000 rounds (≈12k tasks).
    let mut g = TaskGraph::new(4);
    for round in 0..1000u32 {
        let mut prev = None;
        for d in 0..4 {
            let deps = prev.into_iter().collect();
            let t = g.add_tagged(
                Resource::Gpu(d),
                TaskKind::Teacher,
                SimTime::from_us(10.0),
                deps,
                Some(d as u16),
                round,
            );
            let send = g.add_tagged(
                Resource::Copy(d),
                TaskKind::Comm,
                SimTime::from_us(1.0),
                vec![t],
                Some(d as u16),
                round,
            );
            g.add_tagged(
                Resource::Gpu(d),
                TaskKind::Student,
                SimTime::from_us(30.0),
                vec![t],
                Some(d as u16),
                round,
            );
            prev = Some(send);
        }
    }
    c.bench_function("engine/simulate_12k_tasks", |bench| {
        bench.iter(|| black_box(simulate(&g)))
    });
}

fn bench_sched(c: &mut Criterion) {
    c.bench_function("sched/enumerate_13x4", |bench| {
        bench.iter(|| black_box(enumerate_hybrid_plans(13, 4)))
    });
    let w = Workload::nas_imagenet();
    let profiler = Profiler::new(CostModel::new(GpuModel::a6000()));
    c.bench_function("sched/profile_nas_imagenet", |bench| {
        bench.iter(|| black_box(profiler.profile(&w.model, 256, 4)))
    });
}

/// A BlockNet whose blocks are single ReLUs: activation shapes stay large
/// while per-block compute is one elementwise pass, so the relay data plane
/// (channel sends, boundary caching, batch reassembly) dominates the run.
fn relu_relay_net(blocks: usize) -> BlockNet {
    (0..blocks)
        .map(|i| {
            let layers: Vec<Box<dyn Layer>> = vec![Box::new(Relu::new())];
            Block::new(format!("r{i}"), Sequential::new(layers))
        })
        .collect()
}

fn bench_relay(c: &mut Criterion) {
    // Isolated relay hop for a ~1 MiB activation: the pre-refactor
    // mechanism (deep-clone the tensor into the channel) against the
    // zero-copy data plane (send a `SharedTensor` handle).
    let mut rng = Rng64::seed_from_u64(1);
    let act = Tensor::randn(&[16, 16, 32, 32], &mut rng);
    c.bench_function("relay/hop_deepcopy_1mb", |bench| {
        let (tx, rx) = std::sync::mpsc::channel();
        bench.iter(|| {
            tx.send(act.clone()).expect("send");
            black_box(rx.recv().expect("recv"))
        })
    });
    c.bench_function("relay/hop_shared_1mb", |bench| {
        let shared = SharedTensor::new(act.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        bench.iter(|| {
            tx.send(shared.clone()).expect("send");
            black_box(rx.recv().expect("recv"))
        })
    });

    // The micro relay bench: a 4-stage threaded pipeline of ReLU-only
    // blocks over 32x32 inputs. Compute is negligible, so this measures
    // the executor's per-hop relay cost (the tentpole's regression anchor).
    let net = relu_relay_net(4);
    let data = SyntheticImageDataset::mini(512, 32, 4, 5);
    let func = FuncConfig {
        devices: 4,
        steps: 8,
        batch: 32,
        decoupled_updates: true,
        ..FuncConfig::default()
    };
    c.bench_function("relay/pipeline_relu_4dev_8steps", |bench| {
        bench.iter(|| black_box(threaded::run(&net, &net, &data, &func).expect("relay pipeline")))
    });
}

fn bench_exec(c: &mut Criterion) {
    // End-to-end threaded executor on the real mini models: convolution
    // compute plus relay, the workload the figure benches scale up.
    let cfg = MiniConfig {
        blocks: 4,
        channels: 8,
        batch_norm: false,
    };
    let mut rng = Rng64::seed_from_u64(7);
    let teacher = mini_teacher(cfg, &mut rng);
    let student = mini_student_dsconv(cfg, &mut rng);
    let data = SyntheticImageDataset::mini(256, 16, 4, 5);
    let func = FuncConfig {
        devices: 4,
        steps: 6,
        batch: 16,
        decoupled_updates: true,
        ..FuncConfig::default()
    };
    c.bench_function("exec/threaded_mini_4dev_6steps", |bench| {
        bench.iter(|| {
            black_box(threaded::run(&teacher, &student, &data, &func).expect("threaded runs"))
        })
    });

    // Hybrid plan with widened stages: additionally exercises the
    // gradient gather/broadcast path (AHD batch splitting).
    let plan = StagePlan::from_widths(&[(1, 2), (3, 2)], 4, 4).expect("valid plan");
    let func_wide = FuncConfig {
        devices: 4,
        steps: 6,
        batch: 16,
        plan: Some(plan),
        decoupled_updates: true,
        ..FuncConfig::default()
    };
    c.bench_function("exec/threaded_hybrid_2x2_6steps", |bench| {
        bench.iter(|| {
            black_box(threaded::run(&teacher, &student, &data, &func_wide).expect("hybrid runs"))
        })
    });

    // The thread-scaling sweep: the same mini pipeline under explicit
    // kernel-parallelism budgets. On a 1-vCPU runner the three ids tie
    // (the pool handshake divides a budget of 1); on multi-core hosts the
    // curve slopes down, and the regression gate holds it against the
    // committed baseline when the pool-aware fingerprint matches.
    for pool in [1usize, 2, 4] {
        let func_pooled = FuncConfig {
            devices: 4,
            steps: 6,
            batch: 16,
            decoupled_updates: true,
            pool_size: Some(pool),
            ..FuncConfig::default()
        };
        c.bench_function(format!("exec/threaded_mini_4dev_6steps_p{pool}"), |bench| {
            bench.iter(|| {
                black_box(
                    threaded::run(&teacher, &student, &data, &func_pooled).expect("pooled runs"),
                )
            })
        });
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_tensor(&mut criterion);
    bench_kernel_policies(&mut criterion);
    bench_engine(&mut criterion);
    bench_sched(&mut criterion);
    bench_relay(&mut criterion);
    bench_exec(&mut criterion);

    // Persist the run as the end-to-end bench baseline.
    let records: Vec<pipebd_artifact::BenchRecord> = criterion
        .results()
        .iter()
        .map(|r| pipebd_artifact::BenchRecord {
            id: r.id.clone(),
            mean_ns: r.mean_ns,
            iters: r.iters,
        })
        .collect();
    pipebd_bench::persist(
        "BENCH_e2e",
        &pipebd_artifact::BenchSuite {
            suite: "micro".into(),
            kernel_policy: pipebd_tensor::kernel_policy().to_string(),
            fingerprint: pipebd_artifact::pooled_fingerprint(
                pipebd_tensor::parallel::default_pool_size(),
            ),
            records,
        },
    );
}

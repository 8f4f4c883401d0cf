//! The traced run: per-layer metrics, measured from outside.
//!
//! `exec.*` comes from traced executor reps (the repo's own span hook);
//! every other layer is timed by calling its public functions directly at
//! the shapes the workload uses, each call inside a benchmark-side span.
//! Layers a workload does not exercise are probed at reference inputs —
//! `sched`/`sim` at the paper's NAS/ImageNet workload for the training
//! workloads, the tensor side at `tr_compress`'s shapes for `plan_sweep` —
//! so the result line carries every per-layer metric on every workload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use pipebd_core::checkpoint::capture_block;
use pipebd_core::exec::{ExecError, FuncOutcome};
use pipebd_core::lower::fault::lower_faulted;
use pipebd_core::lower::{lower, Lowering};
use pipebd_core::{Checkpoint, CheckpointSink, ExperimentBuilder, Strategy};
use pipebd_nn::{mse_loss, zero_grad, Layer, Mode, Sgd};
use pipebd_sched::replan::replan;
use pipebd_sched::{
    ahd, enumerate_hybrid_plans, estimate_period, CostModel, DegradedServer, Profiler,
};
use pipebd_sim::{simulate, simulate_faulted, HardwareConfig};
use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, Conv2dSpec, KernelPolicy, Rng64, SharedTensor,
    Tensor,
};
use pipebd_trace::{SpanKind, TraceCollector, TraceMode, TraceReport};

use crate::exec_trace::{aggregate, control_event_ms, SHARE_KINDS};
use crate::plan;
use crate::record::Tally;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::train::{self, Inputs, RunKind, RunOutput, Scratch, TrainSpec};

/// Batches of nanosecond-scale calls are sized to about this long, so a
/// batch's span costs nothing beside it and the span log stays small.
const BATCH_NS: u128 = 2_000_000;

/// Times calls into a layer. Every probe is one parent span named after
/// its metric, with one child span per timed batch or call.
struct Prober<'a> {
    log: &'a mut SpanLog,
    /// Wall-clock each probe may spend.
    slice: Duration,
    min_samples: usize,
    /// Probes run so far; must end at `PROBES`, which sized the slices.
    probes: u32,
}

/// Handed to an [`Prober::each`] body to mark the part that is timed.
struct Stopwatch<'a> {
    log: &'a mut SpanLog,
    ns: u64,
}

impl Stopwatch<'_> {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.log.timed("call", 1, |_| f());
        self.ns += ns;
        out
    }
}

impl Prober<'_> {
    /// Median nanoseconds per call of `f`, timing back-to-back batches.
    fn many(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        self.probes += 1;
        let (slice, min_samples) = (self.slice, self.min_samples);
        let (samples, _) = self.log.timed(name, 0, |log| {
            let t = Instant::now();
            f();
            let calls = (BATCH_NS / t.elapsed().as_nanos().max(1)).clamp(1, 1 << 20) as u64;
            let started = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < min_samples || started.elapsed() < slice {
                let ((), ns) = log.timed("batch", calls, |_| {
                    for _ in 0..calls {
                        f();
                    }
                });
                samples.push(ns as f64 / calls as f64);
            }
            samples
        });
        median(&samples)
    }

    /// Median nanoseconds of the part of `body` it hands to the stopwatch;
    /// the rest of the body (re-creating state the timed part consumes) is
    /// untimed.
    fn each(&mut self, name: &str, mut body: impl FnMut(&mut Stopwatch<'_>)) -> f64 {
        self.probes += 1;
        let (slice, min_samples) = (self.slice, self.min_samples);
        let (samples, _) = self.log.timed(name, 0, |log| {
            let started = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < min_samples || started.elapsed() < slice {
                let mut watch = Stopwatch { log, ns: 0 };
                body(&mut watch);
                samples.push(watch.ns as f64);
            }
            samples
        });
        median(&samples)
    }
}

/// What one traced run produced.
pub struct PerLayer {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// The traced subject rep's raw report, for the Chrome export.
    pub report: TraceReport,
}

fn traced(
    kind: RunKind,
    spec: &TrainSpec,
    inputs: &Inputs,
    scratch: &Scratch,
    log: &mut SpanLog,
) -> (Result<RunOutput, ExecError>, TraceReport) {
    let collector = TraceCollector::new(TraceMode::Spans);
    let result = train::run(
        kind,
        spec,
        inputs,
        scratch,
        Some(Arc::clone(&collector)),
        log,
    );
    (result, collector.drain())
}

/// How many probes share the part of the budget the executor reps leave.
const PROBES: u32 = 35;

/// Runs the traced reps and every layer probe for `spec`, spending about
/// `budget`. `reps` is how many times the executor section repeats.
///
/// # Errors
///
/// A set-up (warm-up) run that cannot execute, or traced reps that all
/// fail, leave nothing to measure.
pub fn measure(
    spec: &TrainSpec,
    seed: u64,
    budget: Duration,
    reps: usize,
    min_samples: usize,
    scratch: &Scratch,
    log: &mut SpanLog,
) -> Result<PerLayer, String> {
    let (mut inputs, _) =
        train::setup(spec, seed, scratch, log).map_err(|e| format!("set-up failed: {e}"))?;
    train::learn_reference(spec, &mut inputs)
        .map_err(|e| format!("untrained reference run failed: {e}"))?;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut tally = Tally::default();

    // --- core::exec, core::checkpoint, core::exec::recovery: whole runs.
    let subject = if spec.recovery {
        RunKind::Checkpointed
    } else {
        RunKind::Threaded
    };
    let serial = train::run(RunKind::Serial, spec, &inputs, scratch, None, log);
    let serial_outcome = serial.as_ref().ok().map(|o| &o.outcome);
    tally.judge(spec, &inputs, RunKind::Serial, &serial, serial_outcome);

    // Walls of the plain, checkpointed, host-loss and traced-subject runs.
    let mut walls: [Vec<f64>; 4] = Default::default();
    let mut last_traced: Option<(TraceReport, f64)> = None;
    let mut last_plain: Option<FuncOutcome> = None;
    for _ in 0..reps {
        let plain = train::run(RunKind::Threaded, spec, &inputs, scratch, None, log);
        tally.judge(spec, &inputs, RunKind::Threaded, &plain, serial_outcome);
        let golden = plain.as_ref().ok().map(|o| &o.outcome);
        let checkpointed = train::run(RunKind::Checkpointed, spec, &inputs, scratch, None, log);
        tally.judge(spec, &inputs, RunKind::Checkpointed, &checkpointed, golden);
        let faulted = train::run(RunKind::Faulted, spec, &inputs, scratch, None, log);
        tally.judge(spec, &inputs, RunKind::Faulted, &faulted, golden);
        let (traced_run, report) = traced(subject, spec, &inputs, scratch, log);
        tally.judge(spec, &inputs, subject, &traced_run, golden);
        for (series, result) in walls
            .iter_mut()
            .zip([&plain, &checkpointed, &faulted, &traced_run])
        {
            if let Ok(out) = result {
                series.push(out.wall_s);
            }
        }
        if let Ok(out) = &traced_run {
            last_traced = Some((report, out.wall_s));
        }
        if let Ok(out) = plain {
            last_plain = Some(out.outcome);
        }
    }
    let (faulted_traced, fault_report) = traced(RunKind::Faulted, spec, &inputs, scratch, log);
    tally.judge(
        spec,
        &inputs,
        RunKind::Faulted,
        &faulted_traced,
        last_plain.as_ref(),
    );

    let nothing = || format!("no traced rep ran clean: {}", tally.failures.join("; "));
    let (report, traced_wall_s) = last_traced.ok_or_else(nothing)?;
    if walls.iter().any(Vec::is_empty) {
        return Err(nothing());
    }
    let [plain_s, checkpointed_s, faulted_s, traced_s] = walls.map(|w| median(&w));
    let untraced_subject_s = if spec.recovery {
        checkpointed_s
    } else {
        plain_s
    };

    let a = aggregate(&report, spec.steps);
    m.push(("exec.period_ms", a.period_ms));
    for ((_, name), share) in SHARE_KINDS.into_iter().zip(a.shares) {
        m.push((name, share));
    }
    m.push(("exec.untracked.share", a.untracked_share));
    m.push(("exec.stage0_load_ms_per_step", a.stage0_load_ms_per_step));
    m.push(("exec.recv_wait_ms_per_step", a.recv_wait_ms_per_step));
    let summary = pipebd_trace::summarize(&report, spec.steps as u32, 1)?;
    m.push(("exec.bubble_ratio", summary.bubble_ratio));
    m.push(("exec.stage_imbalance", a.stage_imbalance));
    m.push(("exec.relay.bytes_per_step", a.relay_bytes_per_step));
    m.push(("exec.relay.sends_per_step", a.relay_sends_per_step));
    // The gather's logical volume: every non-leader member of a widened
    // stage moves its stage's gradients to the leader each step.
    let mut student = inputs.student.clone();
    let grad_bytes: usize = inputs
        .plan
        .stages
        .iter()
        .map(|s| {
            let params: usize = s
                .blocks()
                .map(|b| pipebd_nn::param_count(student.block_mut(b)))
                .sum();
            (s.width() - 1) * params * 4
        })
        .sum();
    m.push(("exec.grad_share.bytes_per_step", grad_bytes as f64));
    m.push((
        "exec.spawn_join_ms",
        traced_wall_s * 1e3 - a.longest_track_ms,
    ));
    m.push(("exec.spans", a.spans as f64));
    m.push(("exec.spans_dropped", a.dropped as f64));
    m.push(("exec.trace_overhead_ratio", traced_s / untraced_subject_s));
    m.push(("checkpoint.count_per_run", a.checkpoint_rounds as f64));
    m.push(("checkpoint.overhead_ratio", checkpointed_s / plain_s));
    m.push(("recovery.overhead_ratio", faulted_s / checkpointed_s));
    let (restores, replans, resumed) = match &faulted_traced {
        Ok(RunOutput {
            recovery: Some((restores, replans, _, resumed)),
            ..
        }) => (*restores, *replans, resumed.first().copied().unwrap_or(0)),
        _ => (0, 0, 0),
    };
    m.push(("recovery.restores", restores as f64));
    m.push(("recovery.replans", replans as f64));
    let replayed = spec.fault_step().saturating_sub(resumed);
    m.push(("recovery.replayed_steps", replayed as f64));
    m.push((
        "recovery.restore_ms",
        control_event_ms(&fault_report, SpanKind::Restore),
    ));
    m.push((
        "recovery.replan_ms",
        control_event_ms(&fault_report, SpanKind::Replan),
    ));

    // --- Direct probes, sharing what is left of the budget.
    let mut p = Prober {
        slice: budget.saturating_sub(log_elapsed(log)) / PROBES,
        log,
        min_samples,
        probes: 0,
    };
    // Device threads of the workloads run their kernels on a width-1 pool;
    // so do the probes, whatever the host's core count.
    install(&ComputePool::new(1), || {
        tensor_probes(spec, seed, &mut p, &mut m);
        let ckpt = nn_and_checkpoint_probes(spec, &inputs, seed, &mut p, &mut m);
        storage_probes(&ckpt, scratch, &mut p, &mut m);
    });
    data_probes(spec, &inputs, &mut p, &mut m);
    planner_probes(&mut p, &mut m);
    assert_eq!(p.probes, PROBES, "PROBES must count the probes");

    Ok(PerLayer {
        metrics: m,
        tally,
        report,
    })
}

fn log_elapsed(log: &SpanLog) -> Duration {
    Duration::from_nanos(log.spans().iter().map(|s| s.end_ns).max().unwrap_or(0))
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn tensor_probes(
    spec: &TrainSpec,
    seed: u64,
    p: &mut Prober<'_>,
    m: &mut Vec<(&'static str, f64)>,
) {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x7E45);
    let (n, c, s) = (spec.shard(), spec.channels, spec.side);
    let x = Tensor::randn(&[n, c, s, s], &mut rng);
    let dy = Tensor::randn(&[n, c, s, s], &mut rng);

    let a = Tensor::randn(&[256, 256], &mut rng);
    let b = Tensor::randn(&[256, 256], &mut rng);
    let ns = p.many("tensor.gemm", || {
        black_box(
            a.matmul_with(black_box(&b), KernelPolicy::Blocked)
                .expect("256^3 shapes agree"),
        );
    });
    m.push(("tensor.gemm.gflops", 2.0 * 256f64.powi(3) / ns));

    let convs = [
        ("dense", Conv2dSpec::dense(c, c, 3, 1, 1)),
        ("depthwise", Conv2dSpec::depthwise(c, 3, 1, 1)),
        ("pointwise", Conv2dSpec::dense(c, c, 1, 1, 0)),
    ];
    for (label, conv) in convs {
        let w = Tensor::randn(&conv.weight_dims(), &mut rng);
        let fwd = p.many(&format!("tensor.conv_{label}.fwd"), || {
            black_box(conv2d(black_box(&x), &w, conv).expect("probe shapes agree"));
        });
        let gi = p.many(&format!("tensor.conv_{label}.grad_input"), || {
            black_box(
                conv2d_grad_input(black_box(&dy), &w, conv, (s, s)).expect("probe shapes agree"),
            );
        });
        let gw = p.many(&format!("tensor.conv_{label}.grad_weight"), || {
            black_box(conv2d_grad_weight(black_box(&x), &dy, conv).expect("probe shapes agree"));
        });
        match label {
            "dense" => {
                m.push(("tensor.conv_dense.fwd_us", us(fwd)));
                m.push(("tensor.conv_dense.grad_input_us", us(gi)));
                m.push(("tensor.conv_dense.grad_weight_us", us(gw)));
            }
            "depthwise" => {
                m.push(("tensor.conv_depthwise.fwd_us", us(fwd)));
                m.push(("tensor.conv_depthwise.bwd_us", us(gi + gw)));
            }
            _ => {
                m.push(("tensor.conv_pointwise.fwd_us", us(fwd)));
                m.push(("tensor.conv_pointwise.bwd_us", us(gi + gw)));
            }
        }
    }

    // One boundary activation: allocate, touch every element, drop.
    let elems = n * c * s * s;
    let ns = p.many("tensor.alloc_activation", || {
        black_box(
            Tensor::from_vec(vec![black_box(1.0f32); elems], &[n, c, s, s]).expect("dims match"),
        );
    });
    m.push(("tensor.alloc_activation_us", us(ns)));

    // What a relay hop costs: a shared handle through a channel.
    let (tx, rx) = unbounded::<SharedTensor>();
    let handle = SharedTensor::new(x);
    let ns = p.many("tensor.shared_hop", || {
        tx.send(handle.clone()).expect("receiver is alive");
        black_box(rx.recv().expect("sender is alive"));
    });
    m.push(("tensor.shared_hop_ns", ns));
}

/// Probes one block of the workload's teacher and student (the last: its
/// input has the workload's channel width), then captures a checkpoint of
/// the whole student after one training step per block and returns it.
fn nn_and_checkpoint_probes(
    spec: &TrainSpec,
    inputs: &Inputs,
    seed: u64,
    p: &mut Prober<'_>,
    m: &mut Vec<(&'static str, f64)>,
) -> Checkpoint {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x1A7E5);
    let mut teacher = inputs.teacher.clone();
    let mut student = inputs.student.clone();
    let x0 = Tensor::randn(&[spec.shard(), 3, spec.side, spec.side], &mut rng);
    let boundaries = teacher
        .forward_collect(&x0, Mode::Eval)
        .expect("teacher accepts its own input shape");
    let input_of = |b: usize| if b == 0 { &x0 } else { &boundaries[b - 1] };

    let last = spec.blocks - 1;
    let (x, target) = (input_of(last), &boundaries[last]);
    let ns = p.many("nn.teacher_block.fwd", || {
        black_box(
            teacher
                .block_mut(last)
                .forward(x, Mode::Eval)
                .expect("block shapes agree"),
        );
    });
    m.push(("nn.teacher_block.fwd_us", us(ns)));
    let ns = p.many("nn.student_block.fwd", || {
        black_box(
            student
                .block_mut(last)
                .forward(x, Mode::Train)
                .expect("block shapes agree"),
        );
    });
    m.push(("nn.student_block.fwd_us", us(ns)));
    let s_out = student
        .block_mut(last)
        .forward(x, Mode::Train)
        .expect("block shapes agree");
    let ns = p.many("nn.mse_loss", || {
        black_box(mse_loss(&s_out, target).expect("student and teacher boundaries agree"));
    });
    m.push(("nn.mse_loss_us", us(ns)));
    let ns = p.each("nn.student_block.bwd", |watch| {
        let block = student.block_mut(last);
        let out = block.forward(x, Mode::Train).expect("block shapes agree");
        let loss = mse_loss(&out, target).expect("boundaries agree");
        watch.time(|| black_box(block.backward(&loss.grad).expect("forward was cached")));
        zero_grad(block);
    });
    m.push(("nn.student_block.bwd_us", us(ns)));
    let mut sgd = Sgd::new(0.05, 0.9, 0.0);
    let ns = p.each("nn.sgd_step", |watch| {
        let block = student.block_mut(last);
        let out = block.forward(x, Mode::Train).expect("block shapes agree");
        let loss = mse_loss(&out, target).expect("boundaries agree");
        block.backward(&loss.grad).expect("forward was cached");
        // What the executor's `Update` span covers.
        watch.time(|| {
            sgd.step(block).expect("gradients are present");
            zero_grad(block);
        });
    });
    m.push(("nn.sgd_step_us", us(ns)));
    m.push((
        "nn.student_block.params",
        pipebd_nn::param_count(student.block_mut(last)) as f64,
    ));

    // One step per block, so every optimizer holds momentum velocities —
    // the state a mid-run checkpoint carries.
    let mut student = inputs.student.clone();
    let mut optims: Vec<Sgd> = (0..spec.blocks).map(|_| Sgd::new(0.05, 0.9, 0.0)).collect();
    for (b, sgd) in optims.iter_mut().enumerate() {
        let block = student.block_mut(b);
        let out = block
            .forward(input_of(b), Mode::Train)
            .expect("block shapes agree");
        let loss = mse_loss(&out, &boundaries[b]).expect("boundaries agree");
        block.backward(&loss.grad).expect("forward was cached");
        sgd.step(block).expect("gradients are present");
        zero_grad(block);
    }
    let round = spec.steps / 2;
    let losses = vec![0.5f32; round];
    let mut blocks = Vec::new();
    let ns = p.many("checkpoint.capture", || {
        blocks = optims
            .iter()
            .enumerate()
            .map(|(b, sgd)| capture_block(student.block_mut(b), b, sgd, &losses))
            .collect();
    });
    m.push(("checkpoint.capture_ms", ns / 1e6));
    Checkpoint {
        round,
        data_cursor: (round * spec.batch) as u64,
        batch: spec.batch,
        lr: 0.05,
        momentum: 0.9,
        plan_fingerprint: inputs.plan.fingerprint(),
        blocks,
    }
}

/// `CheckpointStore` and `json` on the checkpoint payload.
fn storage_probes(
    ckpt: &Checkpoint,
    scratch: &Scratch,
    p: &mut Prober<'_>,
    m: &mut Vec<(&'static str, f64)>,
) {
    let store = scratch.fresh_store("probe");
    let mut next = ckpt.clone();
    store.store(&next).expect("scratch directory is writable");
    // Every store is of a newer round: an older one would be skipped after
    // the read-back that `store` begins with.
    let ns = p.many("checkpoint.store", || {
        next.round += 1;
        store.store(&next).expect("scratch directory is writable");
    });
    m.push(("checkpoint.store_ms", ns / 1e6));
    let ns = p.many("checkpoint.load", || {
        black_box(store.latest().expect("the envelope just written parses"));
    });
    m.push(("checkpoint.load_ms", ns / 1e6));
    let bytes = std::fs::metadata(store.path()).map_or(0, |f| f.len());
    m.push(("checkpoint.bytes", bytes as f64));

    let text = pipebd_json::to_string(ckpt).expect("checkpoints serialize");
    let ns = p.many("json.serialize", || {
        black_box(pipebd_json::to_string(black_box(ckpt)).expect("checkpoints serialize"));
    });
    m.push((
        "json.serialize_mb_per_s",
        text.len() as f64 / 1e6 / (ns / 1e9),
    ));
    let ns = p.many("json.parse", || {
        black_box(pipebd_json::from_str::<Checkpoint>(black_box(&text)).expect("round-trips"));
    });
    m.push(("json.parse_mb_per_s", text.len() as f64 / 1e6 / (ns / 1e9)));
}

fn data_probes(
    spec: &TrainSpec,
    inputs: &Inputs,
    p: &mut Prober<'_>,
    m: &mut Vec<(&'static str, f64)>,
) {
    // What one stage-0 member materializes per step.
    let shard = spec.batch / spec.stages[0].1;
    let mut start = 0u64;
    let ns = p.many("data.batch", || {
        black_box(inputs.data.batch(start, shard));
        start += shard as u64;
    });
    m.push(("data.batch_us", us(ns)));
    let bytes = (shard * 3 * spec.side * spec.side * 4) as f64;
    m.push(("data.batch_mb_per_s", bytes / 1e6 / (ns / 1e9)));
}

/// `sched`, `sim` and `core::lower` on the paper's NAS/ImageNet workload.
fn planner_probes(p: &mut Prober<'_>, m: &mut Vec<(&'static str, f64)>) {
    let [_, workload, _, _] = plan::paper_workloads();
    let batch = plan::BATCH;
    let hw = HardwareConfig::a6000_server;
    let profiler = Profiler::new(CostModel::new(hw(8).gpu));

    let ns = p.many("sched.profile", || {
        black_box(profiler.profile(&workload.model, batch, 8));
    });
    m.push(("sched.profile_us", us(ns)));
    let table = profiler.profile(&workload.model, batch, 8);
    let ns = p.many("sched.enumerate_plans", || {
        black_box(enumerate_hybrid_plans(workload.num_blocks(), 8));
    });
    m.push(("sched.enumerate_plans_us", us(ns)));
    m.push((
        "sched.plans_enumerated",
        enumerate_hybrid_plans(workload.num_blocks(), 8).len() as f64,
    ));
    for (devices, ahd_metric, replan_metric) in [
        (4, "sched.ahd_search_us.d4", "sched.replan_us.d4"),
        (8, "sched.ahd_search_us.d8", "sched.replan_us.d8"),
    ] {
        let hw = hw(devices);
        let ns = p.many(&format!("sched.ahd_search.d{devices}"), || {
            black_box(ahd::search(&workload, &table, &hw, batch));
        });
        m.push((ahd_metric, us(ns)));
        let server = DegradedServer::at_step(&hw, &plan::loss_script(devices), 4)
            .expect("the loss script is valid for its server");
        let ns = p.many(&format!("sched.replan.d{devices}"), || {
            black_box(replan(&workload, &server, batch));
        });
        m.push((replan_metric, us(ns)));
    }
    let hw4 = hw(plan::FAULT_DEVICES);
    let decision = ahd::search(&workload, &table, &hw4, batch);
    let ns = p.many("sched.estimate_period", || {
        black_box(estimate_period(
            black_box(&decision.plan),
            &table,
            &workload,
            &hw4,
            batch,
        ));
    });
    m.push(("sched.estimate_period_ns", ns));

    let lowering = Lowering::new(&workload, &hw4, batch, plan::SIM_ROUNDS);
    let ns = p.many("sim.lower", || {
        black_box(lower(&lowering, Strategy::PipeBd).expect("Pipe-BD lays out on four devices"));
    });
    m.push(("sim.lower_us", us(ns)));
    let graph = lower(&lowering, Strategy::PipeBd)
        .expect("Pipe-BD lays out on four devices")
        .graph;
    let ns = p.many("sim.simulate", || {
        black_box(simulate(black_box(&graph)));
    });
    m.push(("sim.simulate_tasks_per_s", graph.len() as f64 / (ns / 1e9)));
    m.push(("sim.tasks_per_graph", graph.len() as f64));
    let script = plan::slowdown_script();
    let ns = p.many("sim.lower_faulted", || {
        black_box(
            lower_faulted(&lowering, &decision.plan, &script, true).expect("script is valid"),
        );
    });
    m.push(("sim.lower_faulted_us", us(ns)));
    let faulted = lower_faulted(&lowering, &decision.plan, &script, true).expect("script is valid");
    let ns = p.many("sim.simulate_faulted", || {
        black_box(
            simulate_faulted(black_box(&faulted.graph), &script).expect("graph honours the script"),
        );
    });
    m.push(("sim.simulate_faulted_us", us(ns)));
    let experiment = ExperimentBuilder::new(workload.clone())
        .hardware(hw4.clone())
        .batch_size(batch)
        .sim_rounds(plan::SIM_ROUNDS)
        .build()
        .expect("the paper's workloads fit a four-GPU server");
    let ns = p.many("core.experiment_run", || {
        black_box(
            experiment
                .run(Strategy::PipeBd)
                .expect("Pipe-BD lays out on four devices"),
        );
    });
    m.push(("core.experiment_run_us", us(ns)));
}

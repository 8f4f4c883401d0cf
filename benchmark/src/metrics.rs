//! The metric catalogue: every name the benchmark emits, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//!
//! `../BENCHMARK.json` declares the same names to the driver; a test in
//! `main.rs` keeps the two in step. Definitions are in `README.md`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression
    /// (end-to-end metrics only; per-layer metrics carry 0 and no bound).
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// Failed-or-incorrect runs ÷ runs attempted. Its bound is absolute (any
/// increase is a regression) and it reads 0 on a healthy tree, so it is
/// not among the driver-facing metrics of `BENCHMARK.json`: on the result
/// line it travels as the `failed` / `attempted` counts instead. The full
/// report and `--compare` carry it under this name.
pub static FAILED_SHARE: MetricDef = m("failed_share", "ratio", Lower, 0.0);

/// End-to-end metrics reported on the result line of a `--trace 0` run,
/// on every workload (what each reads where is tabulated in README.md).
///
/// Bounds come from the two recorded sets under `recorded/` (README.md,
/// "Bounds"): each is about twice the widest ten-run spread
/// (interquartile distance over median) seen for the metric on any
/// workload; the contract caps a bound at 0.25.
pub static END_TO_END: [MetricDef; 7] = [
    m("train_samples_per_s", "samples/s", Higher, 0.25),
    m("serial_samples_per_s", "samples/s", Higher, 0.25),
    m("speedup_vs_serial", "ratio", Higher, 0.20),
    m("recovered_samples_per_s", "samples/s", Higher, 0.25),
    m("plan_evals_per_s", "evals/s", Higher, 0.25),
    m("setup_s", "s", Lower, 0.25),
    m("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics reported on the result line of a `--trace 1` run.
/// The prefix is the layer (crate or module) the number belongs to.
pub static PER_LAYER: [MetricDef; 67] = [
    // tensor: kernels at the workload's per-device shard shape.
    m("tensor.gemm.gflops", "GFLOP/s", Higher, 0.0),
    m("tensor.conv_dense.fwd_us", "us", Lower, 0.0),
    m("tensor.conv_dense.grad_input_us", "us", Lower, 0.0),
    m("tensor.conv_dense.grad_weight_us", "us", Lower, 0.0),
    m("tensor.conv_depthwise.fwd_us", "us", Lower, 0.0),
    m("tensor.conv_depthwise.bwd_us", "us", Lower, 0.0),
    m("tensor.conv_pointwise.fwd_us", "us", Lower, 0.0),
    m("tensor.conv_pointwise.bwd_us", "us", Lower, 0.0),
    m("tensor.alloc_activation_us", "us", Lower, 0.0),
    m("tensor.shared_hop_ns", "ns", Lower, 0.0),
    // nn: one block of the workload's teacher / student.
    m("nn.teacher_block.fwd_us", "us", Lower, 0.0),
    m("nn.student_block.fwd_us", "us", Lower, 0.0),
    m("nn.student_block.bwd_us", "us", Lower, 0.0),
    m("nn.mse_loss_us", "us", Lower, 0.0),
    m("nn.sgd_step_us", "us", Lower, 0.0),
    m("nn.student_block.params", "count", Lower, 0.0),
    // data: one stage-0 shard.
    m("data.batch_us", "us", Lower, 0.0),
    m("data.batch_mb_per_s", "MB/s", Higher, 0.0),
    // core::exec: aggregated from the traced rep's own spans.
    m("exec.period_ms", "ms", Lower, 0.0),
    m("exec.load.share", "ratio", Lower, 0.0),
    m("exec.teacher.share", "ratio", Higher, 0.0),
    m("exec.student.share", "ratio", Higher, 0.0),
    m("exec.relay.share", "ratio", Lower, 0.0),
    m("exec.grad_share.share", "ratio", Lower, 0.0),
    m("exec.barrier.share", "ratio", Lower, 0.0),
    m("exec.update.share", "ratio", Lower, 0.0),
    m("exec.checkpoint.share", "ratio", Lower, 0.0),
    m("exec.untracked.share", "ratio", Lower, 0.0),
    m("exec.stage0_load_ms_per_step", "ms/step", Lower, 0.0),
    m("exec.recv_wait_ms_per_step", "ms/step", Lower, 0.0),
    m("exec.bubble_ratio", "ratio", Lower, 0.0),
    m("exec.stage_imbalance", "ratio", Lower, 0.0),
    m("exec.relay.bytes_per_step", "B/step", Lower, 0.0),
    m("exec.relay.sends_per_step", "1/step", Lower, 0.0),
    m("exec.grad_share.bytes_per_step", "B/step", Lower, 0.0),
    m("exec.spawn_join_ms", "ms", Lower, 0.0),
    m("exec.spans", "count", Lower, 0.0),
    m("exec.spans_dropped", "count", Lower, 0.0),
    m("exec.trace_overhead_ratio", "ratio", Lower, 0.0),
    // core::checkpoint + artifact.
    m("checkpoint.capture_ms", "ms", Lower, 0.0),
    m("checkpoint.store_ms", "ms", Lower, 0.0),
    m("checkpoint.load_ms", "ms", Lower, 0.0),
    m("checkpoint.bytes", "B", Lower, 0.0),
    m("checkpoint.count_per_run", "count", Lower, 0.0),
    m("checkpoint.overhead_ratio", "ratio", Lower, 0.0),
    // core::exec::recovery.
    m("recovery.overhead_ratio", "ratio", Lower, 0.0),
    m("recovery.restores", "count", Lower, 0.0),
    m("recovery.replans", "count", Lower, 0.0),
    m("recovery.replayed_steps", "count", Lower, 0.0),
    m("recovery.restore_ms", "ms", Lower, 0.0),
    m("recovery.replan_ms", "ms", Lower, 0.0),
    // json, on the checkpoint payload.
    m("json.serialize_mb_per_s", "MB/s", Higher, 0.0),
    m("json.parse_mb_per_s", "MB/s", Higher, 0.0),
    // sched.
    m("sched.profile_us", "us", Lower, 0.0),
    m("sched.enumerate_plans_us", "us", Lower, 0.0),
    m("sched.plans_enumerated", "count", Lower, 0.0),
    m("sched.ahd_search_us.d4", "us", Lower, 0.0),
    m("sched.ahd_search_us.d8", "us", Lower, 0.0),
    m("sched.replan_us.d4", "us", Lower, 0.0),
    m("sched.replan_us.d8", "us", Lower, 0.0),
    m("sched.estimate_period_ns", "ns", Lower, 0.0),
    // sim + core::lower.
    m("sim.simulate_tasks_per_s", "tasks/s", Higher, 0.0),
    m("sim.tasks_per_graph", "count", Lower, 0.0),
    m("sim.lower_us", "us", Lower, 0.0),
    m("sim.lower_faulted_us", "us", Lower, 0.0),
    m("sim.simulate_faulted_us", "us", Lower, 0.0),
    m("core.experiment_run_us", "us", Lower, 0.0),
];

/// The five workloads, in report order, each with its reason to exist.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "tr_compress",
        "compression in miniature: kernel compute is ~96% of device time, relay used, no gradient sharing",
    ),
    (
        "split_nas",
        "one batch-split stage over a supernet: no relay, gradient gather/average/broadcast every step",
    ),
    (
        "thin_wide",
        "almost no FLOPs, 2 MiB activations: loader, allocation and relay hand-off dominate",
    ),
    (
        "ckpt_recover",
        "plain vs checkpointed-to-disk vs host-loss-and-restore: the write path beside the read path",
    ),
    (
        "plan_sweep",
        "no tensors: Experiment::run, AHD search, replan and faulted lowering; control for executor changes",
    ),
];

/// Looks a metric up by name in a catalogue slice.
pub fn find<'a>(defs: &'a [MetricDef], name: &str) -> Option<&'a MetricDef> {
    defs.iter().find(|d| d.name == name)
}

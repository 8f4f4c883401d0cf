//! The trace differential, asserted: instrumented threaded runs agree
//! with the measured-profile estimator and simulator on
//! the acceptance strategies, and tracing never changes the math.

use std::sync::Arc;

use pipebd_core::exec::threaded::{self, RunHooks};
use pipebd_core::exec::FuncConfig;
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig};
use pipebd_tensor::Rng64;
use pipebd_testkit::{run_trace_scenario, trace_scenarios, ToleranceBook, TRACE_TAIL};
use pipebd_trace::{TraceCollector, TraceMode};

#[test]
fn trace_differential_passes_on_acceptance_strategies() {
    let book = ToleranceBook::gate_default();
    let scenarios = trace_scenarios();
    assert_eq!(scenarios.len(), 3, "TR+DPU, hybrid, AHD");
    for s in &scenarios {
        let run = run_trace_scenario(s, &book).unwrap_or_else(|e| panic!("{}: {e}", s.id));
        let d = &run.differential;
        assert!(
            d.pass,
            "{}: {} (measured {}ns, predicted {}ns, simulated {}ns, \
             ratios {:.3}/{:.3}, lanes {})",
            s.id,
            d.detail,
            d.measured_period_ns,
            d.predicted_period_ns,
            d.simulated_period_ns,
            d.predicted_ratio,
            d.simulated_ratio,
            d.lanes
        );
        // The instrumented run must have drained complete rings: a
        // dropped span would silently bias the measured profile.
        assert_eq!(run.summary.dropped, 0, "{}: spans dropped", s.id);
        assert!(run.summary.spans > 0);
        assert_eq!(run.summary.tail, TRACE_TAIL);
        // Full mode also snapshots the pool counters.
        assert!(
            run.report.metrics.counter("pool.steals").is_some(),
            "{}: pool counters missing from full-mode metrics",
            s.id
        );
    }
}

#[test]
fn tracing_never_changes_the_math() {
    // Tracing off (no collector) vs full instrumentation: bitwise
    // identical parameters and losses — the overhead contract, asserted
    // at the strongest possible level.
    let s = &trace_scenarios()[0];
    let cfg = MiniConfig {
        blocks: s.blocks,
        channels: 6,
        batch_norm: s.batch_norm,
    };
    let build = || {
        let mut rng = Rng64::seed_from_u64(s.seed);
        let teacher = mini_teacher(cfg, &mut rng);
        let student = mini_student_dsconv(cfg, &mut rng);
        (teacher, student)
    };
    let data = SyntheticImageDataset::mini(64, 8, 4, s.seed.rotate_left(17));
    let (plan, dpu) = s.exec_plan().unwrap();
    let func = FuncConfig {
        devices: s.ranks,
        steps: s.exec_steps,
        batch: s.exec_batch,
        lr: 0.05,
        momentum: 0.9,
        plan: Some(plan),
        decoupled_updates: dpu,
        pool_size: Some(s.pool_size),
    };

    let (teacher, student) = build();
    let plain = threaded::run(&teacher, &student, &data, &func).unwrap();

    let (teacher, student) = build();
    let collector = TraceCollector::new(TraceMode::Full);
    let hooks = RunHooks {
        trace: Some(Arc::clone(&collector)),
        ..RunHooks::default()
    };
    let traced = threaded::run_hooked(&teacher, &student, &data, &func, &hooks).unwrap();
    let report = collector.drain();

    assert_eq!(
        traced.max_param_diff(&plain),
        0.0,
        "instrumentation changed trained parameters"
    );
    assert_eq!(
        traced.max_loss_diff(&plain),
        0.0,
        "instrumentation changed the loss trajectory"
    );
    assert!(report.span_count() > 0, "the traced run recorded nothing");
}

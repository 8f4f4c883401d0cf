//! The trace differential: an *instrumented* threaded run against the
//! analytic estimator and the event simulator, on the executor's own
//! measured block times.
//!
//! The conformance plane's other differentials compare models against
//! models (estimator vs simulator) or semantics against semantics
//! (executors bitwise). This one closes the last gap the paper's
//! reproduction leaves open: does the *wall clock* of the real threaded
//! executor behave the way the planning stack predicts? The harness runs
//! one instrumented scenario, builds a [`ProfileTable`] from the measured
//! spans ([`pipebd_trace::measured_profile`]), feeds it to both
//! predictors, and checks the measured steady-state period and bottleneck
//! stage against them under [`ToleranceBook::trace`].
//!
//! # Why max-stage-time transfers to a timesharing host
//!
//! `sched::estimate` and the simulator assume each device rank is real
//! parallel hardware; the threaded executor's "devices" are threads
//! timesharing whatever cores the host offers. That gap closes itself:
//! a span's wall duration *includes* the time its thread sat descheduled
//! while peers ran, so on an oversubscribed host every measured block
//! time is already inflated by exactly the contention the run
//! experienced. Feeding those inflated times back into the estimator,
//! the heaviest stage's thread spends nearly the whole wall period
//! inside work spans, so `max(stage_time)` over the measured profile
//! approximates the wall period on *any* core count — the measured
//! profile self-calibrates, and no explicit core folding is sound (a
//! `total_work / lanes` fold would count the same contention twice).
//! [`compute_lanes`] is recorded in the verdict so runs from hosts with
//! different lane counts are never compared to each other.
//!
//! # Calibration
//!
//! Relays and gradient shares between threads are refcount bumps and
//! shared-memory sums — effectively free next to the modeled PCIe. The
//! comparison hardware therefore zeroes the interconnect (near-infinite
//! bandwidth, zero latency) and derives the host collate cost from the
//! measured stage-0 load spans, so both predictors describe the machine
//! the run actually happened on.

use std::sync::Arc;

use pipebd_core::exec::threaded::{self, RunHooks};
use pipebd_core::lower::{relay, Lowering};
use pipebd_sched::{bottleneck_stage, estimate_period, StagePlan};
use pipebd_sim::{busy_per_gpu, simulate, SimRun, SimTime, TaskGraph};
use pipebd_trace::{
    measured_profile, summarize, SpanKind, TraceCollector, TraceDifferential, TraceMode,
    TraceReport, TraceSummary,
};

use crate::{ConformanceStrategy, Scenario, SimWorkload, ToleranceBook};

/// Steps the trace differential trains for (enough that the tail window
/// sits past pipeline fill and first-touch warm-up).
pub const TRACE_STEPS: usize = 12;
/// Tail steps averaged for the measured steady-state period.
pub const TRACE_TAIL: u32 = 4;

/// Everything one trace differential produced, for reporting and export.
pub struct TraceRun {
    /// The scenario that ran.
    pub scenario_id: String,
    /// The drained span/metrics report of the instrumented run.
    pub report: TraceReport,
    /// The measured timeline summary.
    pub summary: TraceSummary,
    /// The measured-vs-predicted verdict.
    pub differential: TraceDifferential,
    /// The simulator graph lowered from the measured profile (shares
    /// track naming with the report in the Chrome export).
    pub graph: TaskGraph,
    /// The simulated run of that graph.
    pub sim_run: SimRun,
}

/// Compute lanes the host actually offers `ranks` device threads.
pub fn compute_lanes(ranks: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(ranks.max(1))
}

/// One trace scenario per acceptance strategy: TR+DPU, the fixed hybrid
/// plan, and the AHD search winner — the strategies whose steady-state
/// story the paper's figures rest on.
pub fn trace_scenarios() -> Vec<Scenario> {
    [
        ConformanceStrategy::TrDpu,
        ConformanceStrategy::Hybrid,
        ConformanceStrategy::Ahd,
    ]
    .into_iter()
    .map(|strategy| Scenario {
        exec_steps: TRACE_STEPS,
        ..Scenario::new(
            format!("trace-{}-r4", strategy.label()),
            (4, false, false, SimWorkload::Synthetic),
            (4, 16),
            strategy,
        )
    })
    .collect()
}

/// Mean duration of the warm stage-0 load spans, in nanoseconds.
fn measured_load_ns(report: &TraceReport) -> Option<u64> {
    let mut sum = 0u64;
    let mut n = 0u64;
    for track in report.tracks.iter().filter(|t| t.stage == 0) {
        for span in &track.spans {
            if span.kind == SpanKind::Load && span.step >= 1 {
                sum += span.dur_ns();
                n += 1;
            }
        }
    }
    (n > 0).then(|| sum / n)
}

/// The simulated hardware calibrated to the instrumented run: the real
/// GPU model is irrelevant (all block times come from the measured
/// profile), the interconnect is zeroed (thread relays are refcount
/// bumps), and the collate cost reproduces the measured stage-0 load.
fn calibrated_hardware(s: &Scenario, load_ns: u64, db0: usize) -> pipebd_sim::HardwareConfig {
    let mut hw = s.hardware();
    hw.pcie.bandwidth = 1e18;
    hw.pcie.latency = SimTime::ZERO;
    hw.host.collate_us_per_sample = load_ns as f64 / 1000.0 / db0.max(1) as f64;
    hw
}

/// Stage index owning device rank `d` under `plan`.
fn stage_of_device(plan: &StagePlan, d: usize) -> usize {
    plan.stages
        .iter()
        .position(|st| st.devices.contains(&d))
        .unwrap_or(0)
}

/// Runs one instrumented scenario and judges the measured timeline
/// against the analytic and simulated predictions on the run's own
/// measured profile.
///
/// # Errors
///
/// Returns a message when the scenario cannot be planned, the run fails,
/// or the trace is too sparse to summarize.
pub fn run_trace_scenario(s: &Scenario, book: &ToleranceBook) -> Result<TraceRun, String> {
    // 24 x 24: every activation — a width-2 stage's half batch included —
    // is above the buffer recycler's floor, so `recycle.*` counts a real run.
    let (teacher, student, data, func) = s.exec_setup(24)?;
    let (plan, dpu) = s.exec_plan()?;

    let collector = TraceCollector::new(TraceMode::Full);
    let hooks = RunHooks {
        trace: Some(Arc::clone(&collector)),
        ..RunHooks::default()
    };
    threaded::run_hooked(&teacher, &student, &data, &func, &hooks)
        .map_err(|e| format!("instrumented run failed: {e}"))?;
    let report = collector.drain();
    let summary = summarize(&report, s.exec_steps as u32, TRACE_TAIL)?;

    // Measured per-block profile + calibrated hardware → both predictors
    // describe the machine the run happened on.
    let table = measured_profile(&report, &plan, s.exec_batch)?;
    let load_ns = measured_load_ns(&report).ok_or("no stage-0 load spans")?;
    let db0 = plan.stages[0].device_batch(s.exec_batch);
    let w = s.workload();
    let hw = calibrated_hardware(s, load_ns, db0);

    let analytic = estimate_period(&plan, &table, &w, &hw, s.exec_batch);
    let (predicted_stage, predicted_margin) =
        bottleneck_stage(&plan, &table, &w, &hw, s.exec_batch);

    let rounds = s.exec_steps as u32;
    let l = Lowering::new(&w, &hw, s.exec_batch, rounds).with_profile(&table);
    let lowered = relay::lower_plan(&l, &plan, dpu);
    let sim_run = simulate(&lowered.graph);
    let simulated = sim_run.round_period(&lowered.graph, rounds, TRACE_TAIL);

    // No core folding: the measured block times already carry the host's
    // timesharing contention (see the module docs), so the max-stage-time
    // predictions compare directly against the wall period.
    let lanes = compute_lanes(s.ranks);
    let predicted_period_ns = analytic.as_ns();
    let simulated_period_ns = simulated.as_ns();

    let measured = summary.measured_period_ns;
    let ratio = |p: u64| {
        if p == 0 {
            f64::INFINITY
        } else {
            measured as f64 / p as f64
        }
    };
    let predicted_ratio = ratio(predicted_period_ns);
    let simulated_ratio = ratio(simulated_period_ns);
    let budget = book.trace;

    // Bottleneck agreement: only asserted when both the estimator and the
    // measurement call their winner decisively — near ties legitimately
    // flip under scheduler noise.
    let busy = busy_per_gpu(&lowered.graph);
    let sim_busiest = busy
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| **t)
        .map_or(0, |(d, _)| d);
    let bottleneck_simulated = stage_of_device(&plan, sim_busiest);
    let bottleneck_checked = plan.stages.len() >= 2
        && predicted_margin >= book.bottleneck_margin
        && summary.bottleneck_margin >= book.bottleneck_margin;
    let bottleneck_ok = !bottleneck_checked
        || (summary.bottleneck_stage == predicted_stage && bottleneck_simulated == predicted_stage);

    let period_ok = budget.contains(predicted_ratio) && budget.contains(simulated_ratio);
    let pass = period_ok && bottleneck_ok;
    let detail = if pass {
        String::new()
    } else if !period_ok {
        format!(
            "measured {measured}ns vs predicted {predicted_period_ns}ns / simulated \
             {simulated_period_ns}ns (ratios {predicted_ratio:.3}/{simulated_ratio:.3}, \
             budget {:.2}..{:.2})",
            budget.lo, budget.hi
        )
    } else {
        format!(
            "bottleneck disagrees: measured stage {} vs predicted {predicted_stage} \
             (simulated {bottleneck_simulated})",
            summary.bottleneck_stage
        )
    };

    let differential = TraceDifferential {
        strategy: s.strategy.label().to_string(),
        lanes,
        measured_period_ns: measured,
        predicted_period_ns,
        simulated_period_ns,
        predicted_ratio,
        simulated_ratio,
        ratio_lo: budget.lo,
        ratio_hi: budget.hi,
        bottleneck_measured: summary.bottleneck_stage,
        bottleneck_predicted: predicted_stage,
        bottleneck_simulated,
        bottleneck_checked,
        bottleneck_ok,
        pass,
        detail,
    };
    Ok(TraceRun {
        scenario_id: s.id.clone(),
        report,
        summary,
        differential,
        graph: lowered.graph,
        sim_run,
    })
}

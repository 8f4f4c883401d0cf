//! The differential harness: per scenario, run the executor parity check
//! and the simulator-vs-estimator check, judged against the declared
//! [`ToleranceBook`].
//!
//! Every check records what it measured (not just pass/fail): a
//! [`ScenarioOutcome`] carries the observed parameter/loss differences,
//! the simulated/analytic ratio, and the budgets they were judged
//! against, and a [`ConformanceReport`] bundling a whole sweep is a
//! persistable artifact — the regression gate's auditable record.

use std::sync::Arc;

use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryRunner};
use pipebd_core::exec::{reference, FuncConfig, FuncOutcome};
use pipebd_core::lower::fault::lower_faulted;
use pipebd_core::lower::{lower, relay, Lowering};
use pipebd_core::{MemorySink, Strategy};
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{mini_student_dsconv, mini_student_supernet, mini_teacher, MiniConfig};
use pipebd_nn::BlockNet;
use pipebd_sched::replan::degraded_estimate;
use pipebd_sched::{
    barrier_period, bottleneck_stage, dp_phase_period, estimate_period, ls, ls_round_period,
    CostModel, DegradedServer, Profiler, StagePlan,
};
use pipebd_sim::{busy_per_gpu, simulate, simulate_faulted, SimTime, TaskGraph};
use pipebd_tensor::Rng64;
use serde::{Deserialize, Serialize};

use crate::{ConformanceStrategy, FaultCase, Scenario, ToleranceBook};
use pipebd_artifact::ArtifactPayload;

/// Rounds the fault differential lowers (long enough that the last fault
/// variant settles well before the tail window).
pub const FAULT_ROUNDS: u32 = 24;
/// Tail rounds the fault differential averages for its steady period.
pub const FAULT_TAIL: u32 = 6;

/// What one scenario measured, with the budgets it was judged against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario id this outcome belongs to.
    pub id: String,
    /// Maximum absolute parameter difference, subject vs reference.
    pub max_param_diff: f64,
    /// Maximum absolute per-step loss difference, subject vs reference.
    pub max_loss_diff: f64,
    /// The executor tolerance asserted (`0.0` = bitwise).
    pub exec_tolerance: f64,
    /// Whether the executor differential passed.
    pub exec_ok: bool,
    /// Simulated / analytic steady-state period ratio.
    pub sim_ratio: f64,
    /// Lower bound of the asserted ratio budget.
    pub ratio_lo: f64,
    /// Upper bound of the asserted ratio budget.
    pub ratio_hi: f64,
    /// Whether the simulator-vs-estimator check passed.
    pub sim_ok: bool,
    /// Whether the bottleneck-stage agreement check was asserted (only
    /// when the estimator's margin is decisive on a multi-stage plan).
    pub bottleneck_checked: bool,
    /// Whether the simulator's busiest rank sat in the estimator's
    /// predicted bottleneck stage (`true` when unchecked).
    pub bottleneck_ok: bool,
    /// Fault class label for fault scenarios, empty otherwise.
    pub fault_class: String,
    /// Whether online replanning was enabled (fault scenarios only).
    pub replan: bool,
    /// Total replanning overhead charged by the spliced lowering, in ns.
    pub replan_overhead_ns: u64,
    /// Plan segments the fault lowering spliced (`0` for non-fault
    /// scenarios, `1` when no splice happened).
    pub fault_segments: usize,
    /// Whether the executor-recovery differential ran (fault scenarios
    /// with `exec_recovery` only).
    pub recovery_checked: bool,
    /// Checkpoint restores the recovery protocol performed.
    pub restores: usize,
    /// Replanning passes the recovery protocol performed (executor-level;
    /// distinct from the sim lowering's `fault_segments`).
    pub exec_replans: usize,
    /// Membership growths the recovery protocol performed (elastic joins
    /// admitted at a round boundary; growth consumes no restore budget).
    pub grows: usize,
    /// Whether the recovered run finished on the reference-executor
    /// fallback after exhausting its restore budget.
    pub fell_back: bool,
    /// Overall verdict.
    pub pass: bool,
    /// Failure detail, empty on pass.
    pub detail: String,
}

/// A persisted conformance sweep: every scenario's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// Scenarios run.
    pub scenarios: usize,
    /// Scenarios that failed any check.
    pub failures: usize,
    /// Per-scenario outcomes, in sweep order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ArtifactPayload for ConformanceReport {
    const SCHEMA: &'static str = "pipebd.conformance_report";
    // V2: outcomes carry the fault fields (class, replan, overhead,
    // segment count).
    // V3: outcomes carry the executor-recovery fields (recovery_checked,
    // restores, exec_replans, fell_back).
    // V4: outcomes carry the elastic-growth count (`grows`).
    const VERSION: u32 = 4;
}

/// The executor direction's inputs, built by [`Scenario::exec_setup`]:
/// `(teacher, student, dataset, run configuration)`.
pub type ExecSetup = (BlockNet, BlockNet, SyntheticImageDataset, FuncConfig);

impl Scenario {
    /// Builds what the executor direction runs: the miniature teacher and
    /// student (supernet or DS-Conv) and the dataset (6 channels, `side` ×
    /// `side` images), seeded from the scenario, and the [`FuncConfig`] of
    /// the scenario's [`Scenario::exec_plan`]. Every run of a differential
    /// gets the same lane budget — the reference installs one pool of
    /// `pool_size`, the threaded executor divides it across device ranks —
    /// and the determinism contract makes parity independent of it, which
    /// is what the pool slice exists to prove.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::sim_plan`].
    pub fn exec_setup(&self, side: usize) -> Result<ExecSetup, String> {
        let cfg = MiniConfig {
            blocks: self.blocks,
            channels: 6,
            batch_norm: self.batch_norm,
        };
        let mut rng = Rng64::seed_from_u64(self.seed);
        let teacher = mini_teacher(cfg, &mut rng);
        let student = if self.supernet {
            mini_student_supernet(cfg, &mut rng)
        } else {
            mini_student_dsconv(cfg, &mut rng)
        };
        let (plan, dpu) = self.exec_plan()?;
        let data = SyntheticImageDataset::mini(64, side, 4, self.seed.rotate_left(17));
        let func = FuncConfig {
            devices: self.ranks,
            steps: self.exec_steps,
            batch: self.exec_batch,
            lr: 0.05,
            momentum: 0.9,
            plan: Some(plan),
            decoupled_updates: dpu,
            pool_size: Some(self.pool_size),
        };
        Ok((teacher, student, data, func))
    }
}

/// The executor differential: reference semantics vs the scenario's
/// subject executor on real miniature models.
fn exec_differential(s: &Scenario) -> Result<(f64, f64), String> {
    let (teacher, student, data, func) = s.exec_setup(8)?;
    let golden = reference::run(&teacher, &student, &data, &func)
        .map_err(|e| format!("reference run failed: {e}"))?;
    let subject: FuncOutcome = s
        .subject
        .run(&teacher, &student, &data, &func)
        .map_err(|e| format!("{} subject run failed: {e}", s.subject))?;
    Ok((
        f64::from(subject.max_param_diff(&golden)),
        f64::from(subject.max_loss_diff(&golden)),
    ))
}

/// The simulator-vs-estimator differential: lower the scenario's schedule
/// into the event simulator and compare its steady-state period against
/// the analytic prediction. Returns `(ratio, bottleneck_checked,
/// bottleneck_ok)`.
fn sim_differential(s: &Scenario, book: &ToleranceBook) -> Result<(f64, bool, bool), String> {
    let w = s.workload();
    let hw = s.hardware();
    let table =
        Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, s.sim_batch, s.ranks);
    match s.strategy {
        ConformanceStrategy::Dp => {
            let rounds = 6u32;
            let l = Lowering::new(&w, &hw, s.sim_batch, rounds);
            let lowered =
                lower(&l, Strategy::DataParallel).map_err(|e| format!("DP lowering: {e}"))?;
            let blocks = w.num_blocks();
            let steps = blocks as u32 * rounds;
            let simulated = simulate(&lowered.graph).round_period(&lowered.graph, steps, 3);
            let analytic = dp_phase_period(blocks - 1, &table, &w, &hw, s.sim_batch, s.ranks);
            Ok((ratio(simulated, analytic), false, true))
        }
        ConformanceStrategy::Ls => {
            let rounds = 8u32;
            let l = Lowering::new(&w, &hw, s.sim_batch, rounds);
            let lowered = lower(&l, Strategy::LayerwiseScheduling)
                .map_err(|e| format!("LS lowering: {e}"))?;
            let simulated = simulate(&lowered.graph).round_period(&lowered.graph, rounds, 4);
            let assignment = ls::pack(&w, &table, s.ranks, s.sim_batch);
            let analytic = ls_round_period(&assignment, &table, &w, &hw, s.sim_batch);
            Ok((ratio(simulated, analytic), false, true))
        }
        _ => {
            let (plan, dpu) = s
                .sim_plan()?
                .ok_or_else(|| "plan strategies carry a plan".to_string())?;
            let rounds = 16u32;
            let l = Lowering::new(&w, &hw, s.sim_batch, rounds);
            // Lower once; the same graph serves the steady-state period
            // measurement and the bottleneck busy-time check.
            let lowered = relay::lower_plan(&l, &plan, dpu);
            let simulated = simulate(&lowered.graph).round_period(&lowered.graph, rounds, 6);
            let analytic = if dpu {
                estimate_period(&plan, &table, &w, &hw, s.sim_batch)
            } else {
                barrier_period(&plan, &table, &w, &hw, s.sim_batch)
            };
            let (checked, ok) =
                bottleneck_agreement(&plan, &lowered.graph, &table, &w, &hw, s, book);
            Ok((ratio(simulated, analytic), checked, ok))
        }
    }
}

/// What the fault differential measured for one scenario.
struct FaultMeasurement {
    /// Simulated tail period / degraded analytic period.
    ratio: f64,
    /// Total replanning overhead the spliced lowering charged.
    overhead_ns: u64,
    /// Plan segments the lowering emitted.
    segments: usize,
}

/// The fault differential: lower the incumbent under the scenario's fault
/// script (replanning at cluster changes when enabled), degrade and
/// simulate the result, and compare the steady-state tail period against
/// the degraded-hardware analytic estimate of the plan in force at the
/// end of the schedule.
fn fault_differential(s: &Scenario, fault: &FaultCase) -> Result<FaultMeasurement, String> {
    let w = s.workload();
    let hw = s.hardware();
    let (plan, dpu) = s
        .sim_plan()?
        .ok_or_else(|| "fault scenarios need a stage-plan incumbent".to_string())?;
    if !dpu {
        return Err("fault scenarios require a DPU incumbent (the splice is DPU-only)".into());
    }
    let l = Lowering::new(&w, &hw, s.sim_batch, FAULT_ROUNDS);
    let lowered = lower_faulted(&l, &plan, &fault.script, fault.replan)
        .map_err(|e| format!("fault lowering: {e}"))?;
    let sim = simulate_faulted(&lowered.graph, &fault.script)
        .map_err(|e| format!("degraded simulation: {e}"))?;
    let simulated = sim
        .run
        .round_period(&lowered.graph, FAULT_ROUNDS, FAULT_TAIL);
    // Every script settles before the tail window, so the cluster state at
    // the last round is the steady state the final segment planned for.
    let server = DegradedServer::at_step(&hw, &fault.script, FAULT_ROUNDS - 1)
        .map_err(|e| format!("degraded snapshot: {e}"))?;
    let analytic = degraded_estimate(&lowered.final_segment().plan, &server, &w, s.sim_batch);
    Ok(FaultMeasurement {
        ratio: ratio(simulated, analytic),
        overhead_ns: lowered.total_overhead.as_ns(),
        segments: lowered.segments.len(),
    })
}

/// What the executor-recovery differential measured for one scenario.
struct RecoveryMeasurement {
    /// Recovered vs uninterrupted-reference parameter drift.
    param_diff: f64,
    /// Recovered vs uninterrupted-reference loss drift.
    loss_diff: f64,
    /// Checkpoint restores the protocol performed.
    restores: usize,
    /// Executor-level replanning passes.
    replans: usize,
    /// Membership growths the protocol performed.
    grows: usize,
    /// Whether the run finished on the reference fallback.
    fell_back: bool,
}

/// The executor-recovery differential: drive the scenario's fault script
/// against the real threaded executor through the recovery protocol
/// (kill → restore latest checkpoint → replan over survivors → resume)
/// and compare the recovered parameters against an *uninterrupted*
/// reference run — the replay-equivalence claim, executed.
fn recovery_differential(s: &Scenario, fault: &FaultCase) -> Result<RecoveryMeasurement, String> {
    let (teacher, student, data, func) = s.exec_setup(8)?;
    let golden = reference::run(&teacher, &student, &data, &func)
        .map_err(|e| format!("reference run failed: {e}"))?;
    let workload = pipebd_models::Workload::synthetic(s.blocks, s.heavy_first);
    let runner = RecoveryRunner {
        workload: &workload,
        script: &fault.script,
        policy: RecoveryPolicy::default(),
        sink: Arc::new(MemorySink::default()),
        trace: None,
    };
    let report = runner
        .run(&teacher, &student, &data, &func)
        .map_err(|e| format!("recovery run failed: {e}"))?;
    Ok(RecoveryMeasurement {
        param_diff: f64::from(report.outcome.max_param_diff(&golden)),
        loss_diff: f64::from(report.outcome.max_loss_diff(&golden)),
        restores: report.restores,
        replans: report.replans,
        grows: report.grows,
        fell_back: report.fell_back,
    })
}

fn ratio(simulated: SimTime, analytic: SimTime) -> f64 {
    let a = analytic.as_secs_f64();
    if a <= 0.0 {
        return f64::INFINITY;
    }
    simulated.as_secs_f64() / a
}

/// When the estimator's bottleneck margin is decisive, the simulator's
/// busiest rank must sit in the predicted bottleneck stage. `graph` is
/// the plan's already-lowered task graph.
#[allow(clippy::too_many_arguments)]
fn bottleneck_agreement(
    plan: &StagePlan,
    graph: &TaskGraph,
    table: &pipebd_sched::ProfileTable,
    w: &pipebd_models::Workload,
    hw: &pipebd_sim::HardwareConfig,
    s: &Scenario,
    book: &ToleranceBook,
) -> (bool, bool) {
    if plan.stages.len() < 2 {
        return (false, true);
    }
    let (idx, margin) = bottleneck_stage(plan, table, w, hw, s.sim_batch);
    if margin < book.bottleneck_margin {
        return (false, true);
    }
    let busy = busy_per_gpu(graph);
    let busiest = busy
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| **t)
        .map(|(d, _)| d)
        .unwrap_or(0);
    (true, plan.stages[idx].devices.contains(&busiest))
}

/// Records an executor-direction measurement in `outcome` and judges it
/// against `tol` (`0.0` = bitwise); a failure is described as `what`.
fn judge_drift(
    outcome: &mut ScenarioOutcome,
    failures: &mut Vec<String>,
    what: &str,
    tol: f32,
    (param_diff, loss_diff): (f64, f64),
) {
    outcome.exec_tolerance = f64::from(tol);
    outcome.max_param_diff = param_diff;
    outcome.max_loss_diff = loss_diff;
    let worst = param_diff.max(loss_diff);
    outcome.exec_ok = if tol == 0.0 {
        worst == 0.0
    } else {
        worst < f64::from(tol)
    };
    if !outcome.exec_ok {
        failures.push(format!(
            "{what} drift: param {param_diff:.3e} / loss {loss_diff:.3e} vs tolerance {tol:.0e}"
        ));
    }
}

/// Runs both differential checks for one scenario under the given
/// tolerance book. Touches no process-wide state, so sweeps may run
/// scenarios from parallel tests.
pub fn run_scenario(s: &Scenario, book: &ToleranceBook) -> ScenarioOutcome {
    let budget = match &s.fault {
        Some(f) => book.fault_budget(f.class),
        None => book.sim_budget(s.strategy),
    };
    let mut outcome = ScenarioOutcome {
        id: s.id.clone(),
        max_param_diff: f64::NAN,
        max_loss_diff: f64::NAN,
        exec_tolerance: f64::NAN,
        exec_ok: false,
        sim_ratio: f64::NAN,
        ratio_lo: budget.lo,
        ratio_hi: budget.hi,
        sim_ok: false,
        bottleneck_checked: false,
        bottleneck_ok: false,
        fault_class: s
            .fault
            .as_ref()
            .map(|f| f.class.label().to_string())
            .unwrap_or_default(),
        replan: s.fault.as_ref().is_some_and(|f| f.replan),
        replan_overhead_ns: 0,
        fault_segments: 0,
        recovery_checked: false,
        restores: 0,
        exec_replans: 0,
        grows: 0,
        fell_back: false,
        pass: false,
        detail: String::new(),
    };
    let mut failures: Vec<String> = Vec::new();

    if let Some(fault) = &s.fault {
        outcome.bottleneck_ok = true;
        if fault.exec_recovery {
            // The executor direction runs the recovery protocol: kill
            // mid-training, restore, replan, resume — and the recovered
            // model must match an uninterrupted reference run.
            outcome.recovery_checked = true;
            match (s.exec_tolerance(), recovery_differential(s, fault)) {
                (Ok(tol), Ok(m)) => {
                    let diffs = (m.param_diff, m.loss_diff);
                    judge_drift(&mut outcome, &mut failures, "recovered-run", tol, diffs);
                    outcome.restores = m.restores;
                    outcome.exec_replans = m.replans;
                    outcome.grows = m.grows;
                    outcome.fell_back = m.fell_back;
                    // A script that kills a rank mid-run must actually
                    // exercise the protocol; a membership-preserving one
                    // must never touch it. Step 0 is planning time: a rank
                    // lost there never starts.
                    let kills = fault.script.events.iter().any(|e| {
                        matches!(e, pipebd_sim::FaultEvent::HostLoss { at_step, .. }
                            if *at_step > 0 && (*at_step as usize) < s.exec_steps)
                    });
                    if kills && m.restores == 0 && !m.fell_back {
                        failures.push("host-loss script triggered no restore".into());
                    }
                    if !kills && (m.restores > 0 || m.fell_back) {
                        failures.push(format!(
                            "membership-preserving script triggered {} restores",
                            m.restores
                        ));
                    }
                    // The same cross-check for elastic joins: a script
                    // whose join fires inside the run must grow the
                    // member set (growth, not restores — growing consumes
                    // no restore budget), and a join-free script must
                    // never grow it.
                    let joins = fault.script.events.iter().any(|e| {
                        matches!(e, pipebd_sim::FaultEvent::HostJoin { at_step, .. }
                            if *at_step > 0 && (*at_step as usize) < s.exec_steps)
                    });
                    if joins && m.grows == 0 {
                        failures.push("elastic-join script grew nothing".into());
                    }
                    if !joins && m.grows > 0 {
                        failures.push(format!(
                            "join-free script recorded {} membership growths",
                            m.grows
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => failures.push(e),
            }
        } else {
            // Timing-plane-only fault scenarios: faults change *when*
            // things run, never what is computed, and the healthy matrix
            // already pins the functional side of every incumbent.
            outcome.max_param_diff = 0.0;
            outcome.max_loss_diff = 0.0;
            outcome.exec_tolerance = 0.0;
            outcome.exec_ok = true;
        }
        match fault_differential(s, fault) {
            Ok(m) => {
                outcome.sim_ratio = m.ratio;
                outcome.sim_ok = budget.contains(m.ratio);
                outcome.replan_overhead_ns = m.overhead_ns;
                outcome.fault_segments = m.segments;
                if !outcome.sim_ok {
                    failures.push(format!(
                        "degraded sim/estimate ratio {:.3} outside [{:.2}, {:.2}] ({} budget)",
                        m.ratio,
                        budget.lo,
                        budget.hi,
                        fault.class.label()
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
        outcome.pass = failures.is_empty();
        outcome.detail = failures.join("; ");
        return outcome;
    }

    match (s.exec_tolerance(), exec_differential(s)) {
        (Ok(tol), Ok(diffs)) => judge_drift(&mut outcome, &mut failures, "executor", tol, diffs),
        (Err(e), _) | (_, Err(e)) => failures.push(e),
    }

    match sim_differential(s, book) {
        Ok((r, checked, ok)) => {
            outcome.sim_ratio = r;
            outcome.sim_ok = budget.contains(r);
            outcome.bottleneck_checked = checked;
            outcome.bottleneck_ok = ok;
            if !outcome.sim_ok {
                failures.push(format!(
                    "sim/estimate ratio {r:.3} outside [{:.2}, {:.2}]",
                    budget.lo, budget.hi
                ));
            }
            if checked && !ok {
                failures.push("bottleneck stage disagreement".to_string());
            }
        }
        Err(e) => failures.push(e),
    }

    outcome.pass = failures.is_empty();
    outcome.detail = failures.join("; ");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_core::ExecutorChoice;
    use pipebd_sim::{Resource, TaskKind};

    #[test]
    fn simulated_round_period_measures_a_uniform_pipeline() {
        // 1 GPU, 10 steps of a single 10 µs task each: the steady period
        // is exactly 10 µs regardless of the tail length.
        let mut g = TaskGraph::new(1);
        let mut prev = None;
        for step in 0..10u32 {
            let t = g.add_tagged(
                Resource::Gpu(0),
                TaskKind::Teacher,
                SimTime::from_us(10.0),
                prev.as_slice(),
                None,
                step,
            );
            prev = Some(t);
        }
        let run = simulate(&g);
        for tail in [1, 4, 8] {
            assert_eq!(run.round_period(&g, 10, tail), SimTime::from_us(10.0));
        }
    }

    #[test]
    #[should_panic(expected = "tail window")]
    fn simulated_round_period_rejects_degenerate_tail() {
        let g = TaskGraph::new(1);
        let _ = simulate(&g).round_period(&g, 4, 4);
    }

    #[test]
    fn one_scenario_passes_end_to_end() {
        // The cheapest scenario in the matrix, run for real: a 3-block
        // 2-rank TR+DPU pipeline.
        let book = ToleranceBook::gate_default();
        let all = crate::enumerate();
        let s = all
            .iter()
            .find(|s| {
                s.blocks == 3
                    && s.ranks == 2
                    && s.strategy == ConformanceStrategy::TrDpu
                    && s.subject == ExecutorChoice::Threaded
            })
            .expect("matrix covers the smoke scenario");
        let outcome = run_scenario(s, &book);
        assert!(outcome.pass, "{}: {}", outcome.id, outcome.detail);
        assert_eq!(outcome.max_param_diff, 0.0, "width-1 plan is bitwise");
    }
}

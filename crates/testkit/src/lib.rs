//! The conformance plane: one harness that forces the repository's three
//! independently-built planes to agree with each other.
//!
//! Pipe-BD's claims rest on three components telling the same story:
//!
//! 1. the **executed pipeline** (`pipebd_core::exec`) — real training on
//!    device threads;
//! 2. the **discrete-event simulator** (`pipebd_sim`) — the stand-in for
//!    the paper's hardware;
//! 3. the **analytic estimator** (`pipebd_sched::estimate`) — the cost
//!    model the AHD search minimizes.
//!
//! PipeDream-style profile-driven planning is only as trustworthy as the
//! fidelity of its predictions against real execution, and BaPipe shows
//! balanced-pipeline conclusions flip when per-stage cost assumptions
//! drift. Before this crate the planes were spot-checked pairwise in a
//! handful of tests; here the cross-product of model shapes × strategies ×
//! executors × batch/rank/pool configurations is enumerated
//! deterministically ([`enumerate`]) and every scenario runs the full
//! differential ([`run_scenario`]):
//!
//! * **Executor differential** — [`reference::run`] vs the scenario's
//!   subject executor on real miniature models: bit-level loss/parameter
//!   agreement for width-1 plans, reassociation-bounded (`1e-4`) for
//!   batch-split plans;
//! * **Simulator vs estimator** — the scenario's plan (or baseline
//!   schedule) lowered into the event simulator, its steady-state period
//!   checked against the analytic prediction within a per-strategy
//!   relative-error budget ([`ToleranceBook`]), plus a bottleneck-stage
//!   agreement check when the estimator's margin is decisive;
//! * **Fault differential** — scenarios carrying a [`FaultCase`] lower
//!   the plan under a deterministic fault script (host slowdowns, loss,
//!   join, loader slowdown), optionally splicing in an online AHD replan,
//!   simulate the degraded cluster, and check the settled tail period
//!   against `pipebd_sched`'s degraded estimate under per-fault-class
//!   budgets. Faults change *when* work runs, never *what* is computed,
//!   so most fault scenarios skip the executor differential (the healthy
//!   matrix pins it);
//! * **Recovery differential** — fault scenarios flagged `exec_recovery`
//!   drive their script against the *real* threaded executor through the
//!   recovery protocol (`pipebd_core::exec::recovery`): the run is killed
//!   mid-training, restored from its latest checkpoint, replanned over
//!   the surviving ranks, and resumed — and the recovered parameters must
//!   match an uninterrupted reference run, *bitwise* for width-1
//!   incumbents and within [`ToleranceBook::RECOVERY_SPLIT_EXEC`] for
//!   batch-split ones (replay equivalence, executed). The rejoin slice
//!   extends this to *elastic growth*: hosts joining mid-run — including
//!   a killed rank's hardware rejoining under a fresh logical rank — are
//!   admitted at a round boundary by the executor's device-thread
//!   registry, consume no restore budget, and must preserve the same
//!   replay-equivalence bounds across the grow.
//!
//! Scenarios ([`Scenario`]) and outcomes ([`ConformanceReport`]) are
//! serializable artifacts, persisted through `pipebd_artifact` by the
//! `regression_gate` binary so every CI run leaves an auditable record.
//! Everything is seeded and `Date`-free: the same commit always enumerates
//! and replays the same scenarios.
//!
//! [`reference::run`]: pipebd_core::exec::reference::run

#![warn(missing_docs)]

mod differential;
mod scenario;
mod tolerance;
mod trace;

pub use differential::{
    run_scenario, ConformanceReport, ExecSetup, ScenarioOutcome, FAULT_ROUNDS, FAULT_TAIL,
};
pub use scenario::{
    enumerate, ConformanceStrategy, FaultCase, FaultClass, ModelShape, Scenario, ScenarioSet,
    SimWorkload,
};
pub use tolerance::{RatioBudget, ToleranceBook};
pub use trace::{
    compute_lanes, run_trace_scenario, trace_scenarios, TraceRun, TRACE_STEPS, TRACE_TAIL,
};

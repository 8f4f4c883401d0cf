//! The recovery protocol: checkpoint → replan → resume, with a bounded
//! restore budget — in both directions of membership change.
//!
//! [`RecoveryRunner::run`] drives the threaded executor one *epoch* at a
//! time under a fault script. Each epoch runs up to the next scripted
//! join, clipped to `cfg.steps`, and the runner matches on how it ended
//! (`EpochEnd`):
//!
//! * **Finished** at `cfg.steps` — the run is done.
//! * **Finished** before `cfg.steps` — a growth: the epoch stopped at a
//!   scripted `HostJoin`, and every incumbent captured a checkpoint at
//!   exactly that round. The replan-and-restore path below runs over the
//!   **enlarged** member set (the admitted joiner becomes a member, later
//!   joiners stay pending) and resumes from the boundary checkpoint.
//!   Growth consumes no restore budget — nothing was lost. A loss scripted
//!   at the join's step never fires in the ending epoch; the replan at
//!   the join drops the lost rank.
//! * **Lost** — a rank was cancelled. The runner takes the one
//!   replan-and-restore path: snapshot the members alive at the loss
//!   step, ask `pipebd_sched::replan` for a plan over them, re-lay the
//!   fault timeline out over them (`FaultTimeline::for_survivors`),
//!   restore the latest checkpoint of this run's plan lineage, and run the
//!   next epoch — up to `max_restores` times.
//!   Exhausting the budget degrades gracefully: either to the
//!   single-threaded reference executor (which cannot lose a rank)
//!   resuming from the last checkpoint, or to a clean
//!   [`ExecError::RecoveryExhausted`].
//!
//! Anything else an epoch returns is a real error and ends the run.
//!
//! The script is read once, as a `FaultTimeline` over the worker set plus
//! one rank per joiner beyond it. Step 0 is planning time: when the step-0
//! members are not the configured workers (an in-set rank joins later, a
//! rank joins or is lost at step 0), the first epoch is planned over them
//! by the same replan, with nothing to restore. A lost host's *hardware*
//! rejoins under a fresh logical rank (`HostJoin` on a new id): a rank
//! joins and leaves at most once, and a cancelled worker cannot restart.
//!
//! Every epoch's checkpoints carry the plan's structural fingerprint.
//! Every restore — after a loss, after a growth, and for the reference
//! fallback — takes one step, `Run::restore`: read the sink's latest
//! checkpoint and refuse it with [`CheckpointError::ForeignPlan`] unless
//! its fingerprint is in the lineage of every plan this run has used, so a
//! checkpoint from a foreign run (or a stale sink) fails loudly instead of
//! silently resuming the wrong model. What passes goes to the executor,
//! whose resume gate checks it against the run and the student before any
//! work starts.
//!
//! # Replay equivalence
//!
//! A recovered run trains the *same model* as an uninterrupted one:
//!
//! * **Width-1 plans** — bitwise. The checkpoint restores exactly the
//!   state the uninterrupted run held at its round, remaining steps
//!   replay the same per-index-deterministic batches, and the runner
//!   never substitutes a batch-split plan for a split-free incumbent
//!   (the contiguous fallback preserves width 1), so every float op
//!   recurs in the same order on the same values. Growth keeps this:
//!   the forced boundary checkpoint means the joined rank never
//!   recomputes pre-join steps.
//! * **Batch-split plans** — shard-mean averaging reorders float
//!   summation, so parity carries the usual accumulation-error budget
//!   (the conformance plane's recovery tolerance), not bitwise equality.

use std::sync::Arc;

use pipebd_data::SyntheticImageDataset;
use pipebd_models::Workload;
use pipebd_nn::BlockNet;
use pipebd_sched::replan::replan;
use pipebd_sched::DegradedServer;
use pipebd_sim::{FaultEvent, FaultScript, FaultTimeline, HardwareConfig};
use pipebd_trace::{SpanKind, TraceCollector};

use super::fault::FaultDriver;
use super::registry::EpochEnd;
use super::threaded::{self, RunHooks};
use super::{reference, ExecError, FuncConfig, FuncOutcome, RunSpec, SpecError};
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, CheckpointSink};

/// Bounds and knobs for the recovery protocol.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Rounds between checkpoints (`0` disables capture — a loss then
    /// restarts training from scratch).
    pub checkpoint_every: usize,
    /// Maximum restore attempts before degrading to the fallback.
    pub max_restores: usize,
    /// Whether budget exhaustion falls back to the reference executor
    /// (`true`) or surfaces [`ExecError::RecoveryExhausted`] (`false`).
    pub reference_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: 2,
            max_restores: 3,
            reference_fallback: true,
        }
    }
}

/// What a recovered run did, alongside its outcome.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The trained result (same contract as a healthy run's outcome).
    pub outcome: FuncOutcome,
    /// Restore attempts consumed (0 = the run never lost a rank).
    /// Membership growth does not count here — see `grows`.
    pub restores: usize,
    /// Membership growths performed (scripted joins admitted at a round
    /// boundary). Growth consumes no restore budget.
    pub grows: usize,
    /// The checkpoint round each restore or growth resumed from (0 =
    /// restarted from scratch because no checkpoint had been captured
    /// yet).
    pub resumed_rounds: Vec<usize>,
    /// Replanning passes performed (one per mid-run restore or growth,
    /// plus one when the step-0 members are not the configured devices).
    pub replans: usize,
    /// Whether the run finished on the reference-executor fallback.
    pub fell_back: bool,
    /// Logical devices of the final (possibly degraded) configuration.
    pub final_devices: usize,
}

/// Orchestrates threaded runs under a fault script with checkpoint
/// /restore recovery (see the [module docs](self)).
pub struct RecoveryRunner<'a> {
    /// Cost-model description of the blocks (drives `replan`'s degraded
    /// search; must describe the same block count as the networks).
    pub workload: &'a Workload,
    /// The fault script to execute under.
    pub script: &'a FaultScript,
    /// Restore budget and checkpoint cadence.
    pub policy: RecoveryPolicy,
    /// Where checkpoints go and restores come from.
    pub sink: Arc<dyn CheckpointSink>,
    /// Optional trace collector: worker spans flow through the threaded
    /// executor's hooks, and the runner itself records control-track
    /// [`SpanKind::Restore`] / [`SpanKind::Replan`] events per attempt.
    pub trace: Option<Arc<TraceCollector>>,
}

impl RecoveryRunner<'_> {
    /// Trains `student` against `teacher` under the fault script,
    /// recovering from rank losses and admitting scripted joins (see
    /// the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Spec`] for a config that is not a run, a
    /// workload of another block count, scripts with no timeline over the
    /// worker set and its joiners or that leave no member at some step,
    /// faults under coupled updates, and member sets no plan runs on;
    /// [`ExecError::RecoveryExhausted`] when the budget runs out with no
    /// fallback configured, [`ExecError::Checkpoint`] when the sink fails,
    /// its checkpoint was written under a plan outside the run's lineage,
    /// or the resume gate refuses it, or any underlying executor error.
    pub fn run(
        &self,
        teacher: &BlockNet,
        student: &BlockNet,
        data: &SyntheticImageDataset,
        cfg: &FuncConfig,
    ) -> Result<RecoveryReport, ExecError> {
        let spec = RunSpec::new(teacher, student, cfg)?;
        if self.workload.num_blocks() != spec.blocks() {
            return Err(SpecError::WorkloadBlocks {
                workload: self.workload.num_blocks(),
                blocks: spec.blocks(),
            }
            .into());
        }
        // The rank space: the workers, then one fresh rank per joiner.
        let joiners = self.script.events.iter().filter(|e| match e {
            FaultEvent::HostJoin { rank, .. } => *rank >= cfg.devices,
            _ => false,
        });
        let timeline = self
            .script
            .timeline(cfg.devices + joiners.count())
            .map_err(SpecError::FaultScript)?;
        let mut run = Run {
            runner: self,
            teacher,
            student,
            data,
            // The replay-equivalence contract: a split-free incumbent must
            // stay split-free through every replan, or bitwise parity dies.
            preserve_width1: !spec.plan.uses_batch_split(),
            spec,
            timeline,
            resume: None,
            lineage: Vec::new(),
            restores: 0,
            grows: 0,
            replans: 0,
            resumed_rounds: Vec::new(),
        };
        // Step 0 is planning time: the first epoch runs over the step-0
        // members. Nothing has run, so nothing is restored.
        if run.timeline.members(0) != (0..cfg.devices).collect::<Vec<_>>() {
            run.replan(0)?;
        } else {
            run.lineage.push(run.spec.plan.fingerprint());
        }

        loop {
            // The member set is fixed within an epoch: it ends at the next
            // join, where the run grows.
            let join = run.timeline.first_join().map(|j| j as usize);
            let end = join.map_or(cfg.steps, |j| j.min(cfg.steps));
            let step = match run.epoch(end)? {
                EpochEnd::Finished(outcome) if end == cfg.steps => {
                    return Ok(run.report(outcome, false))
                }
                // Growth consumes no restore budget — nothing was lost.
                EpochEnd::Finished(_) => {
                    run.grows += 1;
                    end
                }
                EpochEnd::Lost { .. } if run.restores == self.policy.max_restores => {
                    return run.exhausted()
                }
                EpochEnd::Lost { step, .. } => {
                    run.restores += 1;
                    step
                }
            };
            run.replan_and_restore(step)?;
        }
    }
}

/// One recovered run's loop state: what the next epoch runs under, and
/// what the report will count.
struct Run<'a> {
    runner: &'a RecoveryRunner<'a>,
    teacher: &'a BlockNet,
    student: &'a BlockNet,
    data: &'a SyntheticImageDataset,
    preserve_width1: bool,
    /// The next epoch's run: its devices and plan.
    spec: RunSpec,
    /// The fault timeline laid out over the current members, then the
    /// pending joiners.
    timeline: FaultTimeline,
    resume: Option<Arc<Checkpoint>>,
    /// The plan fingerprints of every epoch this run has used, newest
    /// last — the lineage restores are checked against.
    lineage: Vec<String>,
    restores: usize,
    grows: usize,
    replans: usize,
    resumed_rounds: Vec<usize>,
}

impl Run<'_> {
    /// Runs one epoch of the threaded executor under the current
    /// timeline, up to round `end`.
    fn epoch(&self, end: usize) -> Result<EpochEnd, ExecError> {
        let runner = self.runner;
        let driver = FaultDriver::new(&self.timeline, self.spec.cfg.decoupled_updates)?;
        let hooks = RunHooks {
            driver: Some(Arc::new(driver)),
            resume: self.resume.clone(),
            checkpoint: Some((
                CheckpointPolicy::every(runner.policy.checkpoint_every),
                Arc::clone(&runner.sink),
            )),
            trace: runner.trace.clone(),
        };
        let (teacher, student, data) = (self.teacher, self.student, self.data);
        threaded::run_epoch(teacher, student, data, &self.spec, &hooks, end)
    }

    /// Re-forms the run over the members alive at `step`: a fresh plan
    /// search over them, and the timeline laid out over them. The searched
    /// plan runs if it is a run (and keeps a split-free incumbent
    /// split-free); otherwise the contiguous plan over the members does.
    fn replan(&mut self, step: usize) -> Result<(), SpecError> {
        let hw = HardwareConfig::a6000_server(self.timeline.num_ranks());
        let server = DegradedServer::from_timeline(&hw, &self.timeline, step as u32)
            .map_err(SpecError::FaultScript)?;
        let members = server.num_members();
        let searched = replan(self.runner.workload, &server, self.spec.cfg.batch).plan;
        self.replans += 1;
        let over = |plan| FuncConfig {
            devices: members,
            plan,
            ..self.spec.cfg.clone()
        };
        let (teacher, student) = (self.teacher, self.student);
        let spec = match RunSpec::new(teacher, student, &over(Some(searched))) {
            Ok(spec) if !(self.preserve_width1 && spec.plan.uses_batch_split()) => spec,
            _ => RunSpec::new(teacher, student, &over(None)).map_err(|why| SpecError::Replan {
                step,
                members,
                why: Box::new(why),
            })?,
        };
        // The admitted joiners are members now; later joiners stay
        // pending under fresh ranks, so staggered joins grow epoch by
        // epoch.
        self.timeline = self.timeline.for_survivors(step as u32);
        self.lineage.push(spec.plan.fingerprint());
        self.spec = spec;
        Ok(())
    }

    /// The one path after a membership change at `step`, loss or growth:
    /// [`replan`](Self::replan), then restore the latest checkpoint of
    /// this run's lineage (none yet means restarting from scratch).
    fn replan_and_restore(&mut self, step: usize) -> Result<(), ExecError> {
        let trace = self.runner.trace.as_deref();
        let timed = |kind: SpanKind, t0: Option<u64>| {
            if let (Some(tc), Some(t0)) = (trace, t0) {
                tc.event(kind, step as u32, t0, tc.now_ns());
            }
        };
        let t0 = trace.map(TraceCollector::now_ns);
        self.replan(step)?;
        timed(SpanKind::Replan, t0);
        let t0 = trace.map(TraceCollector::now_ns);
        self.restore()?;
        timed(SpanKind::Restore, t0);
        Ok(())
    }

    /// The one restore step: the sink's latest checkpoint becomes the
    /// next run's resume point (none yet means restarting from scratch),
    /// unless a plan outside this run's lineage wrote it.
    fn restore(&mut self) -> Result<(), CheckpointError> {
        let latest = self.runner.sink.latest()?;
        if let Some(ckpt) = latest.as_ref() {
            if !self.lineage.contains(&ckpt.plan_fingerprint) {
                return Err(CheckpointError::ForeignPlan {
                    round: ckpt.round,
                    found: ckpt.plan_fingerprint.clone(),
                    lineage: self.lineage.clone(),
                });
            }
        }
        self.resumed_rounds
            .push(latest.as_ref().map_or(0, |c| c.round));
        self.resume = latest.map(Arc::new);
        Ok(())
    }

    /// Budget exhausted: reference fallback or a structured error.
    fn exhausted(mut self) -> Result<RecoveryReport, ExecError> {
        if !self.runner.policy.reference_fallback {
            return Err(ExecError::RecoveryExhausted {
                attempts: self.restores,
            });
        }
        self.restore()?;
        let (teacher, student, data) = (self.teacher, self.student, self.data);
        let from = self.resume.as_deref();
        let outcome = reference::replay(teacher, student, data, &self.spec, from)?;
        Ok(self.report(outcome, true))
    }

    fn report(self, outcome: FuncOutcome, fell_back: bool) -> RecoveryReport {
        RecoveryReport {
            outcome,
            restores: self.restores,
            grows: self.grows,
            resumed_rounds: self.resumed_rounds,
            replans: self.replans,
            fell_back,
            final_devices: if fell_back { 1 } else { self.spec.cfg.devices },
        }
    }
}

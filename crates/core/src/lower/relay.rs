//! Teacher relaying (Fig. 3b), decoupled parameter update (Fig. 3c), and
//! the full hybrid Pipe-BD schedule (Fig. 3d), all lowered from a
//! [`StagePlan`].
//!
//! Every stage executes, per round: receive the boundary activation from
//! the previous stage (or load data, for stage 0) → teacher blocks → send
//! the boundary onward (on the copy engine, overlapped) → student blocks →
//! (gradient sharing, if the stage is batch-split) → updates. Without DPU a
//! global barrier precedes the updates; with DPU each block updates
//! immediately and the next round starts as soon as input is available.

use std::ops::Range;

use pipebd_sched::{ahd, CostModel, Profiler, StagePlan};
use pipebd_sim::{Resource, TaskGraph, TaskId, TaskKind};

use super::{Loads, Lowered, Lowering};

/// Lowers plain teacher relaying (optionally with DPU) on the naive
/// contiguous plan.
///
/// # Errors
///
/// Returns an error if there are fewer blocks than devices (plain TR
/// cannot batch-split; the paper's AHD exists for exactly that reason).
pub fn lower_contiguous(l: &Lowering<'_>, dpu: bool) -> Result<Lowered, String> {
    let plan =
        StagePlan::contiguous(l.workload.num_blocks(), l.hw.num_gpus).map_err(|e| e.to_string())?;
    Ok(lower_plan(l, &plan, dpu))
}

/// Lowers the full Pipe-BD schedule: profile, search hybrid plans, then
/// emit the chosen plan with DPU.
///
/// The search profiles the analytic cost model itself, whatever table
/// prices the emitted tasks.
///
/// # Errors
///
/// Currently infallible in practice (the hybrid space is never empty); the
/// `Result` mirrors [`lower_contiguous`] for a uniform dispatch signature.
pub fn lower_ahd(l: &Lowering<'_>) -> Result<Lowered, String> {
    let cost = CostModel::new(l.hw.gpu.clone());
    let table = Profiler::new(cost).profile(&l.workload.model, l.batch, l.hw.num_gpus);
    let decision = ahd::search(l.workload, &table, l.hw, l.batch);
    Ok(lower_plan(l, &decision.plan, true))
}

/// Incremental emitter of relayed-pipeline rounds.
///
/// Owns the task graph plus the state that crosses round boundaries — the
/// per-consumer prefetch throttle and the previous round's barrier updates
/// — so callers can splice rounds of *different* plans into one schedule.
/// [`lower_plan`] drives it with a single plan and the identity device
/// map; the fault plane (`super::fault`) re-plans at fault boundaries and
/// switches plan and device map mid-schedule.
pub(crate) struct RoundEmitter<'l, 'a> {
    l: &'l Lowering<'a>,
    pub(crate) graph: TaskGraph,
    /// Prefetch throttling per *physical* rank.
    loads: Loads,
    /// Update tasks of the previous round (barrier deps when `!dpu`).
    prev_round_updates: Vec<TaskId>,
}

impl<'l, 'a> RoundEmitter<'l, 'a> {
    pub(crate) fn new(l: &'l Lowering<'a>) -> Self {
        let n = l.hw.num_gpus;
        RoundEmitter {
            l,
            graph: TaskGraph::new(n),
            loads: Loads::new(n),
            prev_round_updates: Vec::new(),
        }
    }

    /// Emits `rounds` of `plan`, the first gated by `gate` (see
    /// [`RoundEmitter::emit_round`]), and returns the index of the last
    /// round's first task. Later rounds take the first one's size, plus a
    /// prefetch throttle per device, so it reserves them.
    pub(crate) fn emit_rounds(
        &mut self,
        plan: &StagePlan,
        dpu: bool,
        rounds: Range<u32>,
        map: &[usize],
        gate: &[TaskId],
    ) -> usize {
        let (tasks, edges) = (self.graph.len(), self.graph.num_edges());
        let mut mark = tasks;
        for round in rounds.clone() {
            mark = self.graph.len();
            let first = round == rounds.start;
            self.emit_round(plan, dpu, round, map, if first { gate } else { &[] });
            if first {
                let rest = (rounds.end - round - 1) as usize;
                let added = self.graph.len() - tasks;
                let linked = self.graph.num_edges() - edges + self.l.hw.num_gpus;
                self.graph.reserve(rest * added, rest * linked);
            }
        }
        mark
    }

    /// Emits one round of `plan`.
    ///
    /// `map` sends the plan's logical device ranks to physical GPU ranks
    /// (`map[d] = d` reproduces the classic lowering exactly);
    /// `extra_deps` additionally gate the round's stage-0 inputs — the
    /// replan-barrier tasks at a segment splice. Every other task of the
    /// round chains off stage 0 (directly or through relay sends), so
    /// gating stage 0 gates the round.
    pub(crate) fn emit_round(
        &mut self,
        plan: &StagePlan,
        dpu: bool,
        round: u32,
        map: &[usize],
        extra_deps: &[TaskId],
    ) {
        let RoundEmitter {
            l,
            graph: g,
            loads,
            prev_round_updates,
        } = self;
        // Boundary sends of the previous stage within this round.
        let mut prev_stage_sends: Vec<TaskId> = Vec::new();
        let mut this_round_students: Vec<TaskId> = Vec::new();
        // Deferred update emission for the barrier (non-DPU) case:
        // (logical device, block, deps-so-far).
        let mut pending_updates: Vec<(usize, usize, TaskId)> = Vec::new();
        // The dependency list being assembled for the next task.
        let mut deps: Vec<TaskId> = Vec::new();

        for stage in &plan.stages {
            let db = stage.device_batch(l.batch);
            let prices = l.at(db);
            // Each member's last student: its backwards run in order on
            // one stream, so that one finishing means all of them have.
            let mut member_lasts: Vec<TaskId> = Vec::with_capacity(stage.width());
            let mut stage_sends: Vec<TaskId> = Vec::new();
            // Relay the boundary activation onward, unless this stage
            // holds the last block.
            let last_block = stage.first_block + stage.num_blocks - 1;
            let send_time = (last_block + 1 < plan.num_blocks).then(|| {
                let bytes = l.workload.model.blocks[last_block].boundary_bytes() * db as u64;
                l.hw.pcie.transfer_time(bytes)
            });

            for &d in &stage.devices {
                let p = map[d];
                let gpu = Resource::Gpu(p);
                // Input: load for stage 0, relay receive otherwise.
                deps.clear();
                if stage.first_block == 0 {
                    deps.push(loads.emit(g, prices, p, round));
                    deps.extend_from_slice(extra_deps);
                } else {
                    deps.extend_from_slice(&prev_stage_sends);
                }
                // Without DPU the new round may not start before the global
                // barrier of the previous round resolved.
                if !dpu {
                    deps.extend_from_slice(prev_round_updates);
                }

                // Teacher chain over the stage's blocks (a valid plan's
                // stages hold at least one, `StagePlan::validate`): the
                // first waits for the input, each next for the last.
                let first = stage.first_block;
                let tag = Some(first as u16);
                let teacher = prices.teacher(first);
                let mut last_teacher =
                    g.add_tagged(gpu, TaskKind::Teacher, teacher, &deps, tag, round);
                for b in stage.blocks().skip(1) {
                    let (teacher, tag) = (prices.teacher(b), Some(b as u16));
                    last_teacher =
                        g.add_tagged(gpu, TaskKind::Teacher, teacher, &[last_teacher], tag, round);
                }

                // Relay the boundary activation onward (overlapped on the
                // copy engine).
                if let Some(send_time) = send_time {
                    let send = g.add_tagged(
                        Resource::Copy(p),
                        TaskKind::Comm,
                        send_time,
                        &[last_teacher],
                        Some(last_block as u16),
                        round,
                    );
                    stage_sends.push(send);
                }

                // Students (forward + backward) per block.
                let mut last_stu = last_teacher;
                for b in stage.blocks() {
                    let tag = Some(b as u16);
                    let student = prices.student(b);
                    let stu =
                        g.add_tagged(gpu, TaskKind::Student, student, &[last_stu], tag, round);
                    if !dpu {
                        // Only the barrier below reads them.
                        this_round_students.push(stu);
                    }
                    last_stu = stu;

                    if stage.width() > 1 {
                        // Updated after the gradient sharing below.
                    } else if dpu {
                        // Immediate per-block update (Fig. 3c).
                        let update = l.update(b);
                        last_stu = g.add_tagged(gpu, TaskKind::Update, update, &[stu], tag, round);
                    } else {
                        pending_updates.push((d, b, stu));
                    }
                }
                member_lasts.push(last_stu);
            }

            // Data-parallel gradient sharing inside a widened stage: one
            // fused all-reduce per member, depending on every member's
            // backwards (its last student); the member's updates chain
            // after it.
            if stage.width() > 1 {
                let grad_bytes: u64 = stage
                    .blocks()
                    .map(|b| 4 * l.workload.model.blocks[b].student_params)
                    .sum();
                let share_time = l.hw.pcie.allreduce_time(grad_bytes, stage.width());
                for &d in &stage.devices {
                    let gpu = Resource::Gpu(map[d]);
                    let share = g.add_tagged(
                        gpu,
                        TaskKind::GradShare,
                        share_time,
                        &member_lasts,
                        None,
                        round,
                    );
                    for b in stage.blocks() {
                        if dpu {
                            let tag = Some(b as u16);
                            g.add_tagged(gpu, TaskKind::Update, l.update(b), &[share], tag, round);
                        } else {
                            pending_updates.push((d, b, share));
                        }
                    }
                }
            }

            prev_stage_sends = stage_sends;
        }

        // Barrier before updates (plain TR): every pending update waits on
        // every student of the round.
        prev_round_updates.clear();
        for (d, b, dep) in pending_updates {
            deps.clear();
            deps.extend_from_slice(&this_round_students);
            deps.push(dep);
            let gpu = Resource::Gpu(map[d]);
            let tag = Some(b as u16);
            let upd = g.add_tagged(gpu, TaskKind::Update, l.update(b), &deps, tag, round);
            prev_round_updates.push(upd);
        }
    }
}

/// Emits the relayed pipeline schedule for an explicit plan.
pub fn lower_plan(l: &Lowering<'_>, plan: &StagePlan, dpu: bool) -> Lowered {
    let mut em = RoundEmitter::new(l);
    let identity: Vec<usize> = (0..l.hw.num_gpus).collect();
    em.emit_rounds(plan, dpu, 0..l.rounds, &identity, &[]);
    Lowered {
        graph: em.graph,
        plan: Some(plan.clone()),
        ls: None,
        rounds: l.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_models::Workload;
    use pipebd_sim::{simulate, Breakdown, HardwareConfig, SimTime};

    fn ctx<'a>(w: &'a Workload, hw: &'a HardwareConfig, rounds: u32) -> Lowering<'a> {
        Lowering::new(w, hw, 256, rounds)
    }

    #[test]
    fn dpu_strictly_improves_on_barrier() {
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 16);
        let tr = simulate(&lower_contiguous(&l, false).unwrap().graph).makespan;
        let dpu = simulate(&lower_contiguous(&l, true).unwrap().graph).makespan;
        assert!(dpu < tr, "DPU {dpu} must beat barrier {tr}");
    }

    #[test]
    fn teacher_runs_once_per_round() {
        // Teacher relaying eliminates redundancy: total teacher time per
        // round equals one full forward pass.
        let w = Workload::synthetic(8, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 1);
        let lowered = lower_contiguous(&l, true).unwrap();
        let run = simulate(&lowered.graph);
        let bd = Breakdown::from_run(&lowered.graph, &run);
        let total_teacher: f64 = bd.ranks.iter().map(|r| r.teacher.as_secs_f64()).sum();
        let one_pass: f64 = (0..8).map(|k| l.at(256).teacher(k).as_secs_f64()).sum();
        assert!((total_teacher - one_pass).abs() < 1e-9);
    }

    #[test]
    fn only_first_stage_loads() {
        let w = Workload::synthetic(8, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 4);
        let lowered = lower_contiguous(&l, true).unwrap();
        let run = simulate(&lowered.graph);
        let bd = Breakdown::from_run(&lowered.graph, &run);
        assert!(bd.ranks[0].load > SimTime::ZERO);
        for r in &bd.ranks[1..] {
            assert_eq!(r.load, SimTime::ZERO, "only rank 0 consumes batches");
        }
    }

    #[test]
    fn simulated_period_matches_analytic_estimate() {
        // The AHD estimator and the simulator must agree on the pipeline's
        // steady state (within a few percent: the estimator ignores relay
        // latency edges).
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 24);
        let plan = StagePlan::contiguous(6, 4).unwrap();
        let table = l.table();
        let analytic = pipebd_sched::estimate_period(&plan, table, &w, &hw, 256);
        let lowered = lower_plan(&l, &plan, true);
        let simulated = simulate(&lowered.graph).round_period(&lowered.graph, l.rounds, 8);
        let ratio = simulated.as_secs_f64() / analytic.as_secs_f64();
        assert!(
            (0.9..1.1).contains(&ratio),
            "estimate {analytic} vs simulated {simulated} (ratio {ratio})"
        );
    }

    #[test]
    fn ahd_lowering_picks_split_plan_on_imagenet() {
        let w = Workload::nas_imagenet();
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 4);
        let lowered = lower_ahd(&l).unwrap();
        assert!(lowered.plan.unwrap().uses_batch_split());
    }

    #[test]
    fn wide_stage_emits_grad_sharing() {
        let w = Workload::synthetic(4, true);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 2);
        let plan = StagePlan::from_widths(&[(1, 2), (3, 2)], 4, 4).unwrap();
        let lowered = lower_plan(&l, &plan, true);
        let has_share = lowered
            .graph
            .iter()
            .any(|(_, t)| t.kind == TaskKind::GradShare);
        assert!(has_share);
    }

    #[test]
    fn barrier_updates_wait_on_all_students() {
        let w = Workload::synthetic(4, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 2);
        let plan = StagePlan::contiguous(4, 4).unwrap();
        let lowered = lower_plan(&l, &plan, false);
        // Every update in round 0 must depend on >= 4 students.
        let mut found = 0;
        for (id, t) in lowered.graph.iter() {
            if t.kind == TaskKind::Update && t.step == 0 {
                let stu_deps = lowered
                    .graph
                    .deps(id)
                    .iter()
                    .filter(|d| lowered.graph.task(**d).kind == TaskKind::Student)
                    .count();
                assert!(
                    stu_deps >= 4,
                    "barrier update has only {stu_deps} student deps"
                );
                found += 1;
            }
        }
        assert_eq!(found, 4);
    }
}

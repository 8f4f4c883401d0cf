//! Fault scripts: deterministic perturbations of a healthy simulation.
//!
//! Production clusters are not the fixed, healthy servers of the paper's
//! Table I: hosts straggle, lose devices, and (in elastic settings) join
//! mid-run. A [`FaultScript`] is a seed-free, ordered event list — per-rank
//! slowdown windows, host loss, host join, loader-pool degradation. It is
//! the wire format only: every question about it is asked of the
//! [`FaultTimeline`] that [`FaultScript::timeline`] builds in one pass
//! against an `n`-rank server. Building the timeline *is* the validation:
//! each rank gets one membership interval `[join, loss)` (a rank joins at
//! most once and leaves at most once) and sorted, disjoint slowdown
//! windows; the loader gets disjoint windows whose factors are the product
//! of the script's covering loader events.
//!
//! [`simulate_faulted`] applies a script's timeline on top of an
//! already-lowered [`TaskGraph`] by scaling task durations per
//! `(rank, step)`; the
//! scheduler's degraded snapshot, the fault-aware lowering and the
//! executor's fault driver read the same timeline. Everything stays
//! exactly deterministic: the same graph and script always produce the
//! same run.
//!
//! Time in a script is measured in *training steps* (the `step` tag every
//! lowered task carries), not wall-clock: a slowdown window `[start, end)`
//! covers a task iff `start <= task.step < end`. That keeps scripts
//! meaningful across strategies whose wall-clock schedules differ.

use serde::{Deserialize, Serialize};

use crate::engine::{simulate, SimRun};
use crate::task::{Resource, TaskGraph};
use crate::time::SimTime;

/// One deterministic perturbation of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// GPU `rank` (compute *and* copy engine) runs `factor`× slower for
    /// every task whose step lies in `[start_step, end_step)`.
    Slowdown {
        /// Affected GPU rank.
        rank: usize,
        /// Multiplicative duration factor, `>= 1.0`.
        factor: f64,
        /// First slowed step (inclusive).
        start_step: u32,
        /// First healthy step again (exclusive bound).
        end_step: u32,
    },
    /// GPU `rank` disappears at `at_step`: any task tagged with a step
    /// `>= at_step` on that rank is a [`FaultViolation`] — the schedule
    /// must have been replanned around the loss.
    HostLoss {
        /// Lost GPU rank.
        rank: usize,
        /// First step at which the rank is gone.
        at_step: u32,
    },
    /// GPU `rank` only becomes available at `at_step` (elastic join): any
    /// task on it tagged with an earlier step is a [`FaultViolation`].
    HostJoin {
        /// Joining GPU rank.
        rank: usize,
        /// First step at which the rank exists.
        at_step: u32,
    },
    /// The shared loader pool degrades by `factor`× for steps in
    /// `[start_step, end_step)` (e.g. host cache thrash), scaling
    /// loader-resource task durations.
    LoaderSlowdown {
        /// Multiplicative duration factor, `>= 1.0`.
        factor: f64,
        /// First slowed step (inclusive).
        start_step: u32,
        /// First healthy step again (exclusive bound).
        end_step: u32,
    },
}

/// A deterministic, ordered list of fault events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultScript {
    /// The events, in list order. [`FaultScript::timeline`] rejects
    /// overlapping slowdown windows for the same rank, a rank joining or
    /// leaving twice, and loss-before-join orderings — perturbations the
    /// executor-level fault driver cannot realize.
    pub events: Vec<FaultEvent>,
}

/// Why a task graph cannot execute under a fault script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultViolation {
    /// A task was scheduled on a rank after its [`FaultEvent::HostLoss`].
    TaskOnDeadRank {
        /// The offending rank.
        rank: usize,
        /// The earliest offending step.
        step: u32,
    },
    /// A task was scheduled on a rank before its [`FaultEvent::HostJoin`].
    TaskBeforeJoin {
        /// The offending rank.
        rank: usize,
        /// The earliest offending step.
        step: u32,
    },
    /// Two [`FaultEvent::Slowdown`] windows for the same rank overlap.
    /// The executor's fault driver realizes exactly one pause factor per
    /// `(rank, step)`, so compounding windows are unrealizable.
    OverlappingSlowdowns {
        /// The doubly-slowed rank.
        rank: usize,
        /// The first step covered by both windows.
        step: u32,
    },
    /// A rank's [`FaultEvent::HostLoss`] precedes (or coincides with) its
    /// [`FaultEvent::HostJoin`]: its membership interval would be empty,
    /// and the executor driver cannot bring a cancelled worker back.
    LossBeforeJoin {
        /// The rank with the unrealizable membership order.
        rank: usize,
        /// The step the rank is lost.
        loss_step: u32,
        /// The (never effective) join step.
        join_step: u32,
    },
    /// The script itself is malformed for this graph.
    InvalidScript(
        /// Human-readable reason.
        String,
    ),
}

impl std::fmt::Display for FaultViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultViolation::TaskOnDeadRank { rank, step } => {
                write!(f, "task on rank {rank} at step {step} after host loss")
            }
            FaultViolation::TaskBeforeJoin { rank, step } => {
                write!(f, "task on rank {rank} at step {step} before host join")
            }
            FaultViolation::OverlappingSlowdowns { rank, step } => {
                write!(
                    f,
                    "overlapping slowdown windows on rank {rank} (first shared step {step})"
                )
            }
            FaultViolation::LossBeforeJoin {
                rank,
                loss_step,
                join_step,
            } => {
                write!(
                    f,
                    "rank {rank} lost at step {loss_step} before its join at step {join_step}"
                )
            }
            FaultViolation::InvalidScript(why) => write!(f, "invalid fault script: {why}"),
        }
    }
}

impl std::error::Error for FaultViolation {}

impl FaultScript {
    /// The empty script: no perturbations.
    pub fn healthy() -> Self {
        FaultScript::default()
    }

    /// Normalises the script against a server of `num_gpus` ranks in one
    /// pass over its events — the script's only validation.
    ///
    /// # Errors
    ///
    /// [`FaultViolation::InvalidScript`] for an out-of-range rank, a
    /// factor below 1, an empty window, or a second join or loss of one
    /// rank (a rejoin takes a fresh rank);
    /// [`FaultViolation::OverlappingSlowdowns`] and
    /// [`FaultViolation::LossBeforeJoin`] for rows that cannot be laid out.
    pub fn timeline(&self, num_gpus: usize) -> Result<FaultTimeline, FaultViolation> {
        let bad = |why: String| Err(FaultViolation::InvalidScript(why));
        let mut ranks = vec![Row::default(); num_gpus];
        let mut loader = Vec::new();
        for e in &self.events {
            match *e {
                FaultEvent::Slowdown {
                    rank,
                    factor,
                    start_step,
                    end_step,
                } => {
                    let Some(row) = ranks.get_mut(rank) else {
                        return bad(format!("slowdown rank {rank} of {num_gpus}"));
                    };
                    row.slow
                        .push(Window::new("slowdown", factor, start_step, end_step)?);
                }
                FaultEvent::LoaderSlowdown {
                    factor,
                    start_step,
                    end_step,
                } => loader.push(Window::new("loader", factor, start_step, end_step)?),
                FaultEvent::HostLoss { rank, at_step } | FaultEvent::HostJoin { rank, at_step } => {
                    let Some(row) = ranks.get_mut(rank) else {
                        return bad(format!("membership rank {rank} of {num_gpus}"));
                    };
                    let (slot, verb) = match e {
                        FaultEvent::HostLoss { .. } => (&mut row.loss, "is lost"),
                        _ => (&mut row.join, "joins"),
                    };
                    if slot.replace(at_step).is_some() {
                        return bad(format!(
                            "rank {rank} {verb} twice (a rejoin takes a fresh rank)"
                        ));
                    }
                }
            }
        }
        for (rank, row) in ranks.iter_mut().enumerate() {
            row.slow.sort_by_key(|w| w.start);
            if let Some(pair) = row.slow.windows(2).find(|p| p[1].start < p[0].end) {
                return Err(FaultViolation::OverlappingSlowdowns {
                    rank,
                    step: pair[1].start,
                });
            }
            if let (Some(join_step), Some(loss_step)) = (row.join, row.loss) {
                if loss_step <= join_step {
                    return Err(FaultViolation::LossBeforeJoin {
                        rank,
                        loss_step,
                        join_step,
                    });
                }
            }
        }
        // The loader's windows may overlap; their factors multiply, in
        // script order, over each stretch between two window edges.
        let mut edges: Vec<u32> = loader.iter().flat_map(|w| [w.start, w.end]).collect();
        edges.sort_unstable();
        edges.dedup();
        let loader = edges
            .windows(2)
            .filter_map(|e| {
                let mut cover = loader
                    .iter()
                    .filter(|w| w.start <= e[0] && e[1] <= w.end)
                    .peekable();
                cover.peek()?;
                Some(Window {
                    start: e[0],
                    end: e[1],
                    factor: cover.map(|w| w.factor).product(),
                })
            })
            .collect();
        Ok(FaultTimeline { ranks, loader })
    }
}

/// A slowdown window `[start, end)` at one factor.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    start: u32,
    end: u32,
    factor: f64,
}

impl Window {
    fn new(what: &str, factor: f64, start: u32, end: u32) -> Result<Self, FaultViolation> {
        let bad = |why: String| Err(FaultViolation::InvalidScript(why));
        if !(factor.is_finite() && factor >= 1.0) {
            return bad(format!("{what} factor {factor} must be >= 1"));
        }
        if start >= end {
            return bad(format!("{what} window [{start}, {end}) empty"));
        }
        Ok(Window { start, end, factor })
    }
}

/// The factor of the window covering `step` among disjoint `windows`.
fn factor_at(windows: &[Window], step: u32) -> f64 {
    windows
        .iter()
        .find(|w| w.start <= step && step < w.end)
        .map_or(1.0, |w| w.factor)
}

/// One rank of a [`FaultTimeline`]: member on `[join, loss)`, slowed by
/// `slow` (sorted by start, disjoint). `Row::default()` is a healthy rank.
#[derive(Debug, Clone, Default, PartialEq)]
struct Row {
    join: Option<u32>,
    loss: Option<u32>,
    slow: Vec<Window>,
}

impl Row {
    fn alive(&self, step: u32) -> bool {
        self.join.map_or(true, |j| j <= step) && self.loss.map_or(true, |l| step < l)
    }
}

/// A validated fault script laid out per rank (see the module docs): the
/// one reading of a script that answers every `(rank, step)` question.
/// Built by [`FaultScript::timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    ranks: Vec<Row>,
    loader: Vec<Window>,
}

impl FaultTimeline {
    /// The server's rank count.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Whether nothing is perturbed: every rank a member throughout at
    /// unit factor, the loader healthy.
    pub fn is_healthy(&self) -> bool {
        self.loader.is_empty() && self.ranks.iter().all(|r| *r == Row::default())
    }

    /// Whether `rank` is a member at training `step` (`false` beyond the
    /// server).
    pub fn alive(&self, rank: usize, step: u32) -> bool {
        self.ranks.get(rank).is_some_and(|r| r.alive(step))
    }

    /// The member ranks at training `step`, ascending.
    pub fn members(&self, step: u32) -> Vec<usize> {
        (0..self.ranks.len())
            .filter(|&r| self.alive(r, step))
            .collect()
    }

    /// The slowdown factor of `rank` at training `step` (`1.0` healthy).
    pub fn factor(&self, rank: usize, step: u32) -> f64 {
        self.ranks
            .get(rank)
            .map_or(1.0, |r| factor_at(&r.slow, step))
    }

    /// The loader-pool slowdown factor at training `step`.
    pub fn loader_factor(&self, step: u32) -> f64 {
        factor_at(&self.loader, step)
    }

    /// The earliest step after 0 at which a rank joins: where a run over
    /// the step-0 members must stop to grow.
    pub fn first_join(&self) -> Option<u32> {
        self.ranks
            .iter()
            .filter_map(|r| r.join.filter(|&j| j > 0))
            .min()
    }

    /// The sorted, deduplicated steps after 0 at which the perturbation
    /// state changes (window edges, joins, losses).
    pub fn change_steps(&self) -> Vec<u32> {
        let windows = self.ranks.iter().flat_map(|r| &r.slow).chain(&self.loader);
        let membership = self
            .ranks
            .iter()
            .flat_map(|r| r.join.into_iter().chain(r.loss));
        let edges = windows.flat_map(|w| [w.start, w.end]).chain(membership);
        let mut steps: Vec<u32> = edges.filter(|&s| s > 0).collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// The timeline of a run re-formed at `step`: the members at `step`,
    /// in rank order, become ranks `0..m` with their joins behind them;
    /// every rank still to join follows under a fresh rank `m..`, by
    /// `(join step, rank)`; lost ranks drop out. Steps stay global — a
    /// resumed run keeps counting training steps from its checkpoint.
    pub fn for_survivors(&self, step: u32) -> FaultTimeline {
        let mut pending: Vec<(u32, usize)> = self
            .ranks
            .iter()
            .enumerate()
            .filter_map(|(r, row)| row.join.filter(|&j| j > step).map(|j| (j, r)))
            .collect();
        pending.sort_unstable();
        let members = self.members(step).into_iter().map(|r| Row {
            join: None,
            ..self.ranks[r].clone()
        });
        let joiners = pending.into_iter().map(|(_, r)| self.ranks[r].clone());
        FaultTimeline {
            ranks: members.chain(joiners).collect(),
            loader: self.loader.clone(),
        }
    }
}

/// The outcome of simulating a graph under a fault script.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSimRun {
    /// The timing outcome over the perturbed durations.
    pub run: SimRun,
    /// The perturbed graph that was executed (durations scaled; structure
    /// and task order identical to the input graph).
    pub graph: TaskGraph,
}

/// Scales a duration by a slowdown factor, rounding to the nearest tick.
///
/// Monotone non-decreasing in `factor`, and exactly the identity at 1.0 —
/// the properties the fault-plane proptests rely on.
fn scaled(d: SimTime, factor: f64) -> SimTime {
    if factor == 1.0 {
        return d;
    }
    SimTime::from_ns((d.as_ns() as f64 * factor).round() as u64)
}

/// Executes `graph` under `script`: every task's duration is scaled by the
/// slowdown factor of its resource at its step, and tasks that land on
/// non-member ranks (after a loss, before a join) are rejected.
///
/// A healthy script reproduces [`simulate`] exactly.
pub fn simulate_faulted(
    graph: &TaskGraph,
    script: &FaultScript,
) -> Result<FaultSimRun, FaultViolation> {
    let timeline = script.timeline(graph.num_gpus())?;
    // Same tasks, same edges: only durations change.
    let mut perturbed = graph.clone();
    for t in &mut perturbed.tasks {
        let step = t.step;
        let factor = match t.resource {
            Resource::Loader => timeline.loader_factor(step),
            Resource::Gpu(rank) | Resource::Copy(rank) => match timeline.ranks.get(rank) {
                Some(row) if row.loss.is_some_and(|l| l <= step) => {
                    return Err(FaultViolation::TaskOnDeadRank { rank, step })
                }
                Some(row) if !row.alive(step) => {
                    return Err(FaultViolation::TaskBeforeJoin { rank, step })
                }
                _ => timeline.factor(rank, step),
            },
        };
        t.duration = scaled(t.duration, factor);
    }
    Ok(FaultSimRun {
        run: simulate(&perturbed),
        graph: perturbed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Resource::{Copy, Gpu, Loader};
    use crate::task::TaskKind;
    use proptest::prelude::*;

    fn ns(x: u64) -> SimTime {
        SimTime::from_ns(x)
    }

    /// Two ranks, `steps` steps; rank 0 runs 100ns, rank 1 runs 50ns per
    /// step; one 40ns loader decode per step.
    fn two_rank_graph(steps: u32) -> TaskGraph {
        let mut g = TaskGraph::new(2);
        for s in 0..steps {
            g.add_tagged(Loader, TaskKind::Load, ns(40), &[], None, s);
            g.add_tagged(Gpu(0), TaskKind::Student, ns(100), &[], Some(0), s);
            g.add_tagged(Gpu(1), TaskKind::Student, ns(50), &[], Some(1), s);
        }
        g
    }

    fn gpu_duration(fsr: &FaultSimRun, rank: usize, step: u32) -> u64 {
        fsr.graph
            .iter()
            .find(|(_, t)| t.resource == Gpu(rank) && t.step == step)
            .map(|(_, t)| t.duration.as_ns())
            .expect("task exists")
    }

    fn script(events: Vec<FaultEvent>) -> FaultScript {
        FaultScript { events }
    }

    fn slow(rank: usize, factor: f64, start_step: u32, end_step: u32) -> FaultEvent {
        FaultEvent::Slowdown {
            rank,
            factor,
            start_step,
            end_step,
        }
    }

    fn loader(factor: f64, start_step: u32, end_step: u32) -> FaultEvent {
        FaultEvent::LoaderSlowdown {
            factor,
            start_step,
            end_step,
        }
    }

    fn lose(rank: usize, at_step: u32) -> FaultEvent {
        FaultEvent::HostLoss { rank, at_step }
    }

    fn join(rank: usize, at_step: u32) -> FaultEvent {
        FaultEvent::HostJoin { rank, at_step }
    }

    // The event-list readings the timeline replaced, kept verbatim as the
    // oracle the timeline is checked against.

    fn oracle_validate(script: &FaultScript, num_gpus: usize) -> Result<(), FaultViolation> {
        let bad = |why: String| Err(FaultViolation::InvalidScript(why));
        for e in &script.events {
            match *e {
                FaultEvent::Slowdown {
                    rank,
                    factor,
                    start_step,
                    end_step,
                } => {
                    if rank >= num_gpus {
                        return bad(format!("slowdown rank {rank} of {num_gpus}"));
                    }
                    if !(factor.is_finite() && factor >= 1.0) {
                        return bad(format!("slowdown factor {factor} must be >= 1"));
                    }
                    if start_step >= end_step {
                        return bad(format!("slowdown window [{start_step}, {end_step}) empty"));
                    }
                }
                FaultEvent::LoaderSlowdown {
                    factor,
                    start_step,
                    end_step,
                } => {
                    if !(factor.is_finite() && factor >= 1.0) {
                        return bad(format!("loader factor {factor} must be >= 1"));
                    }
                    if start_step >= end_step {
                        return bad(format!("loader window [{start_step}, {end_step}) empty"));
                    }
                }
                FaultEvent::HostLoss { rank, .. } | FaultEvent::HostJoin { rank, .. } => {
                    if rank >= num_gpus {
                        return bad(format!("membership rank {rank} of {num_gpus}"));
                    }
                }
            }
        }
        for (i, a) in script.events.iter().enumerate() {
            for b in script.events.iter().skip(i + 1) {
                if let (
                    FaultEvent::Slowdown {
                        rank: ra,
                        start_step: sa,
                        end_step: ea,
                        ..
                    },
                    FaultEvent::Slowdown {
                        rank: rb,
                        start_step: sb,
                        end_step: eb,
                        ..
                    },
                ) = (a, b)
                {
                    if ra == rb && sa < eb && sb < ea {
                        return Err(FaultViolation::OverlappingSlowdowns {
                            rank: *ra,
                            step: (*sa).max(*sb),
                        });
                    }
                }
            }
        }
        for a in &script.events {
            if let FaultEvent::HostLoss { rank, at_step } = *a {
                for b in &script.events {
                    if let FaultEvent::HostJoin {
                        rank: r,
                        at_step: join_step,
                    } = *b
                    {
                        if r == rank && at_step <= join_step {
                            return Err(FaultViolation::LossBeforeJoin {
                                rank,
                                loss_step: at_step,
                                join_step,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn oracle_factor(script: &FaultScript, rank: usize, step: u32) -> f64 {
        script
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Slowdown {
                    rank: r,
                    factor,
                    start_step,
                    end_step,
                } if r == rank && start_step <= step && step < end_step => Some(factor),
                _ => None,
            })
            .product()
    }

    fn oracle_loader_factor(script: &FaultScript, step: u32) -> f64 {
        script
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LoaderSlowdown {
                    factor,
                    start_step,
                    end_step,
                } if start_step <= step && step < end_step => Some(factor),
                _ => None,
            })
            .product()
    }

    fn oracle_alive(script: &FaultScript, rank: usize, step: u32) -> bool {
        script.events.iter().all(|e| match *e {
            FaultEvent::HostLoss { rank: r, at_step } => r != rank || step < at_step,
            FaultEvent::HostJoin { rank: r, at_step } => r != rank || step >= at_step,
            _ => true,
        })
    }

    /// One well-formed event over ranks `< 4` and steps `< 12`; a window
    /// end drawn as 12 stands for `u32::MAX` (a window that never closes).
    /// Products of the factors round, so a reordered product shows.
    fn event() -> impl Strategy<Value = FaultEvent> {
        (0usize..4, 0usize..4, 0u32..11, 0u32..13, 0usize..4).prop_map(
            |(kind, rank, start, end, f)| {
                let factor = [1.0, 1.1, 1.3, 2.7][f];
                let end = if end == 12 {
                    u32::MAX
                } else {
                    end.max(start + 1)
                };
                match kind {
                    0 => slow(rank, factor, start, end),
                    1 => loader(factor, start, end),
                    2 => lose(rank, start),
                    _ => join(rank, start),
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_timeline_answers_as_the_event_list_did(
            events in collection::vec(event(), 0..7),
        ) {
            let s = script(events);
            let mut membership: Vec<(bool, usize)> = s
                .events
                .iter()
                .filter_map(|e| match *e {
                    FaultEvent::HostJoin { rank, .. } => Some((true, rank)),
                    FaultEvent::HostLoss { rank, .. } => Some((false, rank)),
                    _ => None,
                })
                .collect();
            let events = membership.len();
            membership.sort_unstable();
            membership.dedup();
            let timeline = s.timeline(4);
            if membership.len() < events {
                prop_assert!(timeline.is_err(), "{s:?} repeats a membership event");
                return;
            }
            prop_assert_eq!(timeline.is_ok(), oracle_validate(&s, 4).is_ok(), "{:?}", s);
            let Ok(timeline) = timeline else { return };
            for step in (0..14).chain([u32::MAX - 1]) {
                let loader = oracle_loader_factor(&s, step);
                prop_assert_eq!(timeline.loader_factor(step).to_bits(), loader.to_bits());
                let alive: Vec<usize> = (0..4).filter(|&r| oracle_alive(&s, r, step)).collect();
                prop_assert_eq!(timeline.members(step), alive);
                for rank in 0..4 {
                    prop_assert_eq!(timeline.alive(rank, step), oracle_alive(&s, rank, step));
                    let factor = oracle_factor(&s, rank, step);
                    prop_assert_eq!(timeline.factor(rank, step).to_bits(), factor.to_bits());
                }
            }
        }
    }

    #[test]
    fn healthy_script_reproduces_simulate_exactly() {
        let g = two_rank_graph(4);
        let fsr = simulate_faulted(&g, &FaultScript::healthy()).unwrap();
        assert_eq!(fsr.run, simulate(&g));
        assert_eq!(fsr.graph, g);
        assert!(FaultScript::healthy().timeline(2).unwrap().is_healthy());
    }

    #[test]
    fn slowdown_window_is_start_inclusive_end_exclusive() {
        let g = two_rank_graph(5);
        let fsr = simulate_faulted(&g, &script(vec![slow(0, 2.0, 1, 3)])).unwrap();
        assert_eq!(gpu_duration(&fsr, 0, 0), 100, "before start: healthy");
        assert_eq!(gpu_duration(&fsr, 0, 1), 200, "start step: slowed");
        assert_eq!(gpu_duration(&fsr, 0, 2), 200, "inside window: slowed");
        assert_eq!(gpu_duration(&fsr, 0, 3), 100, "end step: healthy again");
        assert_eq!(gpu_duration(&fsr, 0, 4), 100);
        // The other rank is untouched throughout.
        for s in 0..5 {
            assert_eq!(gpu_duration(&fsr, 1, s), 50);
        }
    }

    #[test]
    fn overlapping_slowdowns_on_one_rank_are_rejected() {
        let s = script(vec![slow(0, 2.0, 0, 4), slow(0, 1.5, 2, 6)]);
        assert_eq!(
            s.timeline(2),
            Err(FaultViolation::OverlappingSlowdowns { rank: 0, step: 2 })
        );
        assert!(
            matches!(
                simulate_faulted(&two_rank_graph(4), &s),
                Err(FaultViolation::OverlappingSlowdowns { .. })
            ),
            "the simulator must refuse what the executor driver cannot realize"
        );
    }

    #[test]
    fn adjacent_or_cross_rank_slowdowns_still_validate() {
        // Back-to-back windows on one rank (end == next start) and a
        // genuinely overlapping window on a *different* rank are fine.
        let s = script(vec![
            slow(0, 2.0, 0, 4),
            slow(0, 1.5, 4, 6),
            slow(1, 3.0, 2, 5),
        ]);
        let t = s.timeline(2).expect("disjoint windows are realizable");
        assert_eq!(t.factor(0, 3), 2.0);
        assert_eq!(t.factor(0, 4), 1.5);
        assert_eq!(t.factor(1, 4), 3.0);
    }

    #[test]
    fn loss_before_join_on_one_rank_is_rejected() {
        assert_eq!(
            script(vec![lose(1, 3), join(1, 5)]).timeline(2),
            Err(FaultViolation::LossBeforeJoin {
                rank: 1,
                loss_step: 3,
                join_step: 5,
            })
        );
        // Join-then-loss is realizable: the rank exists on [2, 5).
        let ok = script(vec![join(1, 2), lose(1, 5)])
            .timeline(2)
            .expect("join-then-loss is a realizable window");
        assert!(!ok.alive(1, 1));
        assert!(ok.alive(1, 3));
        assert!(!ok.alive(1, 5));
        // Loss and join on *different* ranks never conflict.
        let cross = script(vec![lose(0, 3), join(1, 5)]);
        cross.timeline(2).expect("cross-rank loss/join is fine");
    }

    #[test]
    fn for_survivors_renumbers_and_drops_dead_ranks() {
        let s = script(vec![
            slow(0, 2.0, 1, 4),
            lose(1, 5),
            slow(2, 3.0, 6, 9),
            loader(1.5, 0, 8),
        ]);
        // Rank 1 died at step 5; survivors [0, 2] become ranks [0, 1].
        let projected = s.timeline(3).unwrap().for_survivors(5);
        let expected = script(vec![
            slow(0, 2.0, 1, 4),
            slow(1, 3.0, 6, 9),
            loader(1.5, 0, 8),
        ]);
        assert_eq!(projected, expected.timeline(2).unwrap());
        // Projecting a healthy timeline is a no-op.
        let healthy = FaultScript::healthy().timeline(1).unwrap();
        assert_eq!(healthy.for_survivors(0), healthy);
    }

    #[test]
    fn for_survivors_drops_joins_already_in_the_member_set() {
        // Compound loss + join: rank 1 dies at step 5, rank 2 joined at
        // step 3. Re-formed at step 5 (members [0, 2, 3]), rank 2's join is
        // behind it: a resumed run replaying from a round < 3 must still
        // find it a member.
        let s = script(vec![lose(1, 5), join(2, 3)]);
        let projected = s.timeline(4).unwrap().for_survivors(5);
        assert!(
            projected.is_healthy(),
            "expected a healthy projection, got {projected:?}"
        );
        assert_eq!(projected.members(0), vec![0, 1, 2]);
        assert_eq!(projected.first_join(), None);
    }

    #[test]
    fn for_survivors_renumbers_future_joins_to_fresh_ids() {
        // Ranks [0, 2] survive a loss of rank 1; ranks 3 and 4 join
        // later. Future joins survive the projection under fresh ranks
        // 2.. in (join step, rank) order, and the slowdown scheduled on a
        // future member follows it.
        let s = script(vec![join(4, 6), join(3, 4), slow(3, 2.0, 5, 7), lose(1, 2)]);
        let projected = s.timeline(5).unwrap().for_survivors(2);
        let expected = script(vec![join(3, 6), join(2, 4), slow(2, 2.0, 5, 7)]);
        assert_eq!(projected, expected.timeline(4).unwrap());
        assert_eq!(projected.first_join(), Some(4));
        assert_eq!(projected.members(4), vec![0, 1, 2]);
        assert_eq!(projected.for_survivors(6).first_join(), None);
        // Fresh ranks follow the join step, not the old rank.
        let late = script(vec![join(3, 6), join(4, 4), lose(1, 2)]);
        let expected = script(vec![join(2, 4), join(3, 6)]);
        assert_eq!(
            late.timeline(5).unwrap().for_survivors(2),
            expected.timeline(4).unwrap()
        );
    }

    #[test]
    fn slowdown_scales_copy_engine_but_not_loader() {
        let mut g = TaskGraph::new(1);
        g.add_tagged(Loader, TaskKind::Load, ns(40), &[], None, 0);
        g.add_tagged(Copy(0), TaskKind::Comm, ns(10), &[], None, 0);
        let fsr = simulate_faulted(&g, &script(vec![slow(0, 3.0, 0, 1)])).unwrap();
        let durs: Vec<u64> = fsr.graph.iter().map(|(_, t)| t.duration.as_ns()).collect();
        assert_eq!(durs, vec![40, 30], "copy scaled 3x, loader untouched");
    }

    #[test]
    fn loader_slowdown_scales_only_the_pool() {
        let g = two_rank_graph(2);
        let fsr = simulate_faulted(&g, &script(vec![loader(2.0, 0, 1)])).unwrap();
        let loads: Vec<u64> = fsr
            .graph
            .iter()
            .filter(|(_, t)| t.resource == Loader)
            .map(|(_, t)| t.duration.as_ns())
            .collect();
        assert_eq!(loads, vec![80, 40]);
        assert_eq!(gpu_duration(&fsr, 0, 0), 100);
    }

    #[test]
    fn host_loss_after_the_last_step_is_clean() {
        let g = two_rank_graph(3);
        let fsr = simulate_faulted(&g, &script(vec![lose(1, 3)])).unwrap();
        // All of rank 1's tasks completed pre-loss, unperturbed.
        assert_eq!(fsr.graph, g);
    }

    #[test]
    fn host_loss_mid_schedule_is_a_violation() {
        let err = simulate_faulted(&two_rank_graph(5), &script(vec![lose(1, 2)])).unwrap_err();
        assert_eq!(err, FaultViolation::TaskOnDeadRank { rank: 1, step: 2 });
    }

    #[test]
    fn host_join_rejects_earlier_tasks() {
        let s = script(vec![join(1, 1)]);
        let err = simulate_faulted(&two_rank_graph(3), &s).unwrap_err();
        assert_eq!(err, FaultViolation::TaskBeforeJoin { rank: 1, step: 0 });
        let t = s.timeline(2).unwrap();
        assert!(!t.alive(1, 0));
        assert!(t.alive(1, 1));
    }

    #[test]
    fn makespan_is_monotone_in_slowdown_factor() {
        let g = two_rank_graph(6);
        let mut prev = SimTime::ZERO;
        for factor in [1.0, 1.25, 2.0, 3.0, 5.0] {
            let fsr = simulate_faulted(&g, &script(vec![slow(0, factor, 0, 6)])).unwrap();
            assert!(fsr.run.makespan >= prev, "factor {factor}");
            prev = fsr.run.makespan;
        }
    }

    #[test]
    fn change_steps_are_sorted_and_deduplicated() {
        let s = script(vec![
            slow(0, 2.0, 4, 8),
            lose(1, 4),
            loader(1.5, 2, 8),
            loader(2.0, 0, 3),
        ]);
        assert_eq!(s.timeline(2).unwrap().change_steps(), vec![2, 3, 4, 8]);
        let healthy = FaultScript::healthy().timeline(2).unwrap();
        assert!(healthy.change_steps().is_empty());
        // Overlapping loader windows multiply in script order.
        let t = s.timeline(2).unwrap();
        assert_eq!(t.loader_factor(1), 2.0);
        assert_eq!(t.loader_factor(2), 1.5 * 2.0);
        assert_eq!(t.loader_factor(3), 1.5);
        assert_eq!(t.loader_factor(8), 1.0);
    }

    #[test]
    fn validation_rejects_malformed_events() {
        let cases = [
            vec![slow(9, 2.0, 0, 1)],
            vec![slow(0, 0.5, 0, 1)],
            vec![slow(0, 2.0, 3, 3)],
            vec![loader(f64::NAN, 0, 1)],
            vec![lose(2, 0)],
            vec![join(1, 3), join(1, 5)],
            vec![lose(0, 3), lose(0, 5)],
        ];
        for events in cases {
            let s = script(events);
            assert!(
                matches!(s.timeline(2), Err(FaultViolation::InvalidScript(_))),
                "{s:?} should be rejected"
            );
        }
        assert!(FaultScript::healthy().timeline(2).is_ok());
    }

    #[test]
    fn scripts_roundtrip_through_serde() {
        let s = script(vec![slow(1, 2.5, 3, 9), join(3, 5)]);
        let json = pipebd_json::to_string(&s).expect("serialize");
        let back: FaultScript = pipebd_json::from_str(&json).expect("deserialize");
        assert_eq!(back, s);
    }
}

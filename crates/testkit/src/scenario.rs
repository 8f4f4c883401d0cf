//! Deterministic scenario enumeration: the cross-product the conformance
//! plane sweeps.
//!
//! A [`Scenario`] pins every axis that can change what the three planes
//! compute: the model shape (block count, imbalance, student family), the
//! scheduling strategy, the subject executor, and the batch/rank/pool
//! configuration. Enumeration is pure — no clocks, no ambient RNG — so a
//! scenario id names the same work on every machine, and the per-scenario
//! seed is derived from the id (FNV-1a), not from state. Which kernel
//! computes a scenario is not an axis: every executor runs the blocked
//! plane, and `crates/tensor/tests/kernel_equivalence.rs` checks that
//! plane against the naive oracle on the geometries these models build.
//!
//! # Strategy → executor-plan mapping
//!
//! The functional executors run *stage plans*; the two paper baselines do
//! not have one, but their computation does (the paper's whole Section
//! VII-D point is that every strategy computes the same training):
//!
//! * **DP** trains every block data-parallel over all ranks with averaged
//!   shard gradients — numerically the internal-relaying plan (all blocks
//!   on all ranks, batch split), so DP scenarios run that plan.
//! * **LS** trains each block independently at the full batch —
//!   numerically the width-1 relayed pipeline, so LS scenarios run the
//!   contiguous plan (bitwise tolerance: no gradient averaging anywhere).
//!
//! The sim-vs-estimator direction keeps the real DP/LS schedules: those
//! scenarios lower the actual baseline task graphs and check them against
//! the dedicated analytic estimators (`dp_phase_period`,
//! `ls_round_period`).

use pipebd_core::ExecutorChoice;
use pipebd_models::Workload;
use pipebd_sched::{ahd, CostModel, HeteroServer, Profiler, StagePlan};
use pipebd_sim::{FaultEvent, FaultScript, GpuModel, HardwareConfig};
use serde::{Deserialize, Serialize};

use crate::ToleranceBook;
use pipebd_artifact::ArtifactPayload;

/// The strategy axis of the conformance matrix.
///
/// Covers the paper's two baselines, the three relay-family schedules, an
/// explicit hybrid plan, and both plan searches (homogeneous AHD and the
/// heterogeneous extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConformanceStrategy {
    /// Block-by-block data parallelism (Fig. 3a).
    Dp,
    /// Layerwise bin-packing (Blakeney et al.).
    Ls,
    /// Plain teacher relaying with the per-round barrier (Fig. 3b).
    Tr,
    /// Teacher relaying with decoupled parameter update (Fig. 3c).
    TrDpu,
    /// Internal relaying: one all-rank stage over every block.
    TrIr,
    /// A fixed hybrid plan (first block batch-split, rest pipelined).
    Hybrid,
    /// The plan chosen by the homogeneous AHD search (Fig. 3d).
    Ahd,
    /// The plan chosen by the heterogeneous AHD search on a mixed
    /// A6000/2080 Ti server.
    HeteroAhd,
}

impl ConformanceStrategy {
    /// Every strategy, in matrix order.
    pub const ALL: [ConformanceStrategy; 8] = [
        ConformanceStrategy::Dp,
        ConformanceStrategy::Ls,
        ConformanceStrategy::Tr,
        ConformanceStrategy::TrDpu,
        ConformanceStrategy::TrIr,
        ConformanceStrategy::Hybrid,
        ConformanceStrategy::Ahd,
        ConformanceStrategy::HeteroAhd,
    ];

    /// Short label used in scenario ids and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ConformanceStrategy::Dp => "dp",
            ConformanceStrategy::Ls => "ls",
            ConformanceStrategy::Tr => "tr",
            ConformanceStrategy::TrDpu => "dpu",
            ConformanceStrategy::TrIr => "ir",
            ConformanceStrategy::Hybrid => "hybrid",
            ConformanceStrategy::Ahd => "ahd",
            ConformanceStrategy::HeteroAhd => "hetero",
        }
    }
}

impl std::fmt::Display for ConformanceStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The workload the simulator/estimator direction runs on.
///
/// `Synthetic` scenarios lower the *same* plan the executor differential
/// runs (uniform heavy blocks: agreement is near exact, pinning the
/// estimator bit-for-bit against the simulator). The paper-workload
/// scenarios exercise the estimators in the regime where loading, relays,
/// and block imbalance genuinely matter — the fidelity BaPipe warns
/// about — at that workload's real block count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimWorkload {
    /// `Workload::synthetic(blocks, heavy_first)` — mirrors the executor
    /// differential's miniature models.
    Synthetic,
    /// NAS on CIFAR-10 (6 blocks, MobileNetV2 → ProxylessNAS).
    NasCifar10,
    /// Model compression on CIFAR-10 (13 blocks, VGG-16 → DS-Conv).
    CompressionCifar10,
}

impl SimWorkload {
    /// Short tag used in scenario ids.
    pub fn tag(&self) -> &'static str {
        match self {
            SimWorkload::Synthetic => "syn",
            SimWorkload::NasCifar10 => "nas",
            SimWorkload::CompressionCifar10 => "vgg",
        }
    }
}

/// The class of a fault scenario's script — each class gets its own ratio
/// budget in the [`ToleranceBook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// Host or loader-pool slowdowns only (membership preserved).
    Slowdown,
    /// One or more hosts drop out.
    Loss,
    /// A host joins mid-run (elastic scale-up).
    Join,
    /// Slowdown combined with a membership change.
    Compound,
}

impl FaultClass {
    /// Every class, in matrix order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::Slowdown,
        FaultClass::Loss,
        FaultClass::Join,
        FaultClass::Compound,
    ];

    /// Short label used in scenario ids and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::Slowdown => "slowdown",
            FaultClass::Loss => "loss",
            FaultClass::Join => "join",
            FaultClass::Compound => "compound",
        }
    }
}

/// The fault axis of a scenario: a deterministic script plus whether the
/// lowering replans at each cluster change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCase {
    /// The fault class (selects the tolerance budget).
    pub class: FaultClass,
    /// Whether online replanning is enabled (`false` is only valid for
    /// membership-preserving scripts — a static schedule cannot place
    /// work on a missing rank).
    pub replan: bool,
    /// Whether the *executor* direction runs too: the script is driven
    /// against the real threaded executor through the recovery protocol
    /// (checkpoint → replan → resume), and the recovered parameters are
    /// checked against an uninterrupted reference run — bitwise for
    /// width-1 incumbents, within the recovery budget for batch-split
    /// ones. `false` keeps the scenario timing-plane only.
    pub exec_recovery: bool,
    /// The injected event list.
    pub script: FaultScript,
}

/// One point of the conformance matrix: everything needed to replay both
/// differential checks, serializable so sweeps leave an auditable record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique, human-readable id (also the artifact lookup key), e.g.
    /// `"syn4h-r4-ahd-blocked-threaded"` (the `blocked` is historical:
    /// ids, and so seeds, are kept from when the kernel was an axis).
    pub id: String,
    /// Deterministic RNG seed for model init and data (FNV-1a of `id`).
    pub seed: u64,
    /// Block count of the executor differential's mini models (and of the
    /// synthetic sim workload when `sim_workload` is `Synthetic`).
    pub blocks: usize,
    /// Whether the synthetic workload's block 0 is ~8× heavier (the
    /// ImageNet imbalance shape).
    pub heavy_first: bool,
    /// Which workload the simulator/estimator direction runs on.
    pub sim_workload: SimWorkload,
    /// Whether the executor differential trains the NAS supernet student
    /// (with architecture parameters) instead of the DS-Conv student.
    pub supernet: bool,
    /// Device count (threads for the executors, GPUs for the simulator).
    pub ranks: usize,
    /// Global batch for the simulator/estimator direction.
    pub sim_batch: usize,
    /// Global batch for the functional executors (divisible by every
    /// stage width the plan space can produce).
    pub exec_batch: usize,
    /// Optimizer steps the executor differential trains for.
    pub exec_steps: usize,
    /// The scheduling strategy under test.
    pub strategy: ConformanceStrategy,
    /// The subject executor compared against the reference semantics
    /// (`Reference` makes the scenario a determinism check).
    pub subject: ExecutorChoice,
    /// Host compute-lane budget for intra-stage kernel parallelism
    /// (`FuncConfig::pool_size`). `1` pins every kernel serial — the
    /// default for the classic slices, so their numbers cannot depend on
    /// the machine. The pool slice sweeps `{2, 4}` and asserts the
    /// tensor determinism contract end to end: pooled kernels must
    /// reproduce the serial reference bitwise on width-1 plans.
    pub pool_size: usize,
    /// Whether the executor differential's miniature models use batch
    /// norm (widened plans then assert the shard-statistics budget).
    pub batch_norm: bool,
    /// The fault axis: `Some` makes this a fault-injection scenario —
    /// the simulator/estimator direction runs the degraded differential
    /// and the executor direction is skipped (faults do not change *what*
    /// is computed, only *when*; the healthy matrix pins the former).
    pub fault: Option<FaultCase>,
}

/// The model axis: `(blocks, heavy_first, supernet_student, sim_workload)`.
pub type ModelShape = (usize, bool, bool, SimWorkload);

/// FNV-1a over a string — the id→seed derivation (no ambient state).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Scenario {
    /// The one constructor: a healthy threaded-parity scenario at the
    /// classic slices' settings (3 executor steps, serial kernels, no
    /// batch norm), its seed derived from `id`. Slices that vary another
    /// axis override that field with struct-update syntax.
    pub fn new(
        id: String,
        (blocks, heavy_first, supernet, sim_workload): ModelShape,
        (ranks, exec_batch): (usize, usize),
        strategy: ConformanceStrategy,
    ) -> Self {
        Scenario {
            seed: fnv1a(&id),
            id,
            blocks,
            heavy_first,
            sim_workload,
            supernet,
            ranks,
            sim_batch: 256,
            exec_batch,
            exec_steps: 3,
            strategy,
            subject: ExecutorChoice::Threaded,
            pool_size: 1,
            batch_norm: false,
            fault: None,
        }
    }

    /// The workload of the simulator/estimator direction.
    pub fn workload(&self) -> Workload {
        match self.sim_workload {
            SimWorkload::Synthetic => Workload::synthetic(self.blocks, self.heavy_first),
            SimWorkload::NasCifar10 => Workload::nas_cifar10(),
            SimWorkload::CompressionCifar10 => Workload::compression_cifar10(),
        }
    }

    /// The simulated homogeneous server the plan is checked on.
    pub fn hardware(&self) -> HardwareConfig {
        HardwareConfig::a6000_server(self.ranks)
    }

    /// The strategy's stage plan for an arbitrary workload, plus whether
    /// updates are decoupled (`None` for DP and LS, which have no stage
    /// plan — their simulator direction uses the genuine baseline
    /// lowering, their executor direction the numerically-equivalent plans
    /// of [`Scenario::exec_plan`]).
    fn strategy_plan(&self, w: &Workload) -> Result<Option<(StagePlan, bool)>, String> {
        use ConformanceStrategy::{Ahd, Dp, HeteroAhd, Hybrid, Ls, Tr, TrDpu, TrIr};
        let (b, ranks) = (w.num_blocks(), self.ranks);
        let plan = match self.strategy {
            Dp | Ls => return Ok(None),
            Tr | TrDpu => StagePlan::contiguous(b, ranks).map_err(|e| e.to_string())?,
            TrIr => StagePlan::internal_relaying(b, ranks),
            Hybrid => {
                let half = ranks / 2;
                StagePlan::from_widths(&[(1, half), (b - 1, ranks - half)], b, ranks)
                    .map_err(|e| e.to_string())?
            }
            Ahd => {
                let hw = self.hardware();
                let table = Profiler::new(CostModel::new(hw.gpu.clone())).profile(
                    &w.model,
                    self.sim_batch,
                    ranks,
                );
                ahd::search(w, &table, &hw, self.sim_batch).plan
            }
            HeteroAhd => {
                let gpu = |r| match r % 2 {
                    0 => GpuModel::a6000(),
                    _ => GpuModel::rtx2080ti(),
                };
                let server = HeteroServer::new((0..ranks).map(gpu).collect());
                pipebd_sched::hetero::search(w, &server, self.sim_batch).plan
            }
        };
        Ok(Some((plan, self.strategy != Tr)))
    }

    /// The stage plan the *simulator/estimator* direction lowers, plus
    /// whether updates are decoupled; `None` for DP and LS.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration cannot be laid out (plain
    /// TR with fewer blocks than ranks — the enumerator never emits it).
    pub fn sim_plan(&self) -> Result<Option<(StagePlan, bool)>, String> {
        self.strategy_plan(&self.workload())
    }

    /// The plan the *executor differential* runs on the miniature models
    /// (always at `self.blocks`; the numerically equivalent plan for
    /// DP/LS, see the module docs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::sim_plan`].
    pub fn exec_plan(&self) -> Result<(StagePlan, bool), String> {
        match self.strategy {
            ConformanceStrategy::Dp => {
                Ok((StagePlan::internal_relaying(self.blocks, self.ranks), true))
            }
            ConformanceStrategy::Ls => Ok((
                StagePlan::contiguous(self.blocks, self.ranks).map_err(|e| e.to_string())?,
                true,
            )),
            _ => self
                .strategy_plan(&Workload::synthetic(self.blocks, self.heavy_first))?
                .ok_or_else(|| "plan strategies always carry a plan".to_string()),
        }
    }

    /// The tolerance the executor direction asserts: bitwise (`0.0`) when
    /// the executed plan has no batch splitting — the recovery protocol
    /// preserves width-1 through every replan — and otherwise the
    /// float-reassociation bound (averaging shard gradients reorders float
    /// sums), or the recovery budget for executor-recovery scenarios.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::sim_plan`].
    pub fn exec_tolerance(&self) -> Result<f32, String> {
        let split = self.exec_plan()?.0.uses_batch_split();
        Ok(if self.fault.as_ref().is_some_and(|f| f.exec_recovery) {
            ToleranceBook::recovery_tolerance(split)
        } else {
            ToleranceBook::exec_tolerance(split, self.batch_norm)
        })
    }
}

/// A persisted scenario sweep (the enumeration a gate run covered).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSet {
    /// One-line description of the sweep.
    pub description: String,
    /// All scenarios, in enumeration order.
    pub scenarios: Vec<Scenario>,
}

impl ArtifactPayload for ScenarioSet {
    const SCHEMA: &'static str = "pipebd.scenario_set";
    // V2: scenarios carry the fault axis (`fault`) and `batch_norm`.
    // V3: scenarios carry the kernel-parallelism axis (`pool_size`).
    // V4: fault cases carry the executor-recovery axis (`exec_recovery`).
    // V5: the rejoin slice — elastic join/rejoin scripts driven through
    // the executor-recovery protocol.
    // V6: the kernel axis is gone — no policy field, no naive half of the
    // synthetic slice.
    const VERSION: u32 = 6;
}

/// The synthetic model shapes of the healthy slices.
const SHAPES: [ModelShape; 4] = [
    (3, false, false, SimWorkload::Synthetic),
    (4, false, false, SimWorkload::Synthetic),
    (4, true, true, SimWorkload::Synthetic),
    (6, false, false, SimWorkload::Synthetic),
];

/// The paper workloads: the simulator direction runs at their real block
/// counts (6 and 13), the executor direction on a 4-block miniature.
const PAPER: [ModelShape; 2] = [
    (4, false, false, SimWorkload::NasCifar10),
    (4, false, false, SimWorkload::CompressionCifar10),
];

/// The rank axis with each rank count's executor batch (divisible by
/// every stage width ≤ ranks, so any searched plan is runnable).
const RANKS: [(usize, usize); 2] = [(2, 8), (4, 12)];

/// A healthy slice of the matrix: `shapes` × [`RANKS`] × `strategies` ×
/// `variants`, each variant `(id suffix, subject, batch_norm, pool_size)`.
struct Slice {
    shapes: &'static [ModelShape],
    strategies: &'static [ConformanceStrategy],
    variants: &'static [(&'static str, ExecutorChoice, bool, usize)],
}

/// The four healthy slices, in matrix order.
const HEALTHY: [Slice; 4] = [
    // Synthetic: the simulator direction lowers the same synthetic
    // structure the executors train (agreement is near exact and pinned
    // tightly). The subject-`Reference` variant (an executor-determinism
    // check) is emitted for TR+DPU only.
    Slice {
        shapes: &SHAPES,
        strategies: &ConformanceStrategy::ALL,
        variants: &[
            ("blocked-threaded", ExecutorChoice::Threaded, false, 1),
            ("blocked-reference", ExecutorChoice::Reference, false, 1),
        ],
    },
    // Paper: exercises the estimators where loading and imbalance matter.
    Slice {
        shapes: &PAPER,
        strategies: &ConformanceStrategy::ALL,
        variants: &[("blocked-threaded", ExecutorChoice::Threaded, false, 1)],
    },
    // Batch norm: the synthetic shapes again with batch-norm models (BN
    // only changes the executor direction's numerics).
    Slice {
        shapes: &SHAPES,
        strategies: &ConformanceStrategy::ALL,
        variants: &[("bn", ExecutorChoice::Threaded, true, 1)],
    },
    // Pool: threaded parity under a real kernel-parallelism budget ({2, 4}
    // compute lanes split across the device ranks). TR+DPU runs width-1
    // plans, so its parity stays *bitwise* — pooled kernels must reproduce
    // the serial reference bit for bit, the tensor determinism contract
    // end to end; IR and the hybrid shape add batch-split plans on top.
    Slice {
        shapes: &SHAPES,
        strategies: &[
            ConformanceStrategy::TrDpu,
            ConformanceStrategy::TrIr,
            ConformanceStrategy::Hybrid,
        ],
        variants: &[
            ("p2", ExecutorChoice::Threaded, false, 2),
            ("p4", ExecutorChoice::Threaded, false, 4),
        ],
    },
];

/// Whether `strategy` can be laid out: contiguous plans need at least as
/// many blocks as ranks, the hybrid shape at least 3 ranks.
fn fits(strategy: ConformanceStrategy, blocks: usize, ranks: usize) -> bool {
    use ConformanceStrategy::{Hybrid, Ls, Tr, TrDpu};
    match strategy {
        Ls | Tr | TrDpu => blocks >= ranks,
        Hybrid => ranks >= 3,
        _ => true,
    }
}

/// A slowdown of `rank` by `factor` over steps `start..end`.
fn slow(rank: usize, factor: f64, start_step: u32, end_step: u32) -> FaultEvent {
    FaultEvent::Slowdown {
        rank,
        factor,
        start_step,
        end_step,
    }
}

/// The loss of `rank` at step `at_step`.
fn lose(rank: usize, at_step: u32) -> FaultEvent {
    FaultEvent::HostLoss { rank, at_step }
}

/// `rank` joining at step `at_step`.
fn join(rank: usize, at_step: u32) -> FaultEvent {
    FaultEvent::HostJoin { rank, at_step }
}

/// One row of a fault-script table: `(tag, class, static_ok, events)`.
/// `static_ok` marks membership-preserving scripts that also get a
/// replanning-disabled twin (a static schedule cannot survive a loss or
/// exploit a join).
type FaultRow = (&'static str, FaultClass, bool, Vec<FaultEvent>);

/// The timing-plane fault scripts, parameterized by the rank count. Every
/// script settles by step 10, so the fault differential's tail window
/// (rounds 18–23 of 24) measures one steady regime.
fn fault_variants(ranks: usize) -> Vec<FaultRow> {
    use FaultClass::{Compound, Join, Loss, Slowdown};
    const END: u32 = u32::MAX;
    let last = ranks - 1;
    let loader = FaultEvent::LoaderSlowdown {
        factor: 2.0,
        start_step: 3,
        end_step: END,
    };
    let mut rows = vec![
        ("slow15", Slowdown, true, vec![slow(0, 1.5, 4, END)]),
        ("slow3", Slowdown, true, vec![slow(last, 3.0, 2, END)]),
        ("slowwin", Slowdown, true, vec![slow(0, 4.0, 3, 9)]),
        (
            "slowall",
            Slowdown,
            true,
            (0..ranks).map(|r| slow(r, 2.0, 2, END)).collect(),
        ),
        ("loader2", Slowdown, true, vec![loader]),
        ("lose1", Loss, false, vec![lose(1, 5)]),
        ("join1", Join, false, vec![join(last, 6)]),
        (
            "mix",
            Compound,
            false,
            vec![slow(0, 2.0, 2, END), lose(1, 6)],
        ),
        (
            "grow",
            Compound,
            false,
            vec![join(last, 4), slow(0, 2.0, 6, END)],
        ),
    ];
    if ranks >= 3 {
        rows.push(("lose2", Loss, false, vec![lose(0, 4), lose(last, 8)]));
    }
    rows
}

/// The executor-recovery scripts: every event fires within the slice's
/// 10 executor steps (and before the sim tail window), so each scenario
/// genuinely kills and restores — or, for the slowdown variant, proves
/// that pure pauses leave the result untouched with zero restores.
fn recovery_variants(ranks: usize) -> Vec<FaultRow> {
    use FaultClass::{Compound, Loss, Slowdown};
    vec![
        ("recslow", Slowdown, false, vec![slow(0, 1.5, 2, 8)]),
        ("reclose", Loss, false, vec![lose(1, 4)]),
        (
            "recmix",
            Compound,
            false,
            vec![slow(0, 2.0, 2, u32::MAX), lose(ranks - 1, 6)],
        ),
    ]
}

/// The elastic-membership scripts of the rejoin slice. In-set join
/// semantics: the joining rank is absent at step 0 (the first epoch runs
/// short-handed over a replanned member set) and is admitted at its
/// round boundary. The loss-then-rejoin compound needs a third rank — a
/// rank joins and leaves at most once, and [`FaultScript::timeline`]
/// rightly rejects a rank rejoining under its own cancelled id — so it
/// is emitted only for `ranks >= 3`.
fn rejoin_variants(ranks: usize) -> Vec<FaultRow> {
    use FaultClass::{Compound, Join};
    let last = ranks - 1;
    let mut rows = vec![
        ("join1", Join, false, vec![join(last, 4)]),
        (
            "growmix",
            Compound,
            false,
            vec![join(last, 4), slow(0, 2.0, 6, u32::MAX)],
        ),
    ];
    if ranks >= 3 {
        rows.push(("rejoin", Compound, false, vec![lose(1, 4), join(last, 6)]));
    }
    rows
}

/// Incumbents of the timing-plane fault slices: DPU-family only (the
/// splice is DPU-only; see `pipebd_core::lower::fault`).
const FAULT_STRATEGIES: [ConformanceStrategy; 3] = [
    ConformanceStrategy::TrDpu,
    ConformanceStrategy::Hybrid,
    ConformanceStrategy::Ahd,
];

/// Incumbents of the executor-recovery slices: TR+DPU is width-1, so its
/// recovered runs must be *bitwise* identical through every replan and
/// grow; the hybrid incumbent adds the batch-split case under the
/// recovery budget.
const RECOVERY_STRATEGIES: [ConformanceStrategy; 2] =
    [ConformanceStrategy::TrDpu, ConformanceStrategy::Hybrid];

/// A fault slice of the matrix: `(id tag, sim workload, script table,
/// executor recovery?)`, swept over [`RANKS`] and the incumbents on a
/// 6-block model.
type FaultSlice = (&'static str, SimWorkload, fn(usize) -> Vec<FaultRow>, bool);

/// The five fault slices, in matrix order. The first three are
/// timing-plane only (incumbent × script × replan policy, one per sim
/// workload). The recovery slice also drives its scripts against the
/// *real* threaded executor through the recovery protocol (kill
/// mid-training, restore the latest checkpoint, replan over the survivors,
/// resume) and checks the recovered parameters against an uninterrupted
/// reference run; the rejoin slice does the same for elastic membership
/// (a host absent at step 0 joins mid-run; a killed rank's hardware
/// rejoins under a fresh logical rank). Both run 10 executor steps, so
/// every script fires and leaves a checkpoint behind.
const FAULT_SLICES: [FaultSlice; 5] = [
    ("syn", SimWorkload::Synthetic, fault_variants, false),
    ("nas", SimWorkload::NasCifar10, fault_variants, false),
    (
        "vgg",
        SimWorkload::CompressionCifar10,
        fault_variants,
        false,
    ),
    ("rec", SimWorkload::Synthetic, recovery_variants, true),
    ("rejoin", SimWorkload::Synthetic, rejoin_variants, true),
];

/// Enumerates the full conformance matrix, deterministically: the
/// `HEALTHY` slices, then the `FAULT_SLICES`.
///
/// Skips only structurally impossible combinations (`fits`; fault
/// scripts that change membership under a replanning-disabled schedule).
pub fn enumerate() -> Vec<Scenario> {
    let mut out = Vec::new();
    for slice in &HEALTHY {
        for &shape in slice.shapes {
            let (blocks, heavy_first, _, sim_workload) = shape;
            let model = match sim_workload {
                SimWorkload::Synthetic => {
                    format!("syn{blocks}{}", if heavy_first { "h" } else { "u" })
                }
                paper => paper.tag().to_string(),
            };
            for (ranks, exec_batch) in RANKS {
                for &strategy in slice.strategies {
                    if !fits(strategy, blocks, ranks) {
                        continue;
                    }
                    for &(suffix, subject, batch_norm, pool_size) in slice.variants {
                        if subject == ExecutorChoice::Reference
                            && strategy != ConformanceStrategy::TrDpu
                        {
                            continue;
                        }
                        out.push(Scenario {
                            subject,
                            batch_norm,
                            pool_size,
                            ..Scenario::new(
                                format!("{model}-r{ranks}-{strategy}-{suffix}"),
                                shape,
                                (ranks, exec_batch),
                                strategy,
                            )
                        });
                    }
                }
            }
        }
    }
    for (tag, sim_workload, rows, exec_recovery) in FAULT_SLICES {
        let strategies: &[ConformanceStrategy] = if exec_recovery {
            &RECOVERY_STRATEGIES
        } else {
            &FAULT_STRATEGIES
        };
        for (ranks, exec_batch) in RANKS {
            for &strategy in strategies.iter().filter(|&&s| fits(s, 6, ranks)) {
                for (script, class, static_ok, events) in rows(ranks) {
                    for replan in [true, false] {
                        if !replan && !static_ok {
                            continue;
                        }
                        let mode = match (exec_recovery, replan) {
                            (true, _) => "",
                            (false, true) => "-replan",
                            (false, false) => "-static",
                        };
                        out.push(Scenario {
                            exec_steps: if exec_recovery { 10 } else { 3 },
                            fault: Some(FaultCase {
                                class,
                                replan,
                                exec_recovery,
                                script: FaultScript {
                                    events: events.clone(),
                                },
                            }),
                            ..Scenario::new(
                                format!("fault-{tag}-r{ranks}-{strategy}-{script}{mode}"),
                                (6, false, false, sim_workload),
                                (ranks, exec_batch),
                                strategy,
                            )
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_deterministic_and_large_enough() {
        let a = enumerate();
        assert_eq!(a, enumerate());
        assert_eq!(a.len(), 425);
    }

    #[test]
    fn ids_are_unique_and_seed_derived() {
        let all = enumerate();
        let mut ids: Vec<&str> = all.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "duplicate scenario ids");
        for s in &all {
            assert_eq!(s.seed, fnv1a(&s.id));
        }
    }

    #[test]
    fn every_scenario_has_a_runnable_exec_plan() {
        for s in enumerate() {
            let (plan, _) = s.exec_plan().unwrap_or_else(|e| panic!("{}: {e}", s.id));
            plan.validate().unwrap();
            assert_eq!(plan.num_blocks, s.blocks);
            assert_eq!(plan.num_devices, s.ranks);
            for stage in &plan.stages {
                let width = stage.width();
                assert_eq!(s.exec_batch % width, 0, "{}: width {width}", s.id);
            }
        }
    }

    /// Whether the scenario's fault script holds an event matching `p`.
    fn has_event(s: &Scenario, p: fn(&FaultEvent) -> bool) -> bool {
        s.fault
            .as_ref()
            .is_some_and(|f| f.script.events.iter().any(p))
    }

    #[test]
    fn axes_are_covered() {
        let all = enumerate();
        let has = |p: &dyn Fn(&Scenario) -> bool| all.iter().any(p);
        for strategy in ConformanceStrategy::ALL {
            assert!(has(&|s| s.strategy == strategy), "{strategy}");
        }
        assert!(has(&|s| s.subject == ExecutorChoice::Reference));
        assert!(has(&|s| s.supernet) && has(&|s| s.heavy_first));
        assert!(has(&|s| s.ranks == 2) && has(&|s| s.ranks == 4));
        assert!(has(&|s| s.batch_norm), "batch-norm slice missing");
        for pool in [1usize, 2, 4] {
            assert!(has(&|s| s.pool_size == pool), "no pool budget {pool}");
        }
        // The pool slice must include bitwise scenarios: width-1 plans
        // under a real kernel-parallelism budget.
        assert!(
            has(&|s| s.pool_size > 1 && s.exec_tolerance() == Ok(0.0)),
            "no bitwise pooled scenario"
        );
        for class in FaultClass::ALL {
            for replan in [true, false] {
                let valid = replan || class == FaultClass::Slowdown;
                let present = has(&|s| {
                    s.fault
                        .as_ref()
                        .is_some_and(|f| f.class == class && f.replan == replan)
                });
                assert_eq!(present, valid, "fault axis {class:?} replan={replan}");
            }
        }
        // The recovery axis: killed-and-restored executor runs, in the
        // bitwise (width-1 incumbent) and budgeted (batch-split incumbent)
        // regimes, for every class; a bitwise elastic join; and the
        // loss-then-rejoin compound.
        let recovery: Vec<&Scenario> = all
            .iter()
            .filter(|s| s.fault.as_ref().is_some_and(|f| f.exec_recovery))
            .collect();
        let rec = |p: &dyn Fn(&Scenario) -> bool| recovery.iter().any(|s| p(s));
        assert!(rec(&|s| s.exec_tolerance() == Ok(0.0)), "none bitwise");
        assert!(rec(&|s| s.exec_tolerance() != Ok(0.0)), "none batch-split");
        for class in FaultClass::ALL {
            assert!(
                rec(&|s| s.fault.as_ref().is_some_and(|f| f.class == class)),
                "recovery slice misses {class:?}"
            );
        }
        let joins = |e: &FaultEvent| matches!(e, FaultEvent::HostJoin { .. });
        let loses = |e: &FaultEvent| matches!(e, FaultEvent::HostLoss { .. });
        assert!(
            rec(&|s| s.exec_tolerance() == Ok(0.0) && has_event(s, joins)),
            "no bitwise elastic-join recovery scenario"
        );
        assert!(
            rec(&|s| has_event(s, joins) && has_event(s, loses)),
            "no loss-then-rejoin recovery scenario"
        );
        // Recovery scripts must fire inside the executor run.
        for s in &recovery {
            let script = &s.fault.as_ref().unwrap().script;
            let steps = script.timeline(s.ranks).unwrap().change_steps();
            assert!(
                steps.iter().any(|&st| (st as usize) < s.exec_steps),
                "{}: script never fires within {} executor steps",
                s.id,
                s.exec_steps
            );
        }
    }

    #[test]
    fn fault_scripts_are_valid_and_settle_before_the_tail() {
        for s in enumerate() {
            let Some(fault) = &s.fault else { continue };
            let timeline = fault
                .script
                .timeline(s.ranks)
                .unwrap_or_else(|e| panic!("{}: {e}", s.id));
            assert!(!timeline.is_healthy(), "{}: empty fault script", s.id);
            // Every finite change step sits before the measurement tail
            // (infinite window ends never fire inside the schedule).
            for step in timeline.change_steps() {
                assert!(
                    step == u32::MAX || step <= 10,
                    "{}: change step {step} lands inside the tail window",
                    s.id
                );
            }
        }
    }

    #[test]
    fn dp_and_ls_map_to_equivalent_plans() {
        let all = enumerate();
        let of = |strategy| {
            all.iter()
                .find(|s| s.strategy == strategy && s.ranks == 4)
                .unwrap()
        };
        let dp = of(ConformanceStrategy::Dp);
        let (plan, dpu) = dp.exec_plan().unwrap();
        assert!(dpu);
        assert_eq!(plan.stages.len(), 1, "DP ≡ internal relaying");
        assert!(plan.uses_batch_split());
        assert!(dp.exec_tolerance().unwrap() > 0.0);
        let ls = of(ConformanceStrategy::Ls);
        let (plan, _) = ls.exec_plan().unwrap();
        assert!(!plan.uses_batch_split(), "LS ≡ width-1 pipeline (bitwise)");
        assert_eq!(ls.exec_tolerance().unwrap(), 0.0);
    }

    #[test]
    fn scenario_set_roundtrips_through_serde() {
        let set = ScenarioSet {
            description: "test".into(),
            scenarios: enumerate(),
        };
        let back = ScenarioSet::from_json(&set.to_json()).expect("deserialize");
        assert_eq!(back, set);
    }
}

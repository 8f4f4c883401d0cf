//! The four training workloads: inputs from a seed, the executor runs
//! under test, the checks every run must pass, and the closed loop that
//! turns them into end-to-end metrics.
//!
//! The program under test only ever receives the generated `BlockNet`s,
//! `SyntheticImageDataset`, `FuncConfig` and `FaultScript`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipebd_artifact::CheckpointStore;
use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryRunner};
use pipebd_core::exec::threaded::{self, RunHooks};
use pipebd_core::exec::{reference, ExecError, FuncConfig, FuncOutcome};
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{
    mini_student_dsconv, mini_student_supernet, mini_teacher, MiniConfig, Workload,
};
use pipebd_nn::BlockNet;
use pipebd_sched::StagePlan;
use pipebd_sim::{FaultEvent, FaultScript};
use pipebd_tensor::Rng64;
use pipebd_trace::TraceCollector;

use crate::record::Tally;
use crate::spans::SpanLog;
use crate::stats::{summarize, Summary};

/// Device threads of every threaded run: 2 = `nproc` of the box the bounds
/// were recorded on.
pub const DEVICES: usize = 2;
/// Threaded runs pin the host pool budget to the device count, so each
/// device's intra-stage pool has width 1; the serial baseline pins 1.
/// Neither depends on the host's core count or on `PIPEBD_POOL`.
const THREADED_POOL: usize = DEVICES;
const SERIAL_POOL: usize = 1;
/// Rounds between checkpoints of a checkpointed run.
const CHECKPOINT_EVERY: usize = 2;
/// Parity budget of a batch-split plan against the serial reference
/// (gradient averaging reorders float sums); width-1 plans are bitwise.
const SPLIT_TOLERANCE: f32 = 1e-4;
/// Parity budget of a recovered batch-split run (the replanned shape
/// differs from the incumbent's) — the conformance plane's figure.
const SPLIT_RECOVERY_TOLERANCE: f32 = 5e-4;

/// One training workload's fixed shape. Only `steps` shrinks (warm-up,
/// `--quick`); everything else is the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainSpec {
    pub name: &'static str,
    /// MixedOp supernet student (NAS) instead of the DS-Conv student.
    pub supernet: bool,
    pub blocks: usize,
    pub channels: usize,
    /// Image side; inputs are `[batch, 3, side, side]`.
    pub side: usize,
    pub batch: usize,
    pub steps: usize,
    /// `(blocks, devices)` per stage, for `StagePlan::from_widths`.
    pub stages: &'static [(usize, usize)],
    /// Whether every rep also runs checkpointed-to-disk and host-loss
    /// variants, and the checkpointed run is the one `train_samples_per_s`
    /// reports.
    pub recovery: bool,
}

/// Shapes are the issue's table. Steps of the three pair workloads are
/// half of it: a run measures for 20 s, and at the table's steps that is
/// six pairs; at half, ten to seventeen, which is what steadies the paired
/// `speedup_vs_serial` (its ten-run spread fell from 6% to 2%).
/// `ckpt_recover` keeps 12 steps so the loss at step 9 replays one step
/// from the round-8 checkpoint.
pub const SPECS: [TrainSpec; 4] = [
    TrainSpec {
        name: "tr_compress",
        supernet: false,
        blocks: 4,
        channels: 16,
        side: 32,
        batch: 32,
        steps: 6,
        stages: &[(2, 1), (2, 1)],
        recovery: false,
    },
    TrainSpec {
        name: "split_nas",
        supernet: true,
        blocks: 4,
        channels: 16,
        side: 32,
        batch: 16,
        steps: 5,
        stages: &[(4, 2)],
        recovery: false,
    },
    TrainSpec {
        name: "thin_wide",
        supernet: false,
        blocks: 2,
        channels: 4,
        side: 64,
        batch: 32,
        steps: 10,
        stages: &[(1, 1), (1, 1)],
        recovery: false,
    },
    TrainSpec {
        name: "ckpt_recover",
        supernet: true,
        blocks: 4,
        channels: 32,
        side: 16,
        batch: 8,
        steps: 12,
        stages: &[(2, 1), (2, 1)],
        recovery: true,
    },
];

impl TrainSpec {
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Samples one run trains on.
    pub fn samples(&self) -> f64 {
        (self.steps * self.batch) as f64
    }

    /// The step at which the host-loss run loses rank 1: three quarters
    /// in, so a checkpoint exists and a tail remains to replay (step 9 of
    /// 12).
    pub fn fault_step(&self) -> usize {
        self.steps * 3 / 4
    }

    /// Per-device batch of the widest stage — the shape kernels see.
    pub fn shard(&self) -> usize {
        let widest = self.stages.iter().map(|&(_, d)| d).max().unwrap_or(1);
        self.batch / widest
    }
}

/// Everything a run receives, generated from the seed.
pub struct Inputs {
    pub teacher: BlockNet,
    pub student: BlockNet,
    pub data: SyntheticImageDataset,
    pub plan: StagePlan,
    /// Cost-model description `RecoveryRunner` replans with.
    pub cost: Workload,
    /// The loss at the last step, summed over blocks, of a student that is
    /// never updated; NaN (which fails every check) until
    /// [`learn_reference`] has measured it.
    pub untrained_loss: f32,
}

pub fn build(spec: &TrainSpec, seed: u64) -> Inputs {
    let cfg = MiniConfig {
        blocks: spec.blocks,
        channels: spec.channels,
        batch_norm: false,
    };
    let mut rng = Rng64::seed_from_u64(seed);
    let teacher = mini_teacher(cfg, &mut rng);
    let student = if spec.supernet {
        mini_student_supernet(cfg, &mut rng)
    } else {
        mini_student_dsconv(cfg, &mut rng)
    };
    Inputs {
        teacher,
        student,
        data: SyntheticImageDataset::mini(4096, spec.side, 4, seed.rotate_left(17) ^ 0xDA7A),
        plan: StagePlan::from_widths(spec.stages, spec.blocks, DEVICES)
            .expect("workload stage tables cover their blocks and devices"),
        cost: Workload::synthetic(spec.blocks, false),
        untrained_loss: f32::NAN,
    }
}

/// Measures what the learning check compares against: one serial run with
/// the learning rate at 0, so the student sees the same batches and never
/// moves. Comparing a trained run's last loss with its own first one would
/// compare two different batches, and over a dozen steps that fails for a
/// few seeds in a hundred.
pub fn learn_reference(spec: &TrainSpec, inputs: &mut Inputs) -> Result<(), ExecError> {
    let frozen = FuncConfig {
        lr: 0.0,
        ..config(spec, inputs, SERIAL_POOL)
    };
    let outcome = reference::run(&inputs.teacher, &inputs.student, &inputs.data, &frozen)?;
    inputs.untrained_loss = outcome.final_losses().iter().sum();
    Ok(())
}

/// The executor runs a rep is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// `reference::run`, one worker: the plain baseline.
    Serial,
    /// `threaded::run` on two device threads.
    Threaded,
    /// `RecoveryRunner`, healthy script, on-disk `CheckpointStore`.
    Checkpointed,
    /// The same with rank 1 lost at `fault_step`: restore, replan over
    /// the survivor, resume.
    Faulted,
}

impl RunKind {
    pub fn label(self) -> &'static str {
        match self {
            RunKind::Serial => "serial",
            RunKind::Threaded => "threaded",
            RunKind::Checkpointed => "checkpointed",
            RunKind::Faulted => "faulted",
        }
    }
}

pub struct RunOutput {
    pub outcome: FuncOutcome,
    pub wall_s: f64,
    /// `(restores, replans, fell_back, resumed_rounds)` of recovery runs.
    pub recovery: Option<(usize, usize, bool, Vec<usize>)>,
}

/// Where checkpointed runs write: `benchmark/out/tmp-<pid>/`, inside the
/// checkout, removed when the process ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A store with no checkpoint in it: `CheckpointStore::store` keeps
    /// the highest round, so a leftover from the previous rep would turn
    /// every write of this one into a skipped no-op.
    pub fn fresh_store(&self, name: &str) -> CheckpointStore {
        let store = CheckpointStore::at(&self.0, name);
        let _ = std::fs::remove_file(store.path());
        store
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(spec: &TrainSpec, inputs: &Inputs, pool: usize) -> FuncConfig {
    FuncConfig {
        devices: DEVICES,
        steps: spec.steps,
        batch: spec.batch,
        lr: 0.05,
        momentum: 0.9,
        plan: Some(inputs.plan.clone()),
        decoupled_updates: true,
        pool_size: Some(pool),
    }
}

/// One executor run, timed from call to return, inside a benchmark span.
pub fn run(
    kind: RunKind,
    spec: &TrainSpec,
    inputs: &Inputs,
    scratch: &Scratch,
    trace: Option<Arc<TraceCollector>>,
    log: &mut SpanLog,
) -> Result<RunOutput, ExecError> {
    let Inputs {
        teacher,
        student,
        data,
        cost,
        ..
    } = inputs;
    let script = match kind {
        RunKind::Faulted => FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 1,
                at_step: spec.fault_step() as u32,
            }],
        },
        _ => FaultScript::healthy(),
    };
    let store = scratch.fresh_store(kind.label());
    let span = format!("core::exec.{}", kind.label());
    let (result, wall_ns) = log.timed(&span, 1, |_| match kind {
        RunKind::Serial => {
            reference::run(teacher, student, data, &config(spec, inputs, SERIAL_POOL))
                .map(|o| (o, None))
                .map_err(ExecError::from)
        }
        RunKind::Threaded => {
            let hooks = RunHooks {
                trace,
                ..RunHooks::default()
            };
            let cfg = config(spec, inputs, THREADED_POOL);
            threaded::run_hooked(teacher, student, data, &cfg, &hooks).map(|o| (o, None))
        }
        RunKind::Checkpointed | RunKind::Faulted => RecoveryRunner {
            workload: cost,
            script: &script,
            policy: RecoveryPolicy {
                checkpoint_every: CHECKPOINT_EVERY,
                ..RecoveryPolicy::default()
            },
            sink: Arc::new(store),
            trace,
        }
        .run(teacher, student, data, &config(spec, inputs, THREADED_POOL))
        .map(|r| {
            let recovery = (r.restores, r.replans, r.fell_back, r.resumed_rounds);
            (r.outcome, Some(recovery))
        }),
    });
    let (outcome, recovery) = result?;
    Ok(RunOutput {
        outcome,
        wall_s: wall_ns as f64 / 1e9,
        recovery,
    })
}

/// The outcome a run of `kind` is checked against: width-1 subjects are
/// held to the serial reference, the recovery variants to the plain
/// threaded run (which the serial reference in turn pins).
pub fn golden_of(kind: RunKind) -> RunKind {
    match kind {
        RunKind::Checkpointed | RunKind::Faulted => RunKind::Threaded,
        RunKind::Serial | RunKind::Threaded => RunKind::Serial,
    }
}

/// The checks that make a run count: parity with `golden` within the
/// plan's budget (exactly 0 for width-1 plans), a last-step loss (summed
/// over blocks) below the never-updated student's on the same batch, and —
/// for recovery runs — the restore count the script implies with no
/// reference fallback.
pub fn check(
    kind: RunKind,
    spec: &TrainSpec,
    inputs: &Inputs,
    out: &RunOutput,
    golden: &FuncOutcome,
) -> Result<(), String> {
    let tolerance = match (inputs.plan.uses_batch_split(), kind) {
        (false, _) => 0.0,
        (true, RunKind::Faulted) => SPLIT_RECOVERY_TOLERANCE,
        (true, _) => SPLIT_TOLERANCE,
    };
    let param_diff = out.outcome.max_param_diff(golden);
    let loss_diff = out.outcome.max_loss_diff(golden);
    // Written so that a NaN difference fails.
    if !(param_diff <= tolerance && loss_diff <= tolerance) {
        return Err(format!(
            "max_param_diff {param_diff:e}, max_loss_diff {loss_diff:e} exceed {tolerance:e}"
        ));
    }
    // A single update need not help on the next batch, so a `--quick` run
    // (2 steps) is not held to this.
    let trained_loss: f32 = out.outcome.final_losses().iter().sum();
    let learned = trained_loss < inputs.untrained_loss; // false for a NaN on either side
    if spec.steps >= 4 && !learned {
        return Err(format!(
            "training did not lower the last step's loss ({trained_loss} against {} untrained)",
            inputs.untrained_loss
        ));
    }
    if let Some((restores, _, fell_back, _)) = &out.recovery {
        let expected = usize::from(kind == RunKind::Faulted);
        if *restores != expected || *fell_back {
            return Err(format!(
                "restores {restores} (expected {expected}), fell_back {fell_back}"
            ));
        }
    }
    Ok(())
}

impl Tally {
    /// Counts one run: failed when it returned an error (any `ExecError`,
    /// a `WorkerPanic` included), when its golden run did, or when a check
    /// does not hold. Returns whether the run counts.
    pub fn judge(
        &mut self,
        spec: &TrainSpec,
        inputs: &Inputs,
        kind: RunKind,
        result: &Result<RunOutput, ExecError>,
        golden: Option<&FuncOutcome>,
    ) -> bool {
        self.attempted += 1;
        let verdict = match (result, golden) {
            (Err(e), _) => Err(e.to_string()),
            (Ok(_), None) => Err("no reference outcome to check against".into()),
            (Ok(out), Some(golden)) => check(kind, spec, inputs, out, golden),
        };
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.failures
                    .push(format!("{} {}: {why}", spec.name, kind.label()));
                false
            }
        }
    }
}

/// The runs of one rep, in their even-rep order; odd reps reverse it, so
/// neither member of a pair always runs on the other's warm caches.
pub fn kinds(spec: &TrainSpec) -> &'static [RunKind] {
    if spec.recovery {
        &[
            RunKind::Serial,
            RunKind::Checkpointed,
            RunKind::Threaded,
            RunKind::Faulted,
        ]
    } else {
        &[RunKind::Serial, RunKind::Threaded]
    }
}

/// One set-up: inputs from the seed plus one short warm-up run of each
/// executor the workload uses. Returns the inputs and the seconds it took.
///
/// # Errors
///
/// A warm-up that cannot run leaves nothing to measure.
pub fn setup(
    spec: &TrainSpec,
    seed: u64,
    scratch: &Scratch,
    log: &mut SpanLog,
) -> Result<(Inputs, f64), ExecError> {
    let t0 = Instant::now();
    let (inputs, _) = log.timed("setup", 1, |log| {
        let inputs = build(spec, seed);
        // A third of the run: long enough for the faulted warm-up to take
        // the restore path.
        let warm = spec.with_steps((spec.steps / 3).max(2));
        for &kind in kinds(spec) {
            run(kind, &warm, &inputs, scratch, None, log)?;
        }
        Ok::<_, ExecError>(inputs)
    });
    Ok((inputs?, t0.elapsed().as_secs_f64()))
}

/// What one training workload's untraced run produced.
pub struct EndToEnd {
    /// `train`, `serial`, `speedup`, `recovered` and `plan_evals`, in the
    /// catalogue's order.
    pub metrics: Option<[Summary; 5]>,
    pub tally: Tally,
    pub final_losses: Vec<f32>,
    pub reps: usize,
}

/// The closed loop, one client: run a rep's executors one after another,
/// wait for each, check it, and repeat until `budget` is spent (at least
/// `min_reps` reps, at most `max_reps`). `None` for the metrics when no rep
/// passed its checks: nothing was measured.
pub fn measure(
    spec: &TrainSpec,
    inputs: &Inputs,
    scratch: &Scratch,
    budget: Duration,
    (min_reps, max_reps): (usize, usize),
    log: &mut SpanLog,
) -> EndToEnd {
    // The run `train_samples_per_s` reports, and the one
    // `recovered_samples_per_s` does: a workload whose fault script is
    // empty recovers nothing, so its healthy throughput stands.
    let (subject, recovered) = if spec.recovery {
        (RunKind::Checkpointed, RunKind::Faulted)
    } else {
        (RunKind::Threaded, RunKind::Threaded)
    };
    let started = Instant::now();
    let mut walls: Vec<(RunKind, Vec<f64>)> =
        kinds(spec).iter().map(|&k| (k, Vec::new())).collect();
    let mut ratios = Vec::new();
    let mut tally = Tally::default();
    let mut final_losses = Vec::new();
    let mut longest_rep = Duration::ZERO;
    let mut reps = 0usize;

    while reps < max_reps {
        let rep_started = Instant::now();
        let mut order = kinds(spec).to_vec();
        if reps % 2 == 1 {
            order.reverse();
        }
        let (outputs, _) = log.timed("rep", 1, |log| {
            order
                .iter()
                .map(|&kind| (kind, run(kind, spec, inputs, scratch, None, log)))
                .collect::<Vec<_>>()
        });
        let output_of = |kind: RunKind| {
            outputs
                .iter()
                .find(|(k, _)| *k == kind)
                .and_then(|(_, r)| r.as_ref().ok())
        };
        let mut rep_ok = true;
        for (kind, result) in &outputs {
            let golden = output_of(golden_of(*kind)).map(|o| &o.outcome);
            rep_ok &= tally.judge(spec, inputs, *kind, result, golden);
        }
        // Only clean reps contribute timings: a pair with a failed member
        // has no ratio.
        if rep_ok {
            let wall = |kind| output_of(kind).expect("a clean rep has every run").wall_s;
            for (kind, series) in &mut walls {
                series.push(wall(*kind));
            }
            ratios.push(wall(RunKind::Serial) / wall(subject));
            final_losses = output_of(subject)
                .expect("a clean rep has every run")
                .outcome
                .final_losses();
        }
        reps += 1;
        longest_rep = longest_rep.max(rep_started.elapsed());
        if reps >= min_reps && started.elapsed() + longest_rep > budget {
            break;
        }
    }

    let rate = |kind: RunKind| -> Summary {
        let series = &walls
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("metric runs are among the rep's kinds")
            .1;
        summarize(series)
            .fast_low()
            .map_decreasing(|wall| spec.samples() / wall)
    };
    let metrics = (!ratios.is_empty()).then(|| {
        let train = rate(subject);
        // A training workload evaluates one plan per subject run, by
        // executing it.
        let plan_evals = Summary {
            value: train.value / spec.samples(),
            median: train.median / spec.samples(),
            q1: train.q1 / spec.samples(),
            q3: train.q3 / spec.samples(),
            n: train.n,
        };
        [
            train,
            rate(RunKind::Serial),
            summarize(&ratios),
            rate(recovered),
            plan_evals,
        ]
    });
    EndToEnd {
        metrics,
        tally,
        final_losses,
        reps,
    }
}

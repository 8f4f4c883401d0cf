//! `plan_sweep`: the planning half of the product, with no tensors.
//!
//! One sweep is, for each of the paper's four workloads on
//! `a6000_server({2, 4, 8})`: `Experiment::run` for every strategy,
//! `ahd_decision`, and `sched::replan` after a host loss; plus, per
//! workload on four devices, `lower_faulted` + `simulate_faulted` on one
//! slowdown script. `sched`, `sim` and `core::lower` do all the work;
//! `tensor`, `nn` and `exec` none — the control for every executor change.

use std::time::{Duration, Instant};

use pipebd_core::lower::fault::lower_faulted;
use pipebd_core::lower::Lowering;
use pipebd_core::{Experiment, ExperimentBuilder, Strategy};
use pipebd_models::Workload;
use pipebd_sched::replan::replan;
use pipebd_sched::DegradedServer;
use pipebd_sim::{simulate_faulted, FaultEvent, FaultScript, HardwareConfig};

use crate::record::Tally;
use crate::spans::SpanLog;
use crate::stats::{summarize, Summary};

pub const BATCH: usize = 256;
pub const SIM_ROUNDS: u32 = 32;
pub const DEVICE_COUNTS: [usize; 3] = [2, 4, 8];
/// Device count the faulted lowering runs on.
pub const FAULT_DEVICES: usize = 4;

/// The paper's four workloads (Table II rows).
pub fn paper_workloads() -> [Workload; 4] {
    [
        Workload::nas_cifar10(),
        Workload::nas_imagenet(),
        Workload::compression_cifar10(),
        Workload::compression_imagenet(),
    ]
}

/// The last rank disappears a few rounds in.
pub fn loss_script(devices: usize) -> FaultScript {
    FaultScript {
        events: vec![FaultEvent::HostLoss {
            rank: devices - 1,
            at_step: 4,
        }],
    }
}

/// Rank 1 runs 1.5× slower for the middle half of the simulated rounds.
pub fn slowdown_script() -> FaultScript {
    FaultScript {
        events: vec![FaultEvent::Slowdown {
            rank: 1,
            factor: 1.5,
            start_step: SIM_ROUNDS / 4,
            end_step: 3 * SIM_ROUNDS / 4,
        }],
    }
}

struct Config {
    workload: Workload,
    hw: HardwareConfig,
    experiment: Experiment,
}

/// The sweep's inputs, built once per set-up.
pub struct Sweep {
    configs: Vec<Config>,
    slowdown: FaultScript,
}

/// What one sweep did.
pub struct SweepOutcome {
    pub wall_s: f64,
    /// `Experiment::run` + `ahd_decision` + `replan` + faulted-lowering
    /// calls completed.
    pub evals: u64,
    /// Training samples those calls simulated (rounds × global batch each).
    pub sim_samples: u64,
    /// Every AHD plan fingerprint of the sweep, in sweep order.
    pub fingerprint: String,
    /// Which `(config, strategy)` cells laid out, in sweep order.
    pub layout: Vec<bool>,
    pub failures: Vec<String>,
}

impl Sweep {
    pub fn new() -> Self {
        let mut configs = Vec::new();
        for workload in paper_workloads() {
            for devices in DEVICE_COUNTS {
                let hw = HardwareConfig::a6000_server(devices);
                let experiment = ExperimentBuilder::new(workload.clone())
                    .hardware(hw.clone())
                    .batch_size(BATCH)
                    .sim_rounds(SIM_ROUNDS)
                    .build()
                    .expect("the paper's workloads fit every swept server");
                configs.push(Config {
                    workload: workload.clone(),
                    hw,
                    experiment,
                });
            }
        }
        Sweep {
            configs,
            slowdown: slowdown_script(),
        }
    }

    pub fn run(&self, log: &mut SpanLog) -> SweepOutcome {
        let per_call = u64::from(SIM_ROUNDS) * BATCH as u64;
        let mut out = SweepOutcome {
            wall_s: 0.0,
            evals: 0,
            sim_samples: 0,
            fingerprint: String::new(),
            layout: Vec::new(),
            failures: Vec::new(),
        };
        let ((), wall_ns) = log.timed("sweep", 1, |log| {
            for c in &self.configs {
                let label = format!("{} x{}", c.workload.label(), c.hw.num_gpus);
                let (reports, _) =
                    log.timed("core.experiment_run", Strategy::ALL.len() as u64, |_| {
                        Strategy::ALL.map(|s| c.experiment.run(s))
                    });
                for r in &reports {
                    out.layout.push(r.is_ok());
                    if r.is_ok() {
                        out.evals += 1;
                        out.sim_samples += per_call;
                    }
                }
                // DP and full Pipe-BD lay out on every server; the paper's
                // claim is that Pipe-BD's epoch is no longer than DP's.
                match (&reports[0], &reports[Strategy::ALL.len() - 1]) {
                    (Ok(dp), Ok(pb)) if pb.epoch_time <= dp.epoch_time => {}
                    (Ok(dp), Ok(pb)) => out.failures.push(format!(
                        "{label}: Pipe-BD epoch {}s exceeds DP {}s",
                        pb.epoch_time_s(),
                        dp.epoch_time_s()
                    )),
                    _ => out
                        .failures
                        .push(format!("{label}: DP or Pipe-BD failed to lay out")),
                }

                let (decision, _) =
                    log.timed("sched.ahd_decision", 1, |_| c.experiment.ahd_decision());
                out.evals += 1;
                out.fingerprint.push_str(&decision.plan.fingerprint());
                out.fingerprint.push(';');

                let script = loss_script(c.hw.num_gpus);
                let (replanned, _) = log.timed("sched.replan", 1, |_| {
                    DegradedServer::at_step(&c.hw, &script, 4)
                        .map(|server| replan(&c.workload, &server, BATCH))
                });
                match replanned {
                    Ok(d) if d.plan.num_devices == c.hw.num_gpus - 1 => out.evals += 1,
                    Ok(d) => out.failures.push(format!(
                        "{label}: replan kept {} devices after a loss",
                        d.plan.num_devices
                    )),
                    Err(e) => out.failures.push(format!("{label}: replan: {e}")),
                }

                if c.hw.num_gpus == FAULT_DEVICES {
                    let lowering = Lowering::new(&c.workload, &c.hw, BATCH, SIM_ROUNDS);
                    let (faulted, _) = log.timed("core::lower.faulted", 2, |_| {
                        lower_faulted(&lowering, &decision.plan, &self.slowdown, true).and_then(
                            |l| {
                                simulate_faulted(&l.graph, &self.slowdown)
                                    .map_err(|e| e.to_string())
                            },
                        )
                    });
                    match faulted {
                        Ok(_) => {
                            out.evals += 2;
                            out.sim_samples += per_call;
                        }
                        Err(e) => out.failures.push(format!("{label}: faulted lowering: {e}")),
                    }
                }
            }
        });
        out.wall_s = wall_ns as f64 / 1e9;
        out
    }
}

/// One set-up: the sweep's inputs plus one warm-up sweep, whose outcome is
/// the reference every timed sweep must reproduce.
pub fn setup(log: &mut SpanLog) -> (Sweep, SweepOutcome, f64) {
    let t0 = Instant::now();
    let ((sweep, warm), _) = log.timed("setup", 1, |log| {
        let sweep = Sweep::new();
        let warm = sweep.run(log);
        (sweep, warm)
    });
    (sweep, warm, t0.elapsed().as_secs_f64())
}

/// What the untraced `plan_sweep` run produced. The sweep is serial, so
/// its "serial" and "subject" sides are alternate sweeps of the same code
/// (an A/A pair): `speedup` reads 1 ± this box's pairing noise.
pub struct EndToEnd {
    /// Simulated samples per second of the subject and of the serial
    /// sweeps, their paired ratio, the subject sweeps again (the
    /// "recovered" cell), and evals per second — the catalogue's order.
    /// `None` when no pair passed its checks.
    pub metrics: Option<[Summary; 5]>,
    pub tally: Tally,
    pub pairs: usize,
}

/// The closed loop: sweep after sweep, in pairs, until `budget` is spent.
/// A sweep fails when any of its checks does, or when it lays out a
/// different set of strategies or picks different AHD plans than the
/// warm-up sweep did.
pub fn measure(
    sweep: &Sweep,
    reference: &SweepOutcome,
    budget: Duration,
    (min_pairs, max_pairs): (usize, usize),
    log: &mut SpanLog,
) -> EndToEnd {
    let started = Instant::now();
    let mut sides: [Vec<f64>; 2] = Default::default();
    let (mut ratios, mut evals) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut longest = Duration::ZERO;
    let mut pairs = 0usize;

    while pairs < max_pairs {
        let pair_started = Instant::now();
        let (outcomes, _) = log.timed("rep", 1, |log| [sweep.run(log), sweep.run(log)]);
        tally.attempted += 2;
        let mut pair_ok = true;
        for o in &outcomes {
            let mut why = o.failures.clone();
            if o.fingerprint != reference.fingerprint {
                why.push("AHD plan fingerprints differ from the warm-up sweep's".into());
            }
            if o.layout != reference.layout {
                why.push("a different set of strategies laid out than in the warm-up sweep".into());
            }
            if !why.is_empty() {
                tally.failed += 1;
                pair_ok = false;
                tally.failures.extend(why);
            }
        }
        if pair_ok {
            // Which sweep of the pair plays "serial" alternates.
            let (a, b) = if pairs % 2 == 0 { (0, 1) } else { (1, 0) };
            for (side, i) in [(0, a), (1, b)] {
                let o = &outcomes[i];
                sides[side].push(o.sim_samples as f64 / o.wall_s);
                evals.push(o.evals as f64 / o.wall_s);
            }
            ratios.push(outcomes[a].wall_s / outcomes[b].wall_s);
        }
        pairs += 1;
        longest = longest.max(pair_started.elapsed());
        if pairs >= min_pairs && started.elapsed() + longest > budget {
            break;
        }
    }

    let metrics = (!ratios.is_empty()).then(|| {
        let subject = summarize(&sides[1]).fast_high();
        [
            subject,
            summarize(&sides[0]).fast_high(),
            summarize(&ratios),
            // The sweep's fault script is part of every sweep; nothing is
            // recovered apart from it.
            subject,
            summarize(&evals).fast_high(),
        ]
    });
    EndToEnd {
        metrics,
        tally,
        pairs,
    }
}

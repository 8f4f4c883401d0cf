//! The experiment facade: configure a workload + hardware once, then run
//! any strategy and get a [`RunReport`].

use pipebd_models::{ModelError, Workload};
use pipebd_sched::{ahd, AhdDecision, CostModel, Profiler};
use pipebd_sim::{render_gantt, simulate, Breakdown, HardwareConfig, SimTime};

use crate::lower::{lower, Lowered, Lowering};
use crate::memory::memory_per_rank;
use crate::report::RunReport;
use crate::strategy::Strategy;

/// Error raised when building or running an experiment: one variant per
/// check of [`ExperimentBuilder::build`], and the layout failure of
/// [`Experiment::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The hardware has no GPU.
    NoDevices,
    /// The global batch is 0.
    EmptyBatch,
    /// The global batch has fewer rows than there are devices.
    BatchBelowDevices {
        /// The global batch.
        batch: usize,
        /// The device count.
        devices: usize,
    },
    /// The workload's model is not a chain of blocks.
    Model(ModelError),
    /// The strategy cannot be laid out on this configuration.
    Layout {
        /// The strategy that was asked for.
        strategy: Strategy,
        /// Why the lowering refused it.
        reason: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("experiment error: ")?;
        match self {
            ExperimentError::NoDevices => f.write_str("need at least one GPU"),
            ExperimentError::EmptyBatch => f.write_str("batch size must be positive"),
            ExperimentError::BatchBelowDevices { batch, devices } => {
                write!(f, "batch {batch} smaller than device count {devices}")
            }
            ExperimentError::Model(e) => write!(f, "{e}"),
            ExperimentError::Layout { strategy, reason } => {
                write!(f, "{strategy} cannot be laid out: {reason}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Builder for an [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    workload: Workload,
    hw: HardwareConfig,
    batch: usize,
    sim_rounds: u32,
}

impl ExperimentBuilder {
    /// Starts from an explicit workload.
    pub fn new(workload: Workload) -> Self {
        ExperimentBuilder {
            workload,
            hw: HardwareConfig::a6000_server(4),
            batch: 256,
            sim_rounds: 32,
        }
    }

    /// NAS on CIFAR-10 (the paper's default ablation workload).
    pub fn nas_cifar10() -> Self {
        ExperimentBuilder::new(Workload::nas_cifar10())
    }

    /// NAS on ImageNet.
    pub fn nas_imagenet() -> Self {
        ExperimentBuilder::new(Workload::nas_imagenet())
    }

    /// Model compression on CIFAR-10.
    pub fn compression_cifar10() -> Self {
        ExperimentBuilder::new(Workload::compression_cifar10())
    }

    /// Model compression on ImageNet.
    pub fn compression_imagenet() -> Self {
        ExperimentBuilder::new(Workload::compression_imagenet())
    }

    /// Sets the number of GPUs (keeps the current GPU type).
    pub fn devices(mut self, n: usize) -> Self {
        self.hw.num_gpus = n;
        self
    }

    /// Sets the global batch size.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the full hardware configuration.
    pub fn hardware(mut self, hw: HardwareConfig) -> Self {
        self.hw = hw;
        self
    }

    /// Sets how many rounds to simulate before extrapolating to an epoch
    /// (more rounds = tighter steady-state estimate, slower simulation).
    pub fn sim_rounds(mut self, rounds: u32) -> Self {
        self.sim_rounds = rounds.max(2);
        self
    }

    /// Validates and builds the experiment.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] for nonsensical configurations (no
    /// devices, zero batch, fewer batch rows than devices).
    pub fn build(self) -> Result<Experiment, ExperimentError> {
        let (batch, devices) = (self.batch, self.hw.num_gpus);
        if devices == 0 {
            return Err(ExperimentError::NoDevices);
        }
        if batch == 0 {
            return Err(ExperimentError::EmptyBatch);
        }
        if batch < devices {
            return Err(ExperimentError::BatchBelowDevices { batch, devices });
        }
        self.workload
            .model
            .validate()
            .map_err(ExperimentError::Model)?;
        Ok(Experiment {
            workload: self.workload,
            hw: self.hw,
            batch: self.batch,
            sim_rounds: self.sim_rounds,
        })
    }
}

/// A configured experiment: workload × hardware × batch.
#[derive(Debug, Clone)]
pub struct Experiment {
    workload: Workload,
    hw: HardwareConfig,
    batch: usize,
    sim_rounds: u32,
}

impl Experiment {
    /// The workload under test.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The simulated server.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// The global batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Rounds per epoch (`steps_per_epoch × rounds_per_step`).
    pub fn epoch_rounds(&self) -> u64 {
        self.workload.dataset.steps_per_epoch(self.batch) * self.workload.rounds_per_step as u64
    }

    /// Simulates one strategy and reports epoch-level results.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] if the strategy cannot be laid out on
    /// this configuration (e.g. plain TR with fewer blocks than devices).
    pub fn run(&self, strategy: Strategy) -> Result<RunReport, ExperimentError> {
        let lowered = self.lower(strategy, self.sim_rounds)?;
        let run = simulate(&lowered.graph);
        let breakdown = Breakdown::from_run(&lowered.graph, &run);
        let memory = memory_per_rank(
            strategy,
            &self.workload,
            self.hw.num_gpus,
            self.batch,
            lowered.plan.as_ref(),
            lowered.ls.as_ref(),
        );

        // DP simulates `sim_rounds` per phase but an epoch runs
        // `epoch_rounds` per phase; the others simulate `sim_rounds` total
        // against `epoch_rounds` total. Both scale identically.
        let epoch_rounds = self.epoch_rounds();
        let scale = epoch_rounds as f64 / self.sim_rounds as f64;
        let epoch_time = SimTime::from_secs_f64(run.makespan.as_secs_f64() * scale);

        let mut report = RunReport {
            strategy,
            workload: self.workload.label(),
            hardware: self.hw.label(),
            global_batch: self.batch,
            simulated_rounds: self.sim_rounds,
            epoch_rounds,
            sim_makespan: run.makespan,
            epoch_time,
            breakdown,
            memory_per_rank: memory,
            plan: lowered.plan,
            ls_blocks: None,
        };
        if let Some(ls) = &lowered.ls {
            report.set_ls(ls);
        }
        Ok(report)
    }

    /// Renders the ASCII Gantt chart of a few simulated rounds of a
    /// strategy (the paper's Fig. 5b/5c schedule visualizations).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Experiment::run`].
    pub fn gantt(&self, strategy: Strategy, columns: usize) -> Result<String, ExperimentError> {
        let lowered = self.lower(strategy, 4)?;
        let run = simulate(&lowered.graph);
        Ok(render_gantt(&lowered.graph, &run, columns))
    }

    /// Lays `strategy` out over `rounds` simulated rounds.
    fn lower(&self, strategy: Strategy, rounds: u32) -> Result<Lowered, ExperimentError> {
        let lowering = Lowering::new(&self.workload, &self.hw, self.batch, rounds);
        lower(&lowering, strategy).map_err(|reason| ExperimentError::Layout { strategy, reason })
    }

    /// Runs the profiling pass and the AHD search, returning the decision
    /// (the plan [`Experiment::run`] uses for [`Strategy::PipeBd`]).
    pub fn ahd_decision(&self) -> AhdDecision {
        let table = Profiler::new(CostModel::new(self.hw.gpu.clone())).profile(
            &self.workload.model,
            self.batch,
            self.hw.num_gpus,
        );
        ahd::search(&self.workload, &table, &self.hw, self.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(ExperimentBuilder::nas_cifar10().build().is_ok());
    }

    #[test]
    fn no_devices_is_refused() {
        let why = ExperimentBuilder::nas_cifar10().devices(0).build();
        assert_eq!(why.unwrap_err(), ExperimentError::NoDevices);
    }

    #[test]
    fn an_empty_batch_is_refused() {
        let why = ExperimentBuilder::nas_cifar10().batch_size(0).build();
        assert_eq!(why.unwrap_err(), ExperimentError::EmptyBatch);
    }

    #[test]
    fn a_batch_below_the_device_count_is_refused() {
        let why = ExperimentBuilder::nas_cifar10()
            .batch_size(2)
            .devices(4)
            .build();
        let why = why.unwrap_err();
        assert_eq!(
            why,
            ExperimentError::BatchBelowDevices {
                batch: 2,
                devices: 4
            }
        );
        assert_eq!(
            why.to_string(),
            "experiment error: batch 2 smaller than device count 4"
        );
    }

    #[test]
    fn a_broken_model_is_refused_with_its_own_error() {
        let mut workload = Workload::synthetic(3, false);
        workload.model.blocks.clear();
        let why = ExperimentBuilder::new(workload).build().unwrap_err();
        assert_eq!(why, ExperimentError::Model(ModelError::NoBlocks));
        assert_eq!(why.to_string(), "experiment error: model has no blocks");
    }

    #[test]
    fn a_strategy_with_no_layout_names_itself() {
        // Plain teacher relaying needs a block per device: 2 blocks do not
        // fill 4 devices.
        let e = ExperimentBuilder::new(Workload::synthetic(2, false))
            .sim_rounds(4)
            .build()
            .unwrap();
        for why in [
            e.run(Strategy::TeacherRelaying).unwrap_err(),
            e.gantt(Strategy::TeacherRelaying, 60).unwrap_err(),
        ] {
            assert!(
                matches!(&why, ExperimentError::Layout { strategy: Strategy::TeacherRelaying, reason } if !reason.is_empty()),
                "{why:?}"
            );
        }
    }

    #[test]
    fn run_produces_consistent_report() {
        let e = ExperimentBuilder::new(Workload::synthetic(6, false))
            .sim_rounds(8)
            .build()
            .unwrap();
        let r = e.run(Strategy::TrDpu).unwrap();
        assert_eq!(r.strategy, Strategy::TrDpu);
        assert_eq!(r.memory_per_rank.len(), 4);
        assert!(r.epoch_time_s() > 0.0);
        assert!(r.plan.is_some());
        // Epoch time consistent with scale.
        let expect = r.sim_makespan.as_secs_f64() * r.epoch_scale();
        assert!((r.epoch_time_s() - expect).abs() < 1e-9);
    }

    #[test]
    fn gantt_renders_for_all_strategies() {
        let e = ExperimentBuilder::new(Workload::synthetic(6, false))
            .sim_rounds(4)
            .build()
            .unwrap();
        for s in Strategy::ALL {
            let chart = e.gantt(s, 60).unwrap();
            assert!(chart.contains("gpu0"), "{s} chart missing rows");
        }
    }

    #[test]
    fn ahd_decision_matches_pipe_bd_run_plan() {
        let e = ExperimentBuilder::nas_imagenet()
            .sim_rounds(4)
            .build()
            .unwrap();
        let d = e.ahd_decision();
        let r = e.run(Strategy::PipeBd).unwrap();
        assert_eq!(Some(d.plan), r.plan);
    }
}

//! Block-level timing primitives: the single source of truth mapping a
//! [`BlockDescriptor`] and a per-device batch size to simulated durations.
//!
//! Both the strategy lowering (crate `pipebd-core`) and the AHD plan
//! estimator query this model, so the schedule the search picks is the
//! schedule the simulator rewards — mirroring how the real Pipe-BD profiles
//! the actual devices it will run on.

use pipebd_models::BlockDescriptor;
use pipebd_sim::{GpuModel, SimTime};

/// Timing model for block executions on one GPU type.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// The GPU all durations are computed for.
    pub gpu: GpuModel,
}

impl CostModel {
    /// Creates a cost model for a GPU.
    pub fn new(gpu: GpuModel) -> Self {
        CostModel { gpu }
    }

    /// Teacher-side parallelism: mean live elements per sample per layer.
    fn teacher_parallelism(desc: &BlockDescriptor) -> u64 {
        desc.teacher_act_elems / desc.teacher_kernels.max(1) as u64
    }

    /// Student-side parallelism: mean live elements per sample per layer.
    fn student_parallelism(desc: &BlockDescriptor) -> u64 {
        desc.student_act_elems / desc.student_kernels.max(1) as u64
    }

    /// Teacher forward duration for one block at a per-device batch.
    pub fn teacher_time(&self, desc: &BlockDescriptor, batch: usize) -> SimTime {
        let macs = desc.teacher_macs * batch as u64;
        let bytes = 4
            * (batch as u64 * (desc.in_shape.elems() + desc.teacher_act_elems)
                + desc.teacher_params);
        self.gpu.exec_time(
            macs,
            bytes,
            Self::teacher_parallelism(desc),
            batch,
            desc.teacher_kernels,
        )
    }

    /// Student forward + backward duration for one block at a per-device
    /// batch (backward ≈ 2× forward, hence the factor 3).
    pub fn student_time(&self, desc: &BlockDescriptor, batch: usize) -> SimTime {
        let macs = 3 * desc.student_macs * batch as u64;
        let bytes = 4
            * (3 * batch as u64 * (desc.in_shape.elems() + desc.student_act_elems)
                + 3 * desc.student_params);
        self.gpu.exec_time(
            macs,
            bytes,
            Self::student_parallelism(desc),
            batch,
            3 * desc.student_kernels,
        )
    }

    /// Optimizer update duration for one block (memory-bound sweep over
    /// parameters, gradients, and momentum).
    pub fn update_time(&self, desc: &BlockDescriptor) -> SimTime {
        let bytes = desc.student_state_bytes();
        SimTime::from_secs_f64(bytes as f64 / self.gpu.mem_bw) + self.gpu.launch_overhead
    }

    /// Teacher time summed over several blocks.
    pub fn teacher_time_blocks(&self, blocks: &[BlockDescriptor], batch: usize) -> SimTime {
        blocks.iter().map(|b| self.teacher_time(b, batch)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_models::Workload;

    fn model() -> CostModel {
        CostModel::new(GpuModel::a6000())
    }

    #[test]
    fn student_costs_more_than_teacher() {
        let w = Workload::nas_cifar10();
        let cm = model();
        for b in &w.model.blocks {
            assert!(
                cm.student_time(b, 256) > cm.teacher_time(b, 256),
                "supernet student (all candidates, fwd+bwd) must dominate"
            );
        }
    }

    #[test]
    fn batch_scaling_is_sublinear() {
        let w = Workload::nas_cifar10();
        let cm = model();
        let b = &w.model.blocks[3];
        let t64 = cm.teacher_time(b, 64).as_secs_f64();
        let t256 = cm.teacher_time(b, 256).as_secs_f64();
        assert!(t256 < 4.0 * t64, "4x batch must cost < 4x time");
        assert!(t256 > t64, "more batch is still more time");
    }

    #[test]
    fn update_time_scales_with_params() {
        let w = Workload::compression_imagenet();
        let cm = model();
        let small = cm.update_time(&w.model.blocks[0]);
        let big = cm.update_time(&w.model.blocks[12]); // classifier block
        assert!(big > small);
    }

    #[test]
    fn blocks_sum_matches_parts() {
        let w = Workload::nas_cifar10();
        let cm = model();
        let all: SimTime = cm.teacher_time_blocks(&w.model.blocks, 128);
        let parts: SimTime = w.model.blocks.iter().map(|b| cm.teacher_time(b, 128)).sum();
        assert_eq!(all, parts);
    }

    #[test]
    fn imagenet_block0_pair_dominates_on_time() {
        // The Fig. 5 premise, now at the *time* level: teacher+student time
        // of block 0 exceeds every other block's at full batch.
        let w = Workload::nas_imagenet();
        let cm = model();
        let pair_time = |i: usize| {
            cm.teacher_time(&w.model.blocks[i], 256) + cm.student_time(&w.model.blocks[i], 256)
        };
        let b0 = pair_time(0);
        for i in 1..w.num_blocks() {
            assert!(
                pair_time(i) < b0,
                "block {i} should be lighter than block 0"
            );
        }
    }
}

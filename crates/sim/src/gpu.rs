//! Roofline-style GPU cost model.
//!
//! A kernel's duration is the maximum of its compute time and its memory
//! time, plus launch overhead. Compute throughput is scaled by an occupancy
//! efficiency `occ / (occ + occ_half)` where `occ = batch × parallelism`
//! and *parallelism* is the mean number of live output elements per sample
//! (channels × spatial positions averaged over the block's layers): small
//! per-device batches and narrow late-network layers underutilize the
//! device — the effect that makes data parallelism slow in the paper's
//! baseline (and that makes the gap worse on bigger GPUs, the paper's
//! Fig. 5 observation).

use crate::time::SimTime;

/// Parameters of one GPU type.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Marketing name, e.g. `"RTX A6000"`.
    pub name: String,
    /// Peak fp32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Per-kernel launch overhead.
    pub launch_overhead: SimTime,
    /// Occupancy half-saturation point, in `batch × live-elements` units.
    /// Larger devices need more parallel work to reach peak.
    pub occ_half: f64,
    /// Device memory capacity in bytes (for reporting; the simulator does
    /// not enforce it, matching how the paper reports memory overhead).
    pub mem_capacity: u64,
}

impl GpuModel {
    /// NVIDIA RTX A6000 (Ampere, 84 SMs, 48 GB): the paper's default GPU.
    pub fn a6000() -> Self {
        GpuModel {
            name: "RTX A6000".into(),
            peak_flops: 38.7e12,
            mem_bw: 768e9,
            launch_overhead: SimTime::from_us(4.0),
            occ_half: 3_500_000.0,
            mem_capacity: 48 * (1 << 30),
        }
    }

    /// NVIDIA RTX 2080 Ti (Turing, 68 SMs, 11 GB): the paper's low-cost
    /// alternative.
    pub fn rtx2080ti() -> Self {
        GpuModel {
            name: "RTX 2080Ti".into(),
            peak_flops: 13.4e12,
            mem_bw: 616e9,
            launch_overhead: SimTime::from_us(4.0),
            occ_half: 1_000_000.0,
            mem_capacity: 11 * (1 << 30),
        }
    }

    /// A uniformly degraded copy of this GPU: every kernel runs exactly
    /// `factor`× slower.
    ///
    /// Throughputs (`peak_flops`, `mem_bw`) divide by the factor and the
    /// launch overhead multiplies by it, while the occupancy curve
    /// (`occ_half`) is untouched — so [`GpuModel::exec_time`] scales by
    /// exactly `factor` for every workload, matching how the fault plane's
    /// `simulate_faulted` scales already-lowered task durations.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and `>= 1.0`.
    pub fn slowed(&self, factor: f64) -> GpuModel {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slowdown factor {factor} must be finite and >= 1"
        );
        GpuModel {
            name: if factor == 1.0 {
                self.name.clone()
            } else {
                format!("{} ({factor}x slow)", self.name)
            },
            peak_flops: self.peak_flops / factor,
            mem_bw: self.mem_bw / factor,
            launch_overhead: SimTime::from_secs_f64(self.launch_overhead.as_secs_f64() * factor),
            occ_half: self.occ_half,
            mem_capacity: self.mem_capacity,
        }
    }

    /// Occupancy efficiency in `(0, 1)` for a given amount of parallel work
    /// (`parallelism` = mean live elements per sample).
    pub fn efficiency(&self, batch: usize, parallelism: u64) -> f64 {
        let occ = batch as f64 * parallelism as f64;
        occ / (occ + self.occ_half)
    }

    /// Duration of a fused block execution.
    ///
    /// * `macs` — multiply-accumulates for the whole batch.
    /// * `bytes` — activation + weight traffic for the whole batch.
    /// * `parallelism` — mean live output elements per sample.
    /// * `batch` — per-device batch size.
    /// * `kernels` — number of kernel launches.
    pub fn exec_time(
        &self,
        macs: u64,
        bytes: u64,
        parallelism: u64,
        batch: usize,
        kernels: u32,
    ) -> SimTime {
        let eff = self.efficiency(batch, parallelism.max(1));
        let flops = 2.0 * macs as f64;
        let compute_s = flops / (self.peak_flops * eff);
        let mem_s = bytes as f64 / self.mem_bw;
        let overhead = self.launch_overhead.as_secs_f64() * kernels as f64;
        SimTime::from_secs_f64(compute_s.max(mem_s) + overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_power() {
        let a = GpuModel::a6000();
        let t = GpuModel::rtx2080ti();
        assert!(a.peak_flops > t.peak_flops);
        assert!(a.mem_capacity > t.mem_capacity);
        assert!(a.occ_half > t.occ_half, "bigger GPU needs more work");
    }

    #[test]
    fn efficiency_increases_with_batch() {
        let g = GpuModel::a6000();
        let small = g.efficiency(16, 196);
        let large = g.efficiency(256, 196);
        assert!(large > small);
        assert!(large < 1.0);
    }

    #[test]
    fn exec_time_monotone_in_work() {
        let g = GpuModel::a6000();
        let t1 = g.exec_time(1_000_000, 1_000, 196, 64, 1);
        let t2 = g.exec_time(10_000_000, 1_000, 196, 64, 1);
        assert!(t2 > t1);
    }

    #[test]
    fn batch_scaling_is_sublinear_at_small_batch() {
        // Doubling batch less than doubles time when underutilized: the
        // justification for teacher relaying's full-batch execution.
        let g = GpuModel::a6000();
        let t64 = g.exec_time(64 * 1_000_000, 64, 49, 64, 1);
        let t256 = g.exec_time(256 * 1_000_000, 256, 49, 256, 1);
        let ratio = t256.as_secs_f64() / t64.as_secs_f64();
        assert!(ratio < 3.5, "ratio {ratio} should be < 4 (sublinear)");
    }

    #[test]
    fn small_gpu_less_sensitive_to_occupancy() {
        // Fig. 5: block-0 dominance is *more* extreme on A6000 because the
        // other blocks underutilize the bigger device more.
        let a = GpuModel::a6000();
        let t = GpuModel::rtx2080ti();
        let late_block = (64usize, 49u64); // small spatial extent
        let eff_a = a.efficiency(late_block.0, late_block.1);
        let eff_t = t.efficiency(late_block.0, late_block.1);
        assert!(eff_t > eff_a);
    }

    #[test]
    fn slowed_scales_exec_time_exactly() {
        let g = GpuModel::a6000();
        for factor in [1.0, 1.5, 2.0, 4.0] {
            let s = g.slowed(factor);
            for (macs, bytes, par, batch, kernels) in [
                (64_000_000u64, 2_000_000u64, 196u64, 64usize, 3u32),
                (1_000u64, 768_000_000u64, 10_000u64, 256usize, 1u32),
            ] {
                let healthy = g.exec_time(macs, bytes, par, batch, kernels).as_secs_f64();
                let slow = s.exec_time(macs, bytes, par, batch, kernels).as_secs_f64();
                assert!(
                    (slow - factor * healthy).abs() <= 2e-9,
                    "factor {factor}: {slow} vs {}",
                    factor * healthy
                );
            }
        }
        assert_eq!(g.slowed(1.0), g, "unit factor is the identity");
    }

    #[test]
    #[should_panic(expected = "must be finite and >= 1")]
    fn slowed_rejects_speedups() {
        GpuModel::a6000().slowed(0.5);
    }

    #[test]
    fn memory_bound_kernels_hit_bandwidth_roof() {
        let g = GpuModel::a6000();
        // Tiny compute, huge traffic.
        let t = g.exec_time(1_000, 768_000_000, 10_000, 256, 1);
        // 768 MB at 768 GB/s = 1 ms (+4us launch).
        assert!((t.as_secs_f64() - 1.004e-3).abs() < 2e-5, "{t}");
    }
}

//! **Extension beyond the paper:** automatic hybrid distribution on
//! *heterogeneous* servers.
//!
//! The paper's conclusion names heterogeneous GPUs/servers as future work.
//! This module extends the AHD search to servers whose ranks have
//! different GPU models: stage times are evaluated per rank with that
//! rank's cost model, and batch-split stages shard their batch
//! *proportionally to member throughput* (instead of evenly), so a 2080 Ti
//! paired with an A6000 receives a smaller shard rather than stalling the
//! stage.
//!
//! The plan vocabulary is unchanged ([`StagePlan`]); the decision gains a
//! per-stage batch split. The search walks the same plan space in the same
//! order as the paper's AHD, from a table of per-stage times keyed by the
//! stage's block range and device range (see [`search`]).

use pipebd_models::Workload;
use pipebd_sim::{GpuModel, HostModel, PcieModel, SimTime};

use crate::cost::CostModel;
use crate::plan::{first_minimum, Stage, StagePlan, StageTerms};

/// A single-node server whose ranks may carry different GPU models.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroServer {
    /// GPU model per rank (`gpus.len()` = device count).
    pub gpus: Vec<GpuModel>,
    /// Shared interconnect.
    pub pcie: PcieModel,
    /// Shared host/loader.
    pub host: HostModel,
}

impl HeteroServer {
    /// A server with the given per-rank GPUs, PCIe 4.0, EPYC host.
    pub fn new(gpus: Vec<GpuModel>) -> Self {
        HeteroServer {
            gpus,
            pcie: PcieModel::gen4_x16(),
            host: HostModel::epyc7302(),
        }
    }

    /// Number of devices.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Short identifier, e.g. `"2x RTX A6000 + 2x RTX 2080Ti"`.
    pub fn label(&self) -> String {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for g in &self.gpus {
            match counts.iter_mut().find(|(n, _)| *n == g.name) {
                Some((_, c)) => *c += 1,
                None => counts.push((g.name.clone(), 1)),
            }
        }
        counts
            .iter()
            .map(|(n, c)| format!("{c}x {n}"))
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

/// The heterogeneous AHD decision: a plan plus per-stage batch shards.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroDecision {
    /// The chosen plan.
    pub plan: StagePlan,
    /// For each stage, the batch shard assigned to each member (same order
    /// as `stage.devices`; sums to the global batch).
    pub splits: Vec<Vec<usize>>,
    /// Estimated steady-state step period.
    pub estimate: SimTime,
}

/// Time one member of a stage takes for its shard on its own GPU.
fn member_time(cost: &CostModel, workload: &Workload, stage: &Stage, shard: usize) -> SimTime {
    let mut t = SimTime::ZERO;
    for b in stage.blocks() {
        let desc = &workload.model.blocks[b];
        t += cost.teacher_time(desc, shard);
        t += cost.student_time(desc, shard);
        t += cost.update_time(desc);
    }
    t
}

/// Splits `batch` across the stage's members proportionally to their
/// measured throughput on this stage (largest-remainder rounding).
///
/// Every member gets at least one sample when `batch >= width`; with fewer
/// samples than members (`batch < width`, e.g. batch 1 on a wide stage)
/// only the `batch` fastest members receive a sample and the rest sit the
/// round out with a zero shard. Degenerate throughput probes (all-zero or
/// non-finite speeds) fall back to an even split.
pub fn proportional_split(
    costs: &[CostModel],
    workload: &Workload,
    stage: &Stage,
    batch: usize,
) -> Vec<usize> {
    let m = stage.width();
    if m == 1 {
        return vec![batch];
    }
    // Throughput probe at the even split (at least one sample so the cost
    // model sees a well-defined occupancy).
    let even = batch.div_ceil(m).max(1);
    let mut speeds: Vec<f64> = stage
        .devices
        .iter()
        .map(|&d| {
            let t = member_time(&costs[d], workload, stage, even).as_secs_f64();
            if t <= 0.0 {
                1.0
            } else {
                even as f64 / t
            }
        })
        .collect();
    let total_speed: f64 = speeds.iter().sum();
    if !total_speed.is_finite() || total_speed <= 0.0 {
        speeds = vec![1.0; m];
    }
    let total_speed: f64 = speeds.iter().sum();
    if batch < m {
        // Not every member can receive a sample: the fastest `batch`
        // members get one each (stable on ties: lower member index wins).
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            speeds[b]
                .partial_cmp(&speeds[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut alloc = vec![0usize; m];
        for &i in order.iter().take(batch) {
            alloc[i] = 1;
        }
        return alloc;
    }
    // Largest-remainder allocation with a floor of 1 sample.
    let mut shares: Vec<(usize, f64)> = speeds
        .iter()
        .enumerate()
        .map(|(i, s)| (i, batch as f64 * s / total_speed))
        .collect();
    let mut alloc: Vec<usize> = shares
        .iter()
        .map(|(_, x)| (x.floor() as usize).max(1))
        .collect();
    let mut assigned: usize = alloc.iter().sum();
    // Fix rounding drift: hand out remaining samples by largest remainder,
    // or claw back from the smallest remainders (terminates because the
    // floor-of-1 total never exceeds `batch` when every member can shrink
    // to 1 and `batch >= m`).
    shares.sort_by(|a, b| {
        let ra = a.1 - a.1.floor();
        let rb = b.1 - b.1.floor();
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut i = 0;
    while assigned < batch {
        alloc[shares[i % shares.len()].0] += 1;
        assigned += 1;
        i += 1;
    }
    let mut j = shares.len();
    while assigned > batch {
        j = if j == 0 { shares.len() } else { j } - 1;
        let idx = shares[j].0;
        if alloc[idx] > 1 {
            alloc[idx] -= 1;
            assigned -= 1;
        }
    }
    alloc
}

/// Steady-state time of one stage with proportional sharding.
pub fn stage_time_hetero(
    costs: &[CostModel],
    workload: &Workload,
    server: &HeteroServer,
    stage: &Stage,
    batch: usize,
) -> (SimTime, Vec<usize>) {
    let split = proportional_split(costs, workload, stage, batch);
    let mut worst = SimTime::ZERO;
    for (member, &d) in stage.devices.iter().enumerate() {
        if split[member] == 0 {
            // A member without samples does no work this round (batch
            // smaller than the stage width).
            continue;
        }
        let mut t = member_time(&costs[d], workload, stage, split[member]);
        if stage.first_block == 0 {
            let bytes = split[member] as u64 * workload.dataset.sample_bytes();
            t += server.host.consume_time(split[member], bytes, &server.pcie);
        }
        if t > worst {
            worst = t;
        }
    }
    if stage.width() > 1 {
        let grad_bytes: u64 = stage
            .blocks()
            .map(|b| 4 * workload.model.blocks[b].student_params)
            .sum();
        worst += server.pcie.allreduce_time(grad_bytes, stage.width());
    }
    (worst, split)
}

/// Exhaustive heterogeneous AHD search: same plan space as the paper's
/// AHD, per-rank cost models, proportional batch splits.
///
/// A plan's estimate is the maximum of its stages' [`stage_time_hetero`].
/// With per-rank GPUs a stage's time depends on where its ranks sit, so
/// the search computes it once per `(first_block, num_blocks,
/// first_device, width)`, walks the plan space taking each plan's maximum
/// over that table, and builds only the winner, whose splits come from the
/// same table.
///
/// # Panics
///
/// Panics when the workload has no blocks or the server no GPUs.
pub fn search(workload: &Workload, server: &HeteroServer, batch: usize) -> HeteroDecision {
    let costs: Vec<CostModel> = server
        .gpus
        .iter()
        .map(|g| CostModel::new(g.clone()))
        .collect();
    let (blocks, devices) = (workload.num_blocks(), server.num_gpus());
    let stages = StageTerms::by_placement(blocks, devices, |stage| {
        stage_time_hetero(&costs, workload, server, stage, batch)
    });
    let (plan, estimate) = first_minimum(blocks, devices, |block_counts, widths| {
        stages
            .of_plan(block_counts, widths)
            .fold(SimTime::ZERO, |period, ((t, _), _)| period.max(*t))
    });
    let splits = plan
        .stages
        .iter()
        .map(|stage| stages.get(stage).1.clone())
        .collect();
    HeteroDecision {
        plan,
        splits,
        estimate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;
    use pipebd_sim::HardwareConfig;

    fn mixed_server() -> HeteroServer {
        HeteroServer::new(vec![
            GpuModel::a6000(),
            GpuModel::a6000(),
            GpuModel::rtx2080ti(),
            GpuModel::rtx2080ti(),
        ])
    }

    #[test]
    fn label_groups_gpu_types() {
        assert_eq!(mixed_server().label(), "2x RTX A6000 + 2x RTX 2080Ti");
        let homo = HeteroServer::new(vec![GpuModel::a6000(); 4]);
        assert_eq!(homo.label(), "4x RTX A6000");
    }

    #[test]
    fn homogeneous_degenerates_to_paper_ahd() {
        // With identical GPUs the heterogeneous search must pick the same
        // plan as the paper's AHD (splits even up to rounding).
        let w = Workload::nas_imagenet();
        let hw = HardwareConfig::a6000_server(4);
        let homo = HeteroServer {
            gpus: vec![hw.gpu.clone(); 4],
            pcie: hw.pcie.clone(),
            host: hw.host.clone(),
        };
        let hetero = search(&w, &homo, 256);
        let table = Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, 256, 4);
        let paper = crate::ahd::search(&w, &table, &hw, 256);
        assert_eq!(hetero.plan, paper.plan);
        for split in &hetero.splits {
            let max = *split.iter().max().unwrap();
            let min = *split.iter().min().unwrap();
            assert!(max - min <= 1, "even split expected, got {split:?}");
        }
    }

    #[test]
    fn faster_gpu_receives_larger_shard() {
        let w = Workload::nas_imagenet();
        let server = mixed_server();
        let costs: Vec<CostModel> = server
            .gpus
            .iter()
            .map(|g| CostModel::new(g.clone()))
            .collect();
        // A stage spanning all four devices: ranks 0-1 are A6000s.
        let stage = Stage {
            first_block: 0,
            num_blocks: 1,
            devices: vec![0, 1, 2, 3],
        };
        let split = proportional_split(&costs, &w, &stage, 256);
        assert_eq!(split.iter().sum::<usize>(), 256);
        assert!(
            split[0] > split[2],
            "A6000 shard {} should exceed 2080Ti shard {}",
            split[0],
            split[2]
        );
        assert_eq!(split[0], split[1], "equal GPUs get equal shards");
    }

    #[test]
    fn proportional_split_beats_even_split() {
        let w = Workload::nas_imagenet();
        let server = mixed_server();
        let costs: Vec<CostModel> = server
            .gpus
            .iter()
            .map(|g| CostModel::new(g.clone()))
            .collect();
        let stage = Stage {
            first_block: 0,
            num_blocks: 2,
            devices: vec![0, 1, 2, 3],
        };
        let (t_prop, _) = stage_time_hetero(&costs, &w, &server, &stage, 256);
        // Even split: slowest member (2080Ti at 64) bounds the stage.
        let even = 256usize.div_ceil(4);
        let t_even = stage
            .devices
            .iter()
            .map(|&d| member_time(&costs[d], &w, &stage, even))
            .max()
            .unwrap();
        assert!(
            t_prop.as_secs_f64() < t_even.as_secs_f64(),
            "proportional {t_prop} should beat even {t_even}"
        );
    }

    #[test]
    fn search_is_deterministic_and_valid() {
        let w = Workload::nas_cifar10();
        let server = mixed_server();
        let a = search(&w, &server, 256);
        let b = search(&w, &server, 256);
        assert_eq!(a, b);
        a.plan.validate().unwrap();
        assert_eq!(a.splits.len(), a.plan.stages.len());
        for (stage, split) in a.plan.stages.iter().zip(a.splits.iter()) {
            assert_eq!(split.len(), stage.width());
            assert_eq!(split.iter().sum::<usize>(), 256);
        }
    }

    #[test]
    fn batch_smaller_than_width_gives_fastest_members_one_sample() {
        // batch=1 on a 4-wide stage used to hang the claw-back loop (every
        // alloc already at the floor of 1); now the fastest member gets the
        // single sample and the others sit out.
        let w = Workload::nas_imagenet();
        let server = mixed_server();
        let costs: Vec<CostModel> = server
            .gpus
            .iter()
            .map(|g| CostModel::new(g.clone()))
            .collect();
        let stage = Stage {
            first_block: 0,
            num_blocks: 1,
            devices: vec![0, 1, 2, 3],
        };
        let split = proportional_split(&costs, &w, &stage, 1);
        assert_eq!(split.iter().sum::<usize>(), 1);
        assert_eq!(split[0], 1, "the A6000 (rank 0) must take the sample");
        let split3 = proportional_split(&costs, &w, &stage, 3);
        assert_eq!(split3.iter().sum::<usize>(), 3);
        assert_eq!(
            split3,
            vec![1, 1, 1, 0],
            "three samples go to the three fastest (ties break low-rank)"
        );
        // The stage time stays well-defined: zero-shard members are idle.
        let (t, split) = stage_time_hetero(&costs, &w, &server, &stage, 1);
        assert!(t > SimTime::ZERO);
        assert_eq!(split.iter().sum::<usize>(), 1);
    }

    #[test]
    fn search_handles_batch_one_and_more_ranks_than_blocks() {
        // More ranks than blocks forces wide stages; batch=1 then exercises
        // the zero-shard path end to end through the search.
        let w = Workload::synthetic(2, false);
        let server = mixed_server(); // 4 ranks, 2 blocks
        let d = search(&w, &server, 1);
        d.plan.validate().unwrap();
        for (stage, split) in d.plan.stages.iter().zip(d.splits.iter()) {
            assert_eq!(split.len(), stage.width());
            assert_eq!(split.iter().sum::<usize>(), 1);
        }
        assert!(d.estimate > SimTime::ZERO);
    }

    #[test]
    fn zero_throughput_rank_still_gets_a_floor_share() {
        // A rank whose cost model predicts (effectively) zero throughput
        // must not starve the split of samples or produce NaN shares: it
        // receives the floor of one sample, the rest go to real ranks.
        let w = Workload::nas_imagenet();
        let mut dead = GpuModel::a6000();
        dead.peak_flops = 1.0; // ~zero throughput
        dead.mem_bw = 1.0;
        let server = HeteroServer::new(vec![
            GpuModel::a6000(),
            GpuModel::a6000(),
            GpuModel::a6000(),
            dead,
        ]);
        let costs: Vec<CostModel> = server
            .gpus
            .iter()
            .map(|g| CostModel::new(g.clone()))
            .collect();
        let stage = Stage {
            first_block: 0,
            num_blocks: 1,
            devices: vec![0, 1, 2, 3],
        };
        let split = proportional_split(&costs, &w, &stage, 64);
        assert_eq!(split.iter().sum::<usize>(), 64);
        assert_eq!(split[3], 1, "dead rank is clamped to the floor share");
        assert!(split[0] > 16, "live ranks absorb the dead rank's load");
    }

    #[test]
    fn mixed_server_estimate_between_pure_servers() {
        // A 2xA6000+2x2080Ti server should be no faster than 4x A6000 and
        // no slower than 4x 2080Ti.
        let w = Workload::compression_cifar10();
        let fast = search(&w, &HeteroServer::new(vec![GpuModel::a6000(); 4]), 256);
        let slow = search(&w, &HeteroServer::new(vec![GpuModel::rtx2080ti(); 4]), 256);
        let mixed = search(&w, &mixed_server(), 256);
        assert!(fast.estimate <= mixed.estimate);
        assert!(mixed.estimate <= slow.estimate);
    }
}

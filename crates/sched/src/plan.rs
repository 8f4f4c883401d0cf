//! Stage plans: how blocks and devices are grouped for pipelined execution.
//!
//! A [`StagePlan`] partitions the `B` blocks into contiguous *stages* and
//! assigns each stage a set of consecutive device ranks. A stage with more
//! than one device splits its batch across them (hybrid pipeline + data
//! parallelism — the paper's automatic hybrid distribution). Two special
//! cases recover the paper's simpler schemes:
//!
//! * one stage per device, one or more blocks each → plain teacher relaying;
//! * a single stage holding every block on every device → internal relaying.
//!
//! The hybrid plan space is walked in one order, by [`walk_hybrid_plans`],
//! which hands each plan over as its block counts and widths without
//! building it; [`enumerate_hybrid_plans`] is that walk, materialised. The
//! searches (`ahd`, `replan`, `hetero`) score each walked plan from a
//! per-search table of stage terms ([`StageTerms`]), keep the first
//! strict minimum ([`first_minimum`]) and build only the winner.

use std::cell::OnceCell;
use std::ops::Range;

use pipebd_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One pipeline stage: a contiguous block range replicated over a device
/// group.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Stage {
    /// First block index of the stage.
    pub first_block: usize,
    /// Number of blocks in the stage (≥ 1).
    pub num_blocks: usize,
    /// Consecutive device ranks executing the stage (≥ 1). With more than
    /// one device the stage's batch is split evenly among them.
    pub devices: Vec<usize>,
}

impl Stage {
    /// The block indices of this stage.
    pub fn blocks(&self) -> std::ops::Range<usize> {
        self.first_block..self.first_block + self.num_blocks
    }

    /// Degree of data parallelism within the stage.
    pub fn width(&self) -> usize {
        self.devices.len()
    }

    /// Per-device batch for a global batch size (ceiling division so every
    /// sample is covered).
    pub fn device_batch(&self, global_batch: usize) -> usize {
        global_batch.div_ceil(self.width())
    }
}

/// A complete assignment of blocks and devices to pipeline stages.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StagePlan {
    /// The stages in pipeline order.
    pub stages: Vec<Stage>,
    /// Total number of blocks `B`.
    pub num_blocks: usize,
    /// Total number of devices `N`.
    pub num_devices: usize,
}

/// Error from [`StagePlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidPlan(pub String);

impl std::fmt::Display for InvalidPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid stage plan: {}", self.0)
    }
}

impl std::error::Error for InvalidPlan {}

impl StagePlan {
    /// Builds a plan from `(blocks_in_stage, devices_in_stage)` pairs,
    /// assigning consecutive block and device ranges.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPlan`] if the pairs do not exactly cover the blocks
    /// and devices.
    pub fn from_widths(
        pairs: &[(usize, usize)],
        num_blocks: usize,
        num_devices: usize,
    ) -> Result<Self, InvalidPlan> {
        let plan = StagePlan::from_parts(pairs.iter().copied(), num_blocks, num_devices);
        plan.validate()?;
        Ok(plan)
    }

    /// Lays `(blocks_in_stage, devices_in_stage)` pairs out on consecutive
    /// block and device ranges, unchecked.
    fn from_parts(
        pairs: impl Iterator<Item = (usize, usize)>,
        num_blocks: usize,
        num_devices: usize,
    ) -> Self {
        let mut stages = Vec::new();
        let mut block = 0usize;
        let mut device = 0usize;
        for (nb, nd) in pairs {
            stages.push(Stage {
                first_block: block,
                num_blocks: nb,
                devices: (device..device + nd).collect(),
            });
            block += nb;
            device += nd;
        }
        StagePlan {
            stages,
            num_blocks,
            num_devices,
        }
    }

    /// The plain teacher-relaying plan: blocks split contiguously into `N`
    /// near-equal groups, one device each. Used by TR / TR+DPU (no batch
    /// splitting).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPlan`] if there are no devices or fewer blocks than
    /// devices.
    pub fn contiguous(num_blocks: usize, num_devices: usize) -> Result<Self, InvalidPlan> {
        if num_devices == 0 {
            return Err(InvalidPlan("a plan needs at least one device".into()));
        }
        if num_blocks < num_devices {
            return Err(InvalidPlan(format!(
                "cannot place {num_blocks} blocks on {num_devices} devices without batch splitting"
            )));
        }
        let base = num_blocks / num_devices;
        let extra = num_blocks % num_devices;
        let pairs: Vec<(usize, usize)> = (0..num_devices)
            .map(|d| (base + usize::from(d < extra), 1))
            .collect();
        StagePlan::from_widths(&pairs, num_blocks, num_devices)
    }

    /// The internal-relaying plan (the paper's TR+IR): every device holds
    /// all blocks; parallelism is purely over the batch.
    pub fn internal_relaying(num_blocks: usize, num_devices: usize) -> Self {
        StagePlan {
            stages: vec![Stage {
                first_block: 0,
                num_blocks,
                devices: (0..num_devices).collect(),
            }],
            num_blocks,
            num_devices,
        }
    }

    /// Checks structural invariants: stages contiguous and covering all
    /// blocks, devices consecutive and covering all ranks exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPlan`] describing the violated invariant.
    pub fn validate(&self) -> Result<(), InvalidPlan> {
        if self.stages.is_empty() {
            return Err(InvalidPlan("no stages".into()));
        }
        let mut block = 0usize;
        let mut device = 0usize;
        for (i, s) in self.stages.iter().enumerate() {
            if s.num_blocks == 0 {
                return Err(InvalidPlan(format!("stage {i} has no blocks")));
            }
            if s.devices.is_empty() {
                return Err(InvalidPlan(format!("stage {i} has no devices")));
            }
            if s.first_block != block {
                return Err(InvalidPlan(format!(
                    "stage {i} starts at block {} but {} expected",
                    s.first_block, block
                )));
            }
            for (j, &d) in s.devices.iter().enumerate() {
                if d != device + j {
                    return Err(InvalidPlan(format!(
                        "stage {i} devices must be consecutive ranks from {device}"
                    )));
                }
            }
            block += s.num_blocks;
            device += s.devices.len();
        }
        if block != self.num_blocks {
            return Err(InvalidPlan(format!(
                "stages cover {block} of {} blocks",
                self.num_blocks
            )));
        }
        if device != self.num_devices {
            return Err(InvalidPlan(format!(
                "stages use {device} of {} devices",
                self.num_devices
            )));
        }
        Ok(())
    }

    /// The stage that owns block `b`, if any.
    pub fn stage_of_block(&self, b: usize) -> Option<&Stage> {
        self.stages.iter().find(|s| s.blocks().contains(&b))
    }

    /// The stage a device rank belongs to, if any.
    pub fn stage_of_device(&self, d: usize) -> Option<&Stage> {
        self.stages.iter().find(|s| s.devices.contains(&d))
    }

    /// Whether any stage uses batch splitting (width > 1).
    pub fn uses_batch_split(&self) -> bool {
        self.stages.iter().any(|s| s.width() > 1)
    }

    /// Splits a host compute budget of `host_threads` lanes across the
    /// plan's device ranks, returning the per-device intra-stage pool
    /// width (indexed by device rank).
    ///
    /// All `N` device workers run concurrently on the host, so the
    /// budget is divided evenly across ranks: each gets
    /// `host_threads / N` lanes (minimum 1 — a device worker always has
    /// its own thread), and the first `host_threads % N` ranks get one
    /// extra lane. A width of 1 means that device's kernels run serially;
    /// widths never sum above `max(host_threads, N)`, so stage
    /// concurrency and intra-stage kernel parallelism share one budget
    /// instead of multiplying into oversubscription.
    pub fn intra_pool_widths(&self, host_threads: usize) -> Vec<usize> {
        let n = self.num_devices.max(1);
        let base = host_threads / n;
        let extra = host_threads % n;
        (0..self.num_devices)
            .map(|d| (base + usize::from(d < extra)).max(1))
            .collect()
    }

    /// A compact structural fingerprint: two plans share a fingerprint
    /// iff they place the same blocks on the same device ranks. The
    /// recovery plane stamps checkpoints with the fingerprint of the
    /// plan that wrote them, so a restore under a *different* incumbent
    /// (after replanning over a changed member set) is detected instead
    /// of silently resuming mismatched state.
    ///
    /// Format: `"{num_blocks}x{num_devices}:{hash:016x}"` where the hash
    /// is FNV-1a over the stage structure — stable across processes (no
    /// `RandomState`), cheap, and human-greppable in artifacts.
    pub fn fingerprint(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.stages.len() as u64);
        for s in &self.stages {
            mix(s.first_block as u64);
            mix(s.num_blocks as u64);
            mix(s.devices.len() as u64);
            for &d in &s.devices {
                mix(d as u64);
            }
        }
        format!("{}x{}:{h:016x}", self.num_blocks, self.num_devices)
    }
}

impl std::fmt::Display for StagePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            let blocks = s.blocks();
            write!(
                f,
                "b{}..{}@gpu{}..{}",
                blocks.start,
                blocks.end - 1,
                s.devices[0],
                s.devices[s.devices.len() - 1]
            )?;
        }
        Ok(())
    }
}

/// Walks every hybrid plan for `num_blocks` blocks on `num_devices` devices
/// without building one: `visit(block_counts, widths)` sees a plan whose
/// stage `s` holds the next `block_counts[s]` blocks on the next
/// `widths[s]` device ranks.
///
/// This is the one definition of the plan order: stage count ascending;
/// within a stage count, block compositions outer and device compositions
/// inner, each in lexicographic order (the order of [`compositions`]).
/// The searches score plans in this order and keep the first minimum, so
/// the order decides ties.
pub fn walk_hybrid_plans(
    num_blocks: usize,
    num_devices: usize,
    mut visit: impl FnMut(&[usize], &[usize]),
) {
    for stages in 1..=num_blocks.min(num_devices) {
        let mut block_counts = first_composition(num_blocks, stages);
        loop {
            let mut widths = first_composition(num_devices, stages);
            loop {
                visit(&block_counts, &widths);
                if !next_composition(&mut widths) {
                    break;
                }
            }
            if !next_composition(&mut block_counts) {
                break;
            }
        }
    }
}

/// Enumerates every hybrid plan for `num_blocks` blocks on `num_devices`
/// devices: [`walk_hybrid_plans`], materialised.
///
/// The space is `Σ_S C(B−1, S−1) · C(N−1, S−1)` — a few hundred plans for
/// the paper's `B ≈ 6..13`, `N = 4`, tens of thousands on 8 devices.
pub fn enumerate_hybrid_plans(num_blocks: usize, num_devices: usize) -> Vec<StagePlan> {
    let mut plans = Vec::with_capacity(hybrid_plan_count(num_blocks, num_devices));
    walk_hybrid_plans(num_blocks, num_devices, |block_counts, widths| {
        let pairs = block_counts.iter().copied().zip(widths.iter().copied());
        plans.push(StagePlan::from_parts(pairs, num_blocks, num_devices));
    });
    plans
}

/// The first plan of [`walk_hybrid_plans`] with the smallest `score`, and
/// that score. A later plan displaces the incumbent only when it scores
/// strictly less, so ties go to the earlier plan. Only the winner is built.
///
/// # Panics
///
/// Panics when the plan space is empty (no blocks or no devices).
pub(crate) fn first_minimum(
    num_blocks: usize,
    num_devices: usize,
    mut score: impl FnMut(&[usize], &[usize]) -> SimTime,
) -> (StagePlan, SimTime) {
    let mut best: Option<(Vec<(usize, usize)>, SimTime)> = None;
    walk_hybrid_plans(num_blocks, num_devices, |block_counts, widths| {
        let s = score(block_counts, widths);
        if best.as_ref().map_or(true, |(_, b)| s < *b) {
            let pairs = block_counts.iter().copied().zip(widths.iter().copied());
            best = Some((pairs.collect(), s));
        }
    });
    let (pairs, s) = best.expect("the plan space over at least one block and device is not empty");
    let plan = StagePlan::from_parts(pairs.into_iter(), num_blocks, num_devices);
    (plan, s)
}

/// A search's term for every stage a walked plan can hold, each computed
/// the first time a plan of the search holds that stage. A term is keyed by
/// the stage's block range and either its width ([`StageTerms::by_width`])
/// or its device range ([`StageTerms::by_placement`]).
pub(crate) struct StageTerms<T, F> {
    terms: Vec<OnceCell<T>>,
    term: F,
    num_blocks: usize,
    num_devices: usize,
    placed: bool,
}

impl<T, F: Fn(&Stage) -> T> StageTerms<T, F> {
    /// Terms keyed by `(first_block, num_blocks, width)`, for terms that do
    /// not depend on which ranks a stage runs on. `term` sees each stage on
    /// ranks `0..width`.
    pub(crate) fn by_width(num_blocks: usize, num_devices: usize, term: F) -> Self {
        Self::new(num_blocks, num_devices, false, term)
    }

    /// Terms keyed by `(first_block, num_blocks, first_device, width)`.
    pub(crate) fn by_placement(num_blocks: usize, num_devices: usize, term: F) -> Self {
        Self::new(num_blocks, num_devices, true, term)
    }

    fn new(num_blocks: usize, num_devices: usize, placed: bool, term: F) -> Self {
        let device_keys = if placed {
            range_count(num_devices)
        } else {
            num_devices
        };
        StageTerms {
            terms: (0..range_count(num_blocks) * device_keys)
                .map(|_| OnceCell::new())
                .collect(),
            term,
            num_blocks,
            num_devices,
            placed,
        }
    }

    /// The term of `num_blocks` blocks from `first_block` on `width` ranks
    /// from `first_device`.
    fn at(&self, first_block: usize, num_blocks: usize, first_device: usize, width: usize) -> &T {
        let (device_keys, device_key, first_device) = if self.placed {
            (
                range_count(self.num_devices),
                range_index(first_device, width, self.num_devices),
                first_device,
            )
        } else {
            (self.num_devices, width - 1, 0)
        };
        let block_key = range_index(first_block, num_blocks, self.num_blocks);
        self.terms[block_key * device_keys + device_key].get_or_init(|| {
            (self.term)(&Stage {
                first_block,
                num_blocks,
                devices: (first_device..first_device + width).collect(),
            })
        })
    }

    /// The term of a built stage.
    pub(crate) fn get(&self, stage: &Stage) -> &T {
        self.at(
            stage.first_block,
            stage.num_blocks,
            stage.devices[0],
            stage.width(),
        )
    }

    /// The terms of a walked plan's stages, in stage order, each with the
    /// stage's device ranks.
    pub(crate) fn of_plan<'a>(
        &'a self,
        block_counts: &'a [usize],
        widths: &'a [usize],
    ) -> impl Iterator<Item = (&'a T, Range<usize>)> + 'a {
        let (mut block, mut device) = (0, 0);
        block_counts
            .iter()
            .zip(widths)
            .map(move |(&blocks, &width)| {
                let term = self.at(block, blocks, device, width);
                let devices = device..device + width;
                block += blocks;
                device += width;
                (term, devices)
            })
    }
}

/// Number of non-empty ranges in `0..total`.
fn range_count(total: usize) -> usize {
    total * (total + 1) / 2
}

/// Position of the range `first..first + len` among the non-empty ranges of
/// `0..total`, ordered by start, then length.
fn range_index(first: usize, len: usize, total: usize) -> usize {
    first * total - first * first.saturating_sub(1) / 2 + len - 1
}

/// The lexicographically first composition of `total` into `parts`
/// positive parts: `[1, …, 1, total − parts + 1]`.
fn first_composition(total: usize, parts: usize) -> Vec<usize> {
    let mut c = vec![1; parts];
    c[parts - 1] = total - (parts - 1);
    c
}

/// Steps `parts` to the next composition of its sum in lexicographic order;
/// `false` (leaving `parts` as it was) after the last one.
fn next_composition(parts: &mut [usize]) -> bool {
    // The rightmost part past the first that can give one to its left
    // neighbour; everything after the neighbour restarts at its smallest.
    let Some(j) = (1..parts.len()).rev().find(|&j| parts[j] > 1) else {
        return false;
    };
    let rest: usize = parts[j..].iter().sum::<usize>() - 1;
    parts[j - 1] += 1;
    let last = parts.len() - 1;
    parts[j..].fill(1);
    parts[last] += rest - (parts.len() - j);
    true
}

/// All ordered ways to write `total` as a sum of `parts` positive integers.
pub fn compositions(total: usize, parts: usize) -> Vec<Vec<usize>> {
    fn rec(total: usize, parts: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if parts == 1 {
            prefix.push(total);
            out.push(prefix.clone());
            prefix.pop();
            return;
        }
        for first in 1..=total - (parts - 1) {
            prefix.push(first);
            rec(total - first, parts - 1, prefix, out);
            prefix.pop();
        }
    }
    if parts == 0 || total < parts {
        return Vec::new();
    }
    let mut out = Vec::new();
    rec(total, parts, &mut Vec::new(), &mut out);
    out
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num = 1usize;
    for i in 0..k {
        num = num * (n - i) / (i + 1);
    }
    num
}

/// The closed-form size of the hybrid plan space (used to cross-check the
/// enumeration).
pub fn hybrid_plan_count(num_blocks: usize, num_devices: usize) -> usize {
    (1..=num_blocks.min(num_devices))
        .map(|s| binomial(num_blocks - 1, s - 1) * binomial(num_devices - 1, s - 1))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_plan_balances_block_counts() {
        let p = StagePlan::contiguous(6, 4).unwrap();
        let counts: Vec<usize> = p.stages.iter().map(|s| s.num_blocks).collect();
        assert_eq!(counts, vec![2, 2, 1, 1]);
        p.validate().unwrap();
        assert!(!p.uses_batch_split());
    }

    #[test]
    fn contiguous_rejects_too_few_blocks() {
        assert!(StagePlan::contiguous(3, 4).is_err());
        assert!(StagePlan::contiguous(4, 0).is_err());
        assert!(StagePlan::contiguous(0, 0).is_err());
    }

    #[test]
    fn internal_relaying_is_single_wide_stage() {
        let p = StagePlan::internal_relaying(6, 4);
        p.validate().unwrap();
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.stages[0].width(), 4);
        assert!(p.uses_batch_split());
        assert_eq!(p.stages[0].device_batch(256), 64);
    }

    #[test]
    fn validate_catches_gaps() {
        let mut p = StagePlan::contiguous(6, 3).unwrap();
        p.stages[1].first_block = 3; // creates a gap after stage 0 (2 blocks)
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_device_overlap() {
        let mut p = StagePlan::contiguous(6, 3).unwrap();
        p.stages[1].devices = vec![0];
        assert!(p.validate().is_err());
    }

    #[test]
    fn compositions_count_matches_binomial() {
        // compositions(n, k) has C(n-1, k-1) elements.
        assert_eq!(compositions(6, 3).len(), 10);
        assert_eq!(compositions(4, 1).len(), 1);
        assert_eq!(compositions(4, 4).len(), 1);
        assert_eq!(compositions(3, 4).len(), 0);
        for c in compositions(7, 3) {
            assert_eq!(c.iter().sum::<usize>(), 7);
            assert!(c.iter().all(|&x| x > 0));
        }
    }

    #[test]
    fn enumeration_matches_closed_form() {
        for (b, n) in [(6, 4), (13, 4), (6, 8), (4, 4), (2, 3)] {
            let plans = enumerate_hybrid_plans(b, n);
            assert_eq!(
                plans.len(),
                hybrid_plan_count(b, n),
                "plan count for B={b}, N={n}"
            );
            for p in &plans {
                p.validate().unwrap();
            }
        }
    }

    #[test]
    fn enumeration_contains_paper_fig5_schedules() {
        // Fig. 5c (A6000): blocks 0-2 shared on devices 0-2, blocks 3-5 on
        // device 3. Fig. 5b (2080Ti): block 0 on devices 0-1, blocks 1-2 on
        // device 2, blocks 3-5 on device 3.
        let plans = enumerate_hybrid_plans(6, 4);
        let a6000 = StagePlan::from_widths(&[(3, 3), (3, 1)], 6, 4).unwrap();
        let t2080 = StagePlan::from_widths(&[(1, 2), (2, 1), (3, 1)], 6, 4).unwrap();
        assert!(plans.contains(&a6000));
        assert!(plans.contains(&t2080));
        // Internal relaying is in the space too (all blocks, all devices).
        let ir = StagePlan::internal_relaying(6, 4);
        assert!(plans.contains(&ir));
    }

    #[test]
    fn stage_lookups() {
        let p = StagePlan::from_widths(&[(1, 2), (2, 1), (3, 1)], 6, 4).unwrap();
        assert_eq!(p.stage_of_block(0).unwrap().width(), 2);
        assert_eq!(p.stage_of_block(4).unwrap().devices, vec![3]);
        assert_eq!(p.stage_of_device(1).unwrap().first_block, 0);
        assert!(p.stage_of_block(9).is_none());
        assert!(p.stage_of_device(9).is_none());
    }

    #[test]
    fn display_is_compact() {
        let p = StagePlan::from_widths(&[(3, 3), (3, 1)], 6, 4).unwrap();
        assert_eq!(format!("{p}"), "b0..2@gpu0..2 | b3..5@gpu3..3");
    }

    #[test]
    fn intra_pool_widths_share_the_host_budget() {
        let p = StagePlan::contiguous(6, 4).unwrap();
        // Budget below the device count: everyone still gets one lane.
        assert_eq!(p.intra_pool_widths(1), vec![1, 1, 1, 1]);
        assert_eq!(p.intra_pool_widths(4), vec![1, 1, 1, 1]);
        // Remainder lanes go to the lowest ranks.
        assert_eq!(p.intra_pool_widths(6), vec![2, 2, 1, 1]);
        assert_eq!(p.intra_pool_widths(8), vec![2, 2, 2, 2]);
        assert_eq!(p.intra_pool_widths(11), vec![3, 3, 3, 2]);
    }

    #[test]
    fn fingerprint_separates_structures_and_is_stable() {
        let a = StagePlan::from_widths(&[(3, 3), (3, 1)], 6, 4).unwrap();
        let b = StagePlan::from_widths(&[(1, 2), (2, 1), (3, 1)], 6, 4).unwrap();
        assert_eq!(a.fingerprint(), a.clone().fingerprint(), "deterministic");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().starts_with("6x4:"));
        // Every plan in a small enumeration gets a distinct fingerprint.
        let plans = enumerate_hybrid_plans(6, 4);
        let mut prints: Vec<String> = plans.iter().map(StagePlan::fingerprint).collect();
        prints.sort_unstable();
        let before = prints.len();
        prints.dedup();
        assert_eq!(prints.len(), before, "fingerprint collision in B=6 N=4");
    }

    #[test]
    fn device_batch_ceils() {
        let s = Stage {
            first_block: 0,
            num_blocks: 1,
            devices: vec![0, 1, 2],
        };
        assert_eq!(s.device_batch(256), 86);
        assert_eq!(s.device_batch(255), 85);
    }
}

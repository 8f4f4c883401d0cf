//! Host-side data-loading model.
//!
//! Decoding and augmenting training samples runs on a *shared* CPU worker
//! pool — the paper's point about "extra data loading" is precisely that
//! the pool is system-wide, so loading the dataset once per block (as the
//! DP baseline does) multiplies pressure on it. The pool appears in the
//! task graph as a single FIFO resource; every batch-load task queues
//! there, so contention emerges naturally.
//!
//! Each consuming device additionally pays a small non-overlappable
//! per-batch cost (collate + host-to-device copy), mirroring the main-
//! process work of a PyTorch `DataLoader` loop.

use crate::interconnect::PcieModel;
use crate::time::SimTime;

/// Host CPU / loader-pool parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HostModel {
    /// CPU description, e.g. `"EPYC 7302"`.
    pub name: String,
    /// Number of loader worker cores.
    pub workers: usize,
    /// Non-overlappable per-sample cost on the consuming process
    /// (collate/pinning), in microseconds.
    pub collate_us_per_sample: f64,
}

impl HostModel {
    /// 1× AMD EPYC 7302 (16 cores) — the A6000 server's host.
    pub fn epyc7302() -> Self {
        HostModel {
            name: "EPYC 7302".into(),
            workers: 16,
            collate_us_per_sample: 18.0,
        }
    }

    /// 2× Intel Xeon Silver 4214 (2×12 cores) — the 2080 Ti server's host.
    pub fn xeon4214_dual() -> Self {
        HostModel {
            name: "2x Xeon Silver 4214".into(),
            workers: 24,
            collate_us_per_sample: 22.0,
        }
    }

    /// Worker-pool service time for decoding one batch of `samples` with a
    /// per-sample decode cost of `decode_us` (the pool parallelizes across
    /// `workers`).
    pub fn decode_time(&self, samples: usize, decode_us: f64) -> SimTime {
        SimTime::from_us(samples as f64 * decode_us / self.workers.max(1) as f64)
    }

    /// Non-overlappable consumer-side cost for one batch: collate plus the
    /// host-to-device copy of the batch tensor.
    pub fn consume_time(&self, samples: usize, batch_bytes: u64, pcie: &PcieModel) -> SimTime {
        SimTime::from_us(samples as f64 * self.collate_us_per_sample)
            + pcie.transfer_time(batch_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_parallelizes_over_workers() {
        let h = HostModel::epyc7302();
        let one = h.decode_time(160, 100.0);
        // 160 samples * 100us / 16 workers = 1ms.
        assert_eq!(one, SimTime::from_us(1000.0));
    }

    #[test]
    fn consume_cost_scales_with_batch() {
        let h = HostModel::epyc7302();
        let p = PcieModel::gen4_x16();
        let small = h.consume_time(64, 64 * 12_288, &p);
        let large = h.consume_time(256, 256 * 12_288, &p);
        assert!(large > small);
    }

    #[test]
    fn dual_xeon_has_more_workers() {
        assert!(HostModel::xeon4214_dual().workers > HostModel::epyc7302().workers);
    }
}

//! PCIe interconnect model for activation relays and gradient sharing.

use crate::time::SimTime;

/// A PCIe link between host and devices (and peer-to-peer between devices).
#[derive(Debug, Clone, PartialEq)]
pub struct PcieModel {
    /// Generation label, e.g. `"PCIe 4.0 x16"`.
    pub name: String,
    /// Effective unidirectional bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-transfer latency.
    pub latency: SimTime,
}

impl PcieModel {
    /// PCIe 4.0 ×16 (the A6000 server): ~26 GB/s effective.
    pub fn gen4_x16() -> Self {
        PcieModel {
            name: "PCIe 4.0 x16".into(),
            bandwidth: 26e9,
            latency: SimTime::from_us(8.0),
        }
    }

    /// PCIe 3.0 ×16 (the 2080 Ti server): ~13 GB/s effective.
    pub fn gen3_x16() -> Self {
        PcieModel {
            name: "PCIe 3.0 x16".into(),
            bandwidth: 13e9,
            latency: SimTime::from_us(8.0),
        }
    }

    /// Time for a point-to-point transfer of `bytes` (one relay hop or one
    /// host-to-device batch copy).
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.bandwidth) + self.latency
    }

    /// Time for a ring all-reduce of `bytes` across `n` participants
    /// (`2(n−1)/n` traversals of the buffer per rank).
    pub fn allreduce_time(&self, bytes: u64, n: usize) -> SimTime {
        if n <= 1 {
            return SimTime::ZERO;
        }
        let factor = 2.0 * (n as f64 - 1.0) / n as f64;
        SimTime::from_secs_f64(factor * bytes as f64 / self.bandwidth)
            + SimTime::from_ns(self.latency.as_ns() * 2 * (n as u64 - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen4_faster_than_gen3() {
        let b = 100 << 20;
        assert!(PcieModel::gen4_x16().transfer_time(b) < PcieModel::gen3_x16().transfer_time(b));
    }

    #[test]
    fn transfer_includes_latency() {
        let p = PcieModel::gen4_x16();
        assert_eq!(p.transfer_time(0), p.latency);
    }

    #[test]
    fn allreduce_single_rank_is_free() {
        let p = PcieModel::gen4_x16();
        assert_eq!(p.allreduce_time(1 << 20, 1), SimTime::ZERO);
    }

    #[test]
    fn allreduce_scales_with_participants() {
        let p = PcieModel::gen4_x16();
        let t2 = p.allreduce_time(100 << 20, 2);
        let t4 = p.allreduce_time(100 << 20, 4);
        // 2(n-1)/n: 1.0 for n=2, 1.5 for n=4.
        assert!(t4 > t2);
        let ratio = t4.as_secs_f64() / t2.as_secs_f64();
        assert!((1.2..1.8).contains(&ratio), "ratio {ratio}");
    }
}

//! Complete server configurations (the paper's Table I environments).

use crate::gpu::GpuModel;
use crate::host::HostModel;
use crate::interconnect::PcieModel;

/// A single-node multi-GPU training server.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// GPU model (all devices identical, as in the paper).
    pub gpu: GpuModel,
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Interconnect between host and devices.
    pub pcie: PcieModel,
    /// Host CPU / loader pool.
    pub host: HostModel,
}

impl HardwareConfig {
    /// The paper's default environment: `n`× RTX A6000, EPYC 7302,
    /// PCIe 4.0.
    pub fn a6000_server(n: usize) -> Self {
        HardwareConfig {
            gpu: GpuModel::a6000(),
            num_gpus: n,
            pcie: PcieModel::gen4_x16(),
            host: HostModel::epyc7302(),
        }
    }

    /// The paper's low-cost environment: `n`× RTX 2080 Ti, 2× Xeon 4214,
    /// PCIe 3.0.
    pub fn rtx2080ti_server(n: usize) -> Self {
        HardwareConfig {
            gpu: GpuModel::rtx2080ti(),
            num_gpus: n,
            pcie: PcieModel::gen3_x16(),
            host: HostModel::xeon4214_dual(),
        }
    }

    /// A short identifier for reports, e.g. `"4x RTX A6000"`.
    pub fn label(&self) -> String {
        format!("{}x {}", self.num_gpus, self.gpu.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_one() {
        let a = HardwareConfig::a6000_server(4);
        assert_eq!(a.num_gpus, 4);
        assert_eq!(a.pcie.name, "PCIe 4.0 x16");
        assert_eq!(a.host.name, "EPYC 7302");
        let t = HardwareConfig::rtx2080ti_server(4);
        assert_eq!(t.pcie.name, "PCIe 3.0 x16");
        assert!(t.gpu.peak_flops < a.gpu.peak_flops);
    }

    #[test]
    fn label_formats() {
        assert_eq!(HardwareConfig::a6000_server(4).label(), "4x RTX A6000");
    }
}

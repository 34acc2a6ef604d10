//! The target platform description.

use svmsyn_hls::fsmd::HlsConfig;
use svmsyn_hwt::memif::MemifConfig;
use svmsyn_mem::MemConfig;
use svmsyn_os::os::OsConfig;
use svmsyn_os::AllocPolicy;
use svmsyn_sim::FabricResources;

/// One memory-pressure operating point: how many physical frames the OS
/// manages, when anonymous pages get them, and how fast the swap device
/// moves a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PressurePoint {
    /// Frame-pool cap (`None` = all of DRAM beyond the reservation).
    pub frame_budget: Option<u64>,
    /// Eager vs. lazy anonymous allocation.
    pub policy: AllocPolicy,
    /// Swap-device page transfer latency in fabric cycles, charged in each
    /// direction.
    pub swap_latency: u64,
}

impl Default for PressurePoint {
    /// Unconstrained frames, demand paging, the default swap device.
    fn default() -> Self {
        let costs = OsConfig::default().costs;
        PressurePoint {
            frame_budget: None,
            policy: AllocPolicy::default(),
            swap_latency: costs.swap_in,
        }
    }
}

/// Everything the toolflow needs to know about the target SoC.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Diagnostic name.
    pub name: String,
    /// FPGA fabric budget available to hardware threads.
    pub fabric: FabricResources,
    /// System (fabric) clock in MHz; kernels whose estimated Fmax falls
    /// below it derate the whole design.
    pub fabric_mhz: f64,
    /// Memory-system parameters.
    pub mem: MemConfig,
    /// OS parameters (cores, cost model).
    pub os: OsConfig,
    /// HLS options for kernel compilation.
    pub hls: HlsConfig,
    /// Default VM-infrastructure geometry per hardware thread.
    pub memif: MemifConfig,
    /// Hard cap on concurrent hardware threads (interconnect ports).
    pub max_hw_threads: usize,
}

impl Default for Platform {
    /// A Zynq-7020-class platform: 53 200 LUT / 106 400 FF / 220 DSP /
    /// 140 BRAM36, 100 MHz fabric, 2 CPU cores, 8 fabric master ports.
    fn default() -> Self {
        Platform {
            name: "zynq7020-class".into(),
            fabric: FabricResources {
                lut: 53_200,
                ff: 106_400,
                dsp: 220,
                bram36: 140,
            },
            fabric_mhz: 100.0,
            mem: MemConfig::default(),
            os: OsConfig::default(),
            hls: HlsConfig::default(),
            memif: MemifConfig::default(),
            max_hw_threads: 8,
        }
    }
}

impl Platform {
    /// The same platform with the memory-fabric parameters (outstanding
    /// window depth, MSHR count, …) replaced.
    pub fn with_fabric(&self, fabric: svmsyn_mem::FabricConfig) -> Self {
        let mut p = self.clone();
        p.mem.fabric = fabric;
        p
    }

    /// The same platform at a different memory-pressure operating point.
    pub fn with_pressure(&self, point: PressurePoint) -> Self {
        let mut p = self.clone();
        p.os.frame_budget = point.frame_budget;
        p.os.alloc_policy = point.policy;
        p.os.costs.swap_in = point.swap_latency;
        p.os.costs.swap_out = point.swap_latency;
        p
    }

    /// The memory-pressure operating point this platform is configured at
    /// (swap latency reads the swap-in cost; `with_pressure` sets both
    /// directions from it).
    pub fn pressure_point(&self) -> PressurePoint {
        PressurePoint {
            frame_budget: self.os.frame_budget,
            policy: self.os.alloc_policy,
            swap_latency: self.os.costs.swap_in,
        }
    }

    /// A smaller Zynq-7010-class budget, useful to make the DSE budget
    /// binding in experiments.
    pub fn small() -> Self {
        Platform {
            name: "zynq7010-class".into(),
            fabric: FabricResources {
                lut: 17_600,
                ff: 35_200,
                dsp: 80,
                bram36: 60,
            },
            max_hw_threads: 4,
            ..Platform::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_platform_is_plausible() {
        let p = Platform::default();
        assert!(p.fabric.lut > 10_000);
        assert!(p.fabric_mhz > 0.0);
        assert!(p.max_hw_threads >= 1);
        assert!(p.os.cores >= 1);
    }

    #[test]
    fn small_platform_is_smaller() {
        let s = Platform::small();
        let d = Platform::default();
        assert!(s.fabric.lut < d.fabric.lut);
        assert!(s.max_hw_threads < d.max_hw_threads);
    }
}

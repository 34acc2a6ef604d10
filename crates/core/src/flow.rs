//! The system-generation flow: HLS per hardware thread, VM infrastructure
//! sizing, resource accounting, clock closure.
//!
//! [`synthesize`] is the paper's toolflow entry point: given an application,
//! a platform, and a placement vector, it compiles every hardware-mapped
//! kernel, attaches the per-thread VM infrastructure (MMU + MEMIF + OSIF),
//! checks the fabric budget, and determines the achievable system clock.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use svmsyn_hls::fsmd::{compile, CompiledKernel, HlsConfig};
use svmsyn_hwt::cost::vm_infrastructure_cost;
use svmsyn_sim::FabricResources;
use svmsyn_vm::cost::mmu_fmax_mhz;

use crate::app::Application;
use crate::platform::Platform;

/// Where a thread executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// On the FPGA fabric as a VM-enabled hardware thread.
    Hardware,
    /// On a CPU core as a software thread.
    Software,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Hardware => write!(f, "HW"),
            Placement::Software => write!(f, "SW"),
        }
    }
}

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The design does not fit the fabric budget.
    OverBudget {
        /// Total requested resources.
        requested: FabricResources,
        /// The platform budget.
        budget: FabricResources,
    },
    /// More hardware threads than the platform has fabric ports.
    TooManyHwThreads {
        /// Hardware threads requested.
        requested: usize,
        /// The platform limit.
        limit: usize,
    },
    /// The placement vector length does not match the thread count.
    PlacementLengthMismatch {
        /// Placements given.
        given: usize,
        /// Threads in the application.
        expected: usize,
    },
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::OverBudget { requested, budget } => {
                write!(f, "over budget: need {requested}, have {budget}")
            }
            SynthesisError::TooManyHwThreads { requested, limit } => {
                write!(
                    f,
                    "{requested} hardware threads exceed the limit of {limit}"
                )
            }
            SynthesisError::PlacementLengthMismatch { given, expected } => {
                write!(f, "{given} placements for {expected} threads")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Per-thread synthesis results.
#[derive(Debug, Clone)]
pub struct ThreadSynthesis {
    /// Thread name.
    pub name: String,
    /// Where it was placed.
    pub placement: Placement,
    /// The compiled kernel (hardware threads only).
    pub compiled: Option<Arc<CompiledKernel>>,
    /// Kernel datapath + FSM resources (hardware threads only).
    pub kernel_resources: FabricResources,
    /// VM infrastructure (MMU + MEMIF + OSIF) resources.
    pub vm_resources: FabricResources,
    /// Estimated kernel Fmax in MHz.
    pub kernel_fmax: f64,
}

impl ThreadSynthesis {
    /// Total fabric cost of this thread.
    pub fn total_resources(&self) -> FabricResources {
        self.kernel_resources + self.vm_resources
    }
}

/// A fully synthesized system.
#[derive(Debug, Clone)]
pub struct SystemDesign {
    /// The application (shared with the simulator).
    pub app: Arc<Application>,
    /// The platform.
    pub platform: Platform,
    /// Per-thread placement.
    pub placements: Vec<Placement>,
    /// Per-thread synthesis results.
    pub threads: Vec<ThreadSynthesis>,
    /// Total fabric usage.
    pub total_resources: FabricResources,
    /// Achieved system clock in MHz (min of platform clock, kernel Fmax,
    /// MMU Fmax across hardware threads).
    pub system_mhz: f64,
    /// Toolflow wall-clock time of the call that built this design, in
    /// seconds (Table 4). A design built inside a DSE sweep leaves out the
    /// compile time of kernels that the sweep had already compiled for an
    /// earlier placement.
    pub synthesis_seconds: f64,
}

impl SystemDesign {
    /// Number of hardware threads in the design.
    pub fn hw_thread_count(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| **p == Placement::Hardware)
            .count()
    }

    /// Fabric utilization against the platform budget (worst component).
    pub fn utilization(&self) -> f64 {
        self.total_resources.utilization(&self.platform.fabric)
    }
}

/// Compiled kernels shared by the designs of one DSE sweep: one slot per
/// application thread, filled the first time a placement maps that thread
/// to hardware. `compile` depends only on the kernel and the HLS
/// configuration, so every later placement reuses the same
/// `Arc<CompiledKernel>`.
///
/// Slots are keyed by thread index, not by kernel content: threads that
/// share a kernel still compile once each, as a single [`synthesize`] call
/// does. A compile that panics leaves its slot empty.
pub(crate) struct KernelCache {
    /// The configuration every cached kernel was compiled under.
    hls: HlsConfig,
    kernels: Vec<OnceLock<Arc<CompiledKernel>>>,
}

impl KernelCache {
    /// An empty cache for `app`'s threads, compiling under `hls`.
    pub(crate) fn new(app: &Application, hls: HlsConfig) -> Self {
        KernelCache {
            hls,
            kernels: app.threads.iter().map(|_| OnceLock::new()).collect(),
        }
    }
}

/// Runs the toolflow for a fixed placement.
///
/// # Errors
///
/// Returns [`SynthesisError`] when the placement vector is malformed, too
/// many threads map to hardware, or the fabric budget is exceeded.
///
/// # Example
///
/// ```
/// use svmsyn::app::{ApplicationBuilder, ArgSpec};
/// use svmsyn::flow::{synthesize, Placement};
/// use svmsyn::platform::Platform;
/// use svmsyn_hls::builder::KernelBuilder;
/// use svmsyn_hls::ir::BinOp;
///
/// let mut kb = KernelBuilder::new("twice", 1);
/// let x = kb.arg(0);
/// let y = kb.bin(BinOp::Add, x, x);
/// kb.ret(Some(y));
/// let app = ApplicationBuilder::new("demo")
///     .thread("t0", kb.finish().unwrap(), vec![ArgSpec::Value(21)], true)
///     .build()
///     .unwrap();
///
/// let design = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
/// assert_eq!(design.hw_thread_count(), 1);
/// assert!(design.total_resources.lut > 0);
/// ```
pub fn synthesize(
    app: &Application,
    platform: &Platform,
    placements: &[Placement],
) -> Result<SystemDesign, SynthesisError> {
    synthesize_with(
        app,
        platform,
        placements,
        &KernelCache::new(app, platform.hls),
    )
}

/// [`synthesize`] taking hardware kernels from `kernels`, compiling into it
/// the ones it does not hold yet.
///
/// # Panics
///
/// Panics if `kernels` compiles under another HLS configuration than
/// `platform.hls`.
pub(crate) fn synthesize_with(
    app: &Application,
    platform: &Platform,
    placements: &[Placement],
    kernels: &KernelCache,
) -> Result<SystemDesign, SynthesisError> {
    let started = Instant::now();
    assert_eq!(
        kernels.hls, platform.hls,
        "kernel cache compiles under another HLS configuration than the platform"
    );
    if placements.len() != app.threads.len() {
        return Err(SynthesisError::PlacementLengthMismatch {
            given: placements.len(),
            expected: app.threads.len(),
        });
    }
    let hw_count = placements
        .iter()
        .filter(|p| **p == Placement::Hardware)
        .count();
    if hw_count > platform.max_hw_threads {
        return Err(SynthesisError::TooManyHwThreads {
            requested: hw_count,
            limit: platform.max_hw_threads,
        });
    }

    let mut threads = Vec::with_capacity(app.threads.len());
    let mut total = FabricResources::ZERO;
    let mut system_mhz = platform.fabric_mhz;
    for (t, (spec, &placement)) in app.threads.iter().zip(placements).enumerate() {
        match placement {
            Placement::Hardware => {
                let compiled = Arc::clone(
                    kernels.kernels[t]
                        .get_or_init(|| Arc::new(compile(&spec.kernel, &platform.hls))),
                );
                let vm = vm_infrastructure_cost(&platform.memif);
                total += compiled.resources + vm;
                system_mhz = system_mhz
                    .min(compiled.fmax_mhz)
                    .min(mmu_fmax_mhz(&platform.memif.mmu));
                threads.push(ThreadSynthesis {
                    name: spec.name.clone(),
                    placement,
                    kernel_resources: compiled.resources,
                    vm_resources: vm,
                    kernel_fmax: compiled.fmax_mhz,
                    compiled: Some(compiled),
                });
            }
            Placement::Software => {
                threads.push(ThreadSynthesis {
                    name: spec.name.clone(),
                    placement,
                    compiled: None,
                    kernel_resources: FabricResources::ZERO,
                    vm_resources: FabricResources::ZERO,
                    kernel_fmax: f64::INFINITY,
                });
            }
        }
    }

    if !total.fits_within(&platform.fabric) {
        return Err(SynthesisError::OverBudget {
            requested: total,
            budget: platform.fabric,
        });
    }

    Ok(SystemDesign {
        app: Arc::new(app.clone()),
        platform: platform.clone(),
        placements: placements.to_vec(),
        threads,
        total_resources: total,
        system_mhz,
        synthesis_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{ApplicationBuilder, ArgSpec};
    use svmsyn_hls::builder::KernelBuilder;
    use svmsyn_hls::ir::BinOp;

    fn demo_app(threads: usize) -> Application {
        let mut builder = ApplicationBuilder::new("demo");
        for i in 0..threads {
            let mut kb = KernelBuilder::new(format!("k{i}"), 1);
            let x = kb.arg(0);
            let y = kb.bin(BinOp::Mul, x, x);
            kb.ret(Some(y));
            builder = builder.thread(
                format!("t{i}"),
                kb.finish().unwrap(),
                vec![ArgSpec::Value(i as i64)],
                true,
            );
        }
        builder.build().unwrap()
    }

    #[test]
    fn all_software_uses_no_fabric() {
        let app = demo_app(3);
        let d = synthesize(&app, &Platform::default(), &[Placement::Software; 3]).unwrap();
        assert_eq!(d.total_resources, FabricResources::ZERO);
        assert_eq!(d.hw_thread_count(), 0);
        assert_eq!(d.system_mhz, d.platform.fabric_mhz);
        assert_eq!(d.utilization(), 0.0);
    }

    #[test]
    fn hardware_threads_accumulate_resources() {
        let app = demo_app(2);
        let one = synthesize(
            &app,
            &Platform::default(),
            &[Placement::Hardware, Placement::Software],
        )
        .unwrap();
        let two = synthesize(&app, &Platform::default(), &[Placement::Hardware; 2]).unwrap();
        assert!(two.total_resources.lut > one.total_resources.lut);
        assert!(two.threads[1].compiled.is_some());
        assert!(one.threads[1].compiled.is_none());
        assert!(two.synthesis_seconds >= 0.0);
    }

    #[test]
    fn placement_length_checked() {
        let app = demo_app(2);
        let err = synthesize(&app, &Platform::default(), &[Placement::Software]).unwrap_err();
        assert!(matches!(
            err,
            SynthesisError::PlacementLengthMismatch { .. }
        ));
    }

    #[test]
    fn hw_thread_cap_enforced() {
        let app = demo_app(3);
        let platform = Platform {
            max_hw_threads: 2,
            ..Platform::default()
        };
        let err = synthesize(&app, &platform, &[Placement::Hardware; 3]).unwrap_err();
        assert!(matches!(
            err,
            SynthesisError::TooManyHwThreads {
                requested: 3,
                limit: 2
            }
        ));
    }

    #[test]
    fn budget_enforced() {
        let app = demo_app(2);
        let platform = Platform {
            fabric: FabricResources::new(100, 100, 1, 1),
            ..Platform::default()
        };
        let err = synthesize(&app, &platform, &[Placement::Hardware; 2]).unwrap_err();
        assert!(matches!(err, SynthesisError::OverBudget { .. }));
        assert!(err.to_string().contains("over budget"));
    }

    #[test]
    fn system_clock_closes_on_slowest_component() {
        let app = demo_app(1);
        let d = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
        assert!(d.system_mhz <= d.platform.fabric_mhz);
        assert!(d.system_mhz > 0.0);
    }

    #[test]
    fn kernel_cache_compiles_each_thread_once() {
        let app = demo_app(3);
        let platform = Platform::default();
        let cache = KernelCache::new(&app, platform.hls);
        for mask in 0..8u32 {
            let placements: Vec<Placement> = (0..3)
                .map(|t| {
                    if mask >> t & 1 == 1 {
                        Placement::Hardware
                    } else {
                        Placement::Software
                    }
                })
                .collect();
            let cached = synthesize_with(&app, &platform, &placements, &cache).unwrap();
            if mask == 0 {
                assert!(
                    cache.kernels.iter().all(|slot| slot.get().is_none()),
                    "the all-software placement compiles nothing"
                );
            }
            let fresh = synthesize(&app, &platform, &placements).unwrap();
            assert_eq!(cached.total_resources, fresh.total_resources);
            assert_eq!(cached.system_mhz, fresh.system_mhz);
            for (t, (c, f)) in cached.threads.iter().zip(&fresh.threads).enumerate() {
                assert_eq!(c.kernel_resources, f.kernel_resources);
                assert_eq!(c.vm_resources, f.vm_resources);
                assert_eq!(c.kernel_fmax, f.kernel_fmax);
                if let Some(kernel) = &c.compiled {
                    let slot = cache.kernels[t]
                        .get()
                        .expect("a hardware thread fills its slot");
                    assert!(
                        Arc::ptr_eq(kernel, slot),
                        "thread {t} recompiled for placement {mask:03b}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "another HLS configuration")]
    fn kernel_cache_rejects_another_hls_config() {
        let app = demo_app(1);
        let platform = Platform::default();
        let cache = KernelCache::new(
            &app,
            HlsConfig {
                optimize: !platform.hls.optimize,
                ..platform.hls
            },
        );
        let _ = synthesize_with(&app, &platform, &[Placement::Hardware], &cache);
    }
}

//! # svmsyn — system-level synthesis for virtual-memory-enabled hardware threads
//!
//! The paper's contribution, reproduced on simulated substrates: a toolflow
//! that takes a *multithreaded application* (threads + shared buffers +
//! synchronization), decides which threads become FPGA hardware threads
//! under a fabric budget, equips every hardware thread with shared-virtual-
//! memory infrastructure (private MMU + burst engine + OS interface), and
//! produces a complete system that is then evaluated by full-system
//! simulation.
//!
//! * [`app`] — the application model and its builder.
//! * [`platform`] — the target SoC description (fabric budget, clocks,
//!   memory, OS).
//! * [`flow`] — [`flow::synthesize`]: HLS per hardware thread, VM
//!   infrastructure sizing, budget/clock closure.
//! * [`sim`] — [`sim::simulate`]: boots the OS, shares one virtual address
//!   space between software and hardware threads, and runs the system to
//!   completion on the deterministic event scheduler.
//! * [`dse`] — [`dse::explore`]: HW/SW partitioning (exhaustive, greedy,
//!   annealing) with simulation-in-the-loop evaluation.
//! * [`checkpoint`] — versioned, checksummed snapshot images
//!   ([`checkpoint::Checkpoint`]) and the divergence bisector.
//! * [`baseline`] — the copy-based DMA accelerator flow the SVM approach is
//!   compared against (Figure 4).
//! * [`fingerprint`] — canonical content hashes of applications and
//!   platforms: the key material of the content-addressed result store.
//! * [`report`] — text tables for the experiment harnesses.
//!
//! # Example
//!
//! ```
//! use svmsyn::app::{ApplicationBuilder, ArgSpec};
//! use svmsyn::flow::{synthesize, Placement};
//! use svmsyn::platform::Platform;
//! use svmsyn::sim::{simulate, SimConfig};
//! use svmsyn_hls::builder::KernelBuilder;
//! use svmsyn_hls::ir::{BinOp, Width};
//!
//! // A tiny kernel: *out = arg * 2.
//! let mut kb = KernelBuilder::new("dbl", 2);
//! let out = kb.arg(0);
//! let x = kb.arg(1);
//! let y = kb.bin(BinOp::Add, x, x);
//! kb.store(out, y, Width::W32);
//! kb.ret(None);
//!
//! let app = ApplicationBuilder::new("demo")
//!     .buffer("out", 4096, vec![], false)
//!     .thread("t0", kb.finish().unwrap(),
//!             vec![ArgSpec::Buffer(0, 0), ArgSpec::Value(21)], true)
//!     .build()
//!     .unwrap();
//!
//! let design = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
//! let outcome = simulate(&design, &SimConfig::default()).unwrap();
//! let mut result = [0u8; 4];
//! outcome.read_buffer(0, &mut result);
//! assert_eq!(u32::from_le_bytes(result), 42);
//! ```

pub mod app;
pub mod baseline;
pub mod budget;
pub mod checkpoint;
pub mod dse;
pub mod fingerprint;
pub mod flow;
pub mod platform;
pub mod report;
pub mod shard;
pub mod sim;
mod step;

pub use app::{Application, ApplicationBuilder, ArgSpec, SyncAction, SyncSpec};
pub use budget::{host_cores, map_ordered, worker_budget};
pub use checkpoint::{bisect_divergence, digest_at, BisectSide, Checkpoint, Divergence};
pub use dse::{explore, explore_with_store, DseConfig, DseError, DseMethod, DsePanic, DseResult};
pub use fingerprint::{app_fingerprint, platform_fingerprint};
pub use flow::{synthesize, Placement, SynthesisError, SystemDesign};
pub use platform::{Platform, PressurePoint};
pub use shard::{planned_shards, simulate_sharded, ExecMode, ShardedSim};
pub use sim::{
    simulate, RunProgress, ShardSyncStats, Sim, SimConfig, SimError, SimOutcome, SNAPSHOT_VERSION,
};

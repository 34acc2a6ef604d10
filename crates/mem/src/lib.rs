//! # svmsyn-mem — the physical memory substrate
//!
//! Byte-accurate physical memory with a transaction-level timing model of the
//! shared path to DRAM:
//!
//! * [`PhysAddr`] / [`VirtAddr`] — address newtypes and page geometry.
//! * [`SparseMemory`] — lazily materialized backing store holding real bytes.
//! * [`SplitFabric`] — the split-transaction memory fabric: issue/complete
//!   transactions, per-master outstanding windows, MSHR merging, decoupled
//!   address/data phases. [`FabricPort`] is the per-master handle.
//! * [`reference::FcfsBus`](mod@reference) — the retained blocking FCFS bus,
//!   kept as the differential oracle for the fabric.
//! * [`Dram`] — banked DRAM with an open-row policy.
//! * [`MemorySystem`] — the façade every bus master talks to; timed accesses
//!   move real data *and* advance the timing model.
//!
//! # Example
//!
//! ```
//! use svmsyn_mem::{MemConfig, MemorySystem, MasterId, PhysAddr};
//! use svmsyn_sim::Cycle;
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! let done = mem.write(MasterId(0), PhysAddr(0), &[42u8; 64], Cycle(0));
//! let mut buf = [0u8; 64];
//! mem.read(MasterId(0), PhysAddr(0), &mut buf, done);
//! assert_eq!(buf[0], 42);
//! ```

pub mod addr;
pub mod cache;
pub mod dram;
pub mod fabric;
pub mod merge;
pub mod reference;
pub mod store;
pub mod system;

pub use addr::{split_at_page_boundaries, PhysAddr, VirtAddr, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
pub use cache::{CacheConfig, CacheOutcome, L1Cache};
pub use dram::{Dram, DramConfig};
pub use fabric::{FabricConfig, FabricPort, MasterId, SplitFabric, TxnDesc, TxnId, TxnKind};
pub use store::SparseMemory;
pub use system::{MemConfig, MemorySystem};

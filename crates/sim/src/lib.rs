//! # svmsyn-sim — discrete-event simulation kernel
//!
//! The lowest substrate of the `svmsyn` stack: a deterministic, single-threaded
//! discrete-event queue plus the small utilities every timing model needs.
//!
//! * [`Cycle`] — the simulation time unit (one fabric clock cycle).
//! * [`StepQueue`] — the pending events. Every event means "step thread `i`
//!   at cycle `t`"; entries pop in `(time, insertion order)` order, which
//!   makes every run bit-reproducible, and they are plain data, so the
//!   queue is its own snapshot record.
//! * [`FcfsResource`] — a first-come-first-served "resource calendar" used to
//!   model contention on shared single-server resources (bus, DRAM bank, TLB
//!   port) without full event-per-beat machinery.
//! * [`stats`] — the snapshotting stat registry used by the report
//!   printers.
//! * [`rng`] — a tiny deterministic PRNG (xoshiro256**) so workload generation
//!   never depends on external crates or global state.
//!
//! # Example
//!
//! An engine pops the earliest step and runs that thread, which books its
//! own next step:
//!
//! ```
//! use svmsyn_sim::{Cycle, StepQueue};
//!
//! let mut q = StepQueue::new(Cycle::ZERO, 0, 0, 1);
//! q.push(Cycle(10), 0);
//! let mut fired = Vec::new();
//! while let Some((now, thread)) = q.pop() {
//!     fired.push((now.0, thread));
//!     if now < Cycle(15) {
//!         q.push(now + Cycle(5), thread);
//!     }
//! }
//! assert_eq!(fired, [(10, 0), (15, 0)]);
//! ```

pub mod event;
pub mod fabric;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::StepQueue;
pub use fabric::FabricResources;
pub use resource::FcfsResource;
pub use rng::Xoshiro256ss;
pub use stats::StatSet;
pub use time::Cycle;

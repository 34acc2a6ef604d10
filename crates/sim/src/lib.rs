//! # svmsyn-sim — discrete-event simulation kernel
//!
//! The lowest substrate of the `svmsyn` stack: a deterministic, single-threaded
//! discrete-event engine plus the small utilities every timing model needs.
//!
//! * [`Cycle`] — the simulation time unit (one fabric clock cycle).
//! * [`Scheduler`] — a generic event scheduler. The whole system state lives in
//!   one model value `M`; events are boxed closures (or [`Event`] impls) fired
//!   in `(time, insertion order)` order, which makes every run bit-reproducible.
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
//! ```
//! use svmsyn_sim::{Cycle, Scheduler};
//!
//! struct Model { fired: Vec<u64> }
//! let mut sched = Scheduler::new();
//! sched.schedule_at(Cycle(10), |m: &mut Model, s: &mut Scheduler<Model>| {
//!     m.fired.push(s.now().0);
//!     s.schedule_in(Cycle(5), |m: &mut Model, s: &mut Scheduler<Model>| {
//!         m.fired.push(s.now().0);
//!     });
//! });
//! let mut model = Model { fired: Vec::new() };
//! sched.run(&mut model);
//! assert_eq!(model.fired, vec![10, 15]);
//! ```

pub mod event;
pub mod fabric;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{reference::HeapScheduler, Event, Scheduler, INLINE_EVENT_BYTES};
pub use fabric::FabricResources;
pub use resource::FcfsResource;
pub use rng::Xoshiro256ss;
pub use stats::StatSet;
pub use time::Cycle;

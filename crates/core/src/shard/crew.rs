//! Persistent host workers for [`ExecMode::Parallel`](super::ExecMode).
//!
//! A [`Crew`] lives for one `ShardedSim::run` call: `with_crew` spawns
//! one worker per shard after the first inside a single
//! `std::thread::scope`, and the workers park between windows. Each
//! window the coordinator moves every worker's item into that worker's
//! slot (a `Mutex<Option<T>>`), publishes the window end and bumps an
//! epoch; each worker runs the job on its item and signals done; the
//! coordinator runs item 0 inline meanwhile, then takes the items back.
//! Both sides poll for a bounded time ([`spin_bound`]) before they park.
//!
//! Failures never hang. A worker that panics still signals done (its
//! item is lost), and the coordinator stops the crew, joins that worker
//! and resumes its panic payload on the calling thread. When the
//! coordinator itself unwinds or returns early, dropping the crew stops
//! and unparks every worker before the scope joins them.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, ScopedJoinHandle, Thread};

use svmsyn_sim::Cycle;

use crate::budget::host_cores;

/// Polls a waiting side makes before it parks, when every crew thread has
/// a host core of its own. Measured on the `sharded_x2` benchmark design
/// (2 shards, 186 windows of 2,000 cycles) on a 2-vCPU x86 VM, where one
/// poll takes about 20 ns. At 256 polls both sides parked in nearly every
/// window. At 4,096 (~85 µs) they parked in a few windows per run in
/// quiet periods, but 3 of 12 readings of `sharded_sim_speedup`
/// (`benches/micro.rs`, 11 sharded runs each) fell into a mode where both
/// parked in ~170 of 186 windows and the run took 3–4× the serial time:
/// an idle vCPU there wakes slower than a window lasts, so once one side
/// parks the other soon does too. At 65,536 (~1.3 ms) none of 12 readings had
/// more than 6 parks across its 11 runs, and all read 1.03–1.51× serial;
/// 1,000,000 never parked and read no better (0.95–1.63×).
const SPIN: u32 = 65_536;

/// The spin bound for a crew of `workers`: [`SPIN`] when the workers and
/// the coordinator fit the host's cores, else zero. On an oversubscribed
/// host a spinning thread holds the core the awaited thread needs: 4
/// shards on the same 2-vCPU VM took 14–32 ms per run with 4,096 polls,
/// 43–59 ms with 16,384, 138–146 ms with 65,536, and 8–13 ms parking at
/// once (spawning a thread per window, as before the crew: 9–12 ms).
fn spin_bound(workers: usize) -> u32 {
    static CORES: OnceLock<usize> = OnceLock::new();
    if workers < *CORES.get_or_init(host_cores) {
        SPIN
    } else {
        0
    }
}

/// One worker's handoff slot.
struct Slot<T> {
    /// The item the worker runs this window. Empty while the coordinator
    /// holds it — and after a panic inside the job, which drops it.
    item: Mutex<Option<T>>,
    /// The last epoch this worker left, normally or by panicking. The
    /// worker's `Release` store pairs with the coordinator's `Acquire`
    /// load, publishing the item put back before it.
    done: AtomicU64,
}

/// State the coordinator and its workers share.
struct Shared<T> {
    slots: Vec<Slot<T>>,
    /// Bumped once per window; a worker runs when it sees a new value.
    /// The coordinator's `Release` store pairs with the workers' `Acquire`
    /// loads, publishing the slot items and `end` written before it.
    epoch: AtomicU64,
    /// The end cycle of the window `epoch` names.
    end: AtomicU64,
    stop: AtomicBool,
    coordinator: Thread,
    /// Polls before parking ([`spin_bound`]).
    spin: u32,
}

/// Locks a slot. A slot is never locked across a job, so it cannot be
/// poisoned; recovering the guard keeps the handoff itself panic-free.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns once `ready` holds: polls it `spin` times, then parks between
/// polls. Whoever makes `ready` true unparks this thread afterwards; an
/// unpark that lands before the park is kept as the thread's token, so no
/// wakeup is lost.
fn wait_until(spin: u32, mut ready: impl FnMut() -> bool) {
    for _ in 0..spin {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    while !ready() {
        thread::park();
    }
}

/// The worker-side half of a window's handoff: dropping it — after the
/// job returned or while the job unwinds — records the epoch as done and
/// wakes the coordinator.
struct Done<'a, T> {
    slot: &'a Slot<T>,
    epoch: u64,
    coordinator: &'a Thread,
}

impl<T> Drop for Done<'_, T> {
    fn drop(&mut self) {
        self.slot.done.store(self.epoch, Ordering::Release);
        self.coordinator.unpark();
    }
}

/// Worker `w`'s loop: wait for a new epoch (or the stop flag), run the job
/// on the slot's item, hand it back, repeat.
fn work<T>(shared: &Shared<T>, w: usize, job: fn(&mut T, Cycle)) {
    let slot = &shared.slots[w];
    let mut seen = 0;
    loop {
        wait_until(shared.spin, || {
            shared.stop.load(Ordering::Acquire) || shared.epoch.load(Ordering::Acquire) != seen
        });
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        seen = shared.epoch.load(Ordering::Acquire);
        let end = Cycle(shared.end.load(Ordering::Relaxed));
        let _done = Done {
            slot,
            epoch: seen,
            coordinator: &shared.coordinator,
        };
        let mut item = lock(&slot.item).take().expect("crew slot filled");
        job(&mut item, end);
        *lock(&slot.item) = Some(item);
    }
}

/// A running crew of worker threads, handed to `with_crew`'s body.
pub(super) struct Crew<'scope, 'env, T> {
    shared: &'env Shared<T>,
    /// `None` once a panicked worker has been joined.
    workers: Vec<Option<ScopedJoinHandle<'scope, ()>>>,
    job: fn(&mut T, Cycle),
}

impl<T> Crew<'_, '_, T> {
    /// Raises the stop flag and wakes every worker; each exits at its next
    /// wait.
    fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        for w in self.workers.iter().flatten() {
            w.thread().unpark();
        }
    }
}

impl<T: Send> Crew<'_, '_, T> {
    /// Runs the job on every item for the window ending at `end`:
    /// `items[0]` inline on the calling thread, `items[1 + w]` on worker
    /// `w`. Returns with every item back in `items`, in order.
    ///
    /// # Panics
    ///
    /// Resumes the payload of the lowest-numbered worker whose job
    /// panicked, after stopping the crew.
    pub(super) fn run(&mut self, items: &mut Vec<T>, end: Cycle) {
        let shared = self.shared;
        assert_eq!(items.len(), shared.slots.len() + 1, "one item per worker");
        for (slot, item) in shared.slots.iter().zip(items.drain(1..)) {
            *lock(&slot.item) = Some(item);
        }
        // Only this thread writes `epoch`, so a relaxed read sees the last
        // value it stored.
        let epoch = shared.epoch.load(Ordering::Relaxed) + 1;
        shared.end.store(end.0, Ordering::Relaxed);
        shared.epoch.store(epoch, Ordering::Release);
        for w in self.workers.iter().flatten() {
            w.thread().unpark();
        }
        (self.job)(&mut items[0], end);
        wait_until(shared.spin, || {
            shared
                .slots
                .iter()
                .all(|s| s.done.load(Ordering::Acquire) == epoch)
        });
        for (w, slot) in shared.slots.iter().enumerate() {
            match lock(&slot.item).take() {
                Some(item) => items.push(item),
                None => self.rethrow(w),
            }
        }
    }

    /// Stops the crew, joins worker `w` and resumes its panic here.
    fn rethrow(&mut self, w: usize) -> ! {
        self.stop();
        let worker = self.workers[w].take().expect("worker joined once");
        match worker.join() {
            Err(payload) => resume_unwind(payload),
            Ok(()) => unreachable!("crew worker {w} exited without its item"),
        }
    }
}

/// Stops the workers however the body leaves — return or unwind — so the
/// scope's implicit join never waits on a parked thread.
impl<T> Drop for Crew<'_, '_, T> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Runs `body` with a crew of `workers` threads that execute `job`, all
/// joined before this returns. A panic in `body` or in a worker's job
/// propagates with its own payload.
pub(super) fn with_crew<T: Send, R>(
    workers: usize,
    job: fn(&mut T, Cycle),
    body: impl FnOnce(&mut Crew<'_, '_, T>) -> R,
) -> R {
    let shared = Shared {
        slots: (0..workers)
            .map(|_| Slot {
                item: Mutex::new(None),
                done: AtomicU64::new(0),
            })
            .collect(),
        epoch: AtomicU64::new(0),
        end: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        coordinator: thread::current(),
        spin: spin_bound(workers),
    };
    thread::scope(|scope| {
        let shared = &shared;
        let mut crew = Crew {
            shared,
            workers: (0..workers)
                .map(|w| Some(scope.spawn(move || work(shared, w, job))))
                .collect(),
            job,
        };
        body(&mut crew)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    /// How long a crew may take to return before a test calls it hung.
    const DEADLINE: Duration = Duration::from_secs(60);

    /// Runs `f` on a thread of its own and returns its result, failing if
    /// it has not returned within [`DEADLINE`]: a hang is the failure these
    /// tests exist to catch, so it must fail the test, not stall the suite.
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || tx.send(f()).expect("test thread waits"));
        match rx.recv_timeout(DEADLINE) {
            Ok(r) => {
                runner.join().expect("runner sent its result");
                r
            }
            Err(RecvTimeoutError::Timeout) => panic!("crew did not return within {DEADLINE:?}"),
            Err(RecvTimeoutError::Disconnected) => {
                resume_unwind(runner.join().expect_err("runner panicked"))
            }
        }
    }

    /// A test item: which item it is, the windows it ran, and the window
    /// (if any) at which its job panics.
    struct Probe {
        id: usize,
        windows: u64,
        panic_at: Option<u64>,
    }

    fn step(p: &mut Probe, end: Cycle) {
        assert_eq!(
            end.0,
            p.windows + 1,
            "window end published to item {}",
            p.id
        );
        if p.panic_at == Some(p.windows) {
            panic!("probe {} panicked at window {}", p.id, p.windows);
        }
        p.windows += 1;
    }

    fn probes(n: usize, panicking: Option<(usize, u64)>) -> Vec<Probe> {
        (0..n)
            .map(|id| Probe {
                id,
                windows: 0,
                panic_at: panicking.and_then(|(i, k)| (i == id).then_some(k)),
            })
            .collect()
    }

    /// Drives `n` items through `windows` windows on a crew and returns the
    /// panic message the crew surfaced (or `None` if it finished).
    fn drive(n: usize, windows: u64, panicking: Option<(usize, u64)>) -> Option<String> {
        within_deadline(move || {
            let mut items = probes(n, panicking);
            let r = catch_unwind(AssertUnwindSafe(|| {
                with_crew(n - 1, step, |crew| {
                    for e in 1..=windows {
                        crew.run(&mut items, Cycle(e));
                    }
                })
            }));
            match r {
                Ok(()) => {
                    let ids: Vec<usize> = items.iter().map(|p| p.id).collect();
                    assert_eq!(ids, (0..n).collect::<Vec<_>>(), "items return in order");
                    assert!(items.iter().all(|p| p.windows == windows));
                    None
                }
                Err(payload) => Some(
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .expect("a formatted panic message"),
                ),
            }
        })
    }

    #[test]
    fn every_item_runs_every_window_in_order() {
        for n in [1, 2, 4] {
            assert_eq!(drive(n, 300, None), None, "{n} items");
        }
    }

    /// A worker's panic comes out on the calling thread with the worker's
    /// own message, and `with_crew` returns — `std::thread::scope` joins
    /// every worker before it does, so returning at all proves none was
    /// left parked.
    #[test]
    fn worker_panic_propagates_its_payload_and_joins_the_crew() {
        for (n, item) in [(2, 1), (4, 2), (4, 3)] {
            let msg = drive(n, 50, Some((item, 7)));
            assert_eq!(
                msg.as_deref(),
                Some(format!("probe {item} panicked at window 7").as_str()),
                "{n} items"
            );
        }
    }

    /// A coordinator-side panic (item 0 runs inline) releases the parked
    /// workers, which the scope then joins; its own message propagates.
    #[test]
    fn coordinator_panic_releases_the_workers() {
        for n in [2, 4] {
            let msg = drive(n, 50, Some((0, 11)));
            assert_eq!(
                msg.as_deref(),
                Some("probe 0 panicked at window 11"),
                "{n} items"
            );
        }
    }
}

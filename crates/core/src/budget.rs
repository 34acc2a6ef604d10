//! Host-core budgeting shared by every component that multiplies
//! parallelism: the sweep service's worker pool, the DSE evaluator's
//! thread count, and the sharded simulation engine all draw from the same
//! physical cores. One simulation configured with `shards = S` holds `S`
//! host threads for the whole of each `ShardedSim::run` call: the caller's
//! thread runs shard 0 and the barriers, and `S − 1` crew workers run the
//! other shards, parked between windows (they spin briefly before
//! parking, so they cost a core while the run is busy). A pool of `W`
//! workers each running an `S`-shard simulation therefore wants
//! `W × S <= host_cores()` — [`worker_budget`] computes the largest `W`
//! that fits.
//!
//! [`map_ordered`] is the one worker pool of both sweep layers: the DSE
//! evaluator maps its uncached candidates through it and the sweep service
//! maps its jobs. Results come back in item order whatever the thread
//! timing, and each item's panic is caught on its own, so one broken item
//! costs only its own result.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Host CPUs available to this process (`1` when detection fails —
/// sandboxes and exotic platforms degrade to serial, never to a panic).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker-pool size to use when each worker runs an `shards`-shard
/// simulation.
///
/// * `requested == 0` (auto): one worker per `shards` host cores,
///   at least one — the pool and the per-simulation shards together
///   saturate the host without oversubscribing it.
/// * `requested > 0` with `shards <= 1`: honored verbatim — serial
///   simulations cost one core each and explicit pool sizes are part of
///   existing callers' contracts.
/// * `requested > 0` with `shards > 1`: clamped so
///   `workers × shards <= host_cores()` (but never below one worker) —
///   an explicit pool size tuned for serial runs would oversubscribe
///   `shards`-fold otherwise.
///
/// # Examples
///
/// ```
/// use svmsyn::worker_budget;
/// // Serial sims: explicit requests are honored verbatim.
/// assert_eq!(worker_budget(7, 1), 7);
/// // Auto sizing always grants at least one worker.
/// assert!(worker_budget(0, 4) >= 1);
/// // Sharded sims never multiply out beyond the host (modulo the
/// // one-worker floor).
/// let w = worker_budget(64, 4);
/// assert!(w == 1 || w * 4 <= svmsyn::host_cores().max(4));
/// ```
pub fn worker_budget(requested: usize, shards: usize) -> usize {
    let shards = shards.max(1);
    let cores = host_cores();
    if requested == 0 {
        return (cores / shards).max(1);
    }
    if shards == 1 {
        return requested;
    }
    requested.min((cores / shards).max(1))
}

/// Calls `f` on every item, on up to `workers` threads, and returns the
/// results in item order.
///
/// Each call runs behind its own panic boundary: a panicking item yields
/// `Err` with its panic message (`<non-string panic>` when the payload is
/// not a string) and the other items still run, so `f` must leave nothing
/// it shares with them half-updated when it panics. With one worker or one
/// item, everything runs on the caller's thread. Otherwise the workers
/// claim items one at a time from a shared index, so a few slow items do
/// not leave the rest of the pool idle behind a fixed split.
///
/// # Panics
///
/// Re-raises a panic that escapes a worker outside the per-item boundary.
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let guarded = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(guarded).collect();
    }
    // The claim index publishes no data: each result travels back through
    // its worker's join.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<R, String>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, guarded(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }

    #[test]
    fn explicit_serial_request_is_verbatim() {
        assert_eq!(worker_budget(1, 1), 1);
        assert_eq!(worker_budget(16, 1), 16);
        assert_eq!(worker_budget(16, 0), 16); // shards 0 normalizes to 1
    }

    #[test]
    fn auto_divides_cores_by_shards() {
        let cores = host_cores();
        assert_eq!(worker_budget(0, 1), cores);
        assert_eq!(worker_budget(0, 2), (cores / 2).max(1));
        // More shards than cores still grants a worker.
        assert_eq!(worker_budget(0, cores * 2), 1);
    }

    #[test]
    fn sharded_request_is_clamped_to_cores() {
        let cores = host_cores();
        let w = worker_budget(usize::MAX, 2);
        assert_eq!(w, (cores / 2).max(1));
        // But a modest request under the budget passes through.
        assert_eq!(worker_budget(1, 2), 1);
    }

    #[test]
    fn map_ordered_returns_item_order_under_skewed_cost() {
        // `w` workers, `w + 1` items. The worker that claims item 0 holds it
        // until items 1..w have started; their workers hold them until item
        // `w` is done. So the first worker runs items 0 and `w`, with the
        // others' items between them: no completion or worker order
        // matches item order, only reordering by item index does.
        for workers in [1, 2, 4, 8] {
            let items: Vec<usize> = (0..=workers).collect();
            let started = AtomicUsize::new(0);
            let last_done = AtomicBool::new(false);
            let wait = |ready: &dyn Fn() -> bool| {
                while !ready() {
                    thread::yield_now();
                }
            };
            let got = map_ordered(&items, workers, |&i| {
                if workers > 1 {
                    if i == 0 {
                        wait(&|| started.load(Ordering::SeqCst) == workers - 1);
                    } else if i < workers {
                        started.fetch_add(1, Ordering::SeqCst);
                        wait(&|| last_done.load(Ordering::SeqCst));
                    } else {
                        last_done.store(true, Ordering::SeqCst);
                    }
                }
                (i * 10, thread::current().id())
            });
            let values: Vec<usize> = got.iter().map(|r| r.as_ref().unwrap().0).collect();
            let expected: Vec<usize> = items.iter().map(|i| i * 10).collect();
            assert_eq!(values, expected, "workers={workers}");
            let thread_of = |i: usize| got[i].as_ref().unwrap().1;
            if workers > 1 {
                assert_eq!(thread_of(0), thread_of(workers), "workers={workers}");
            }
        }
    }

    #[test]
    fn map_ordered_contains_each_panic_to_its_item() {
        let items: Vec<u32> = (0..12).collect();
        for workers in [1, 4] {
            let got = map_ordered(&items, workers, |&x| {
                if x == 5 {
                    panic!("item {x} failed");
                }
                x + 1
            });
            assert_eq!(got.len(), items.len(), "workers={workers}");
            for (x, r) in items.iter().zip(&got) {
                if *x == 5 {
                    assert_eq!(r, &Err("item 5 failed".to_string()), "workers={workers}");
                } else {
                    assert_eq!(r, &Ok(x + 1), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn map_ordered_runs_one_worker_or_one_item_on_the_caller() {
        let caller = thread::current().id();
        let one_worker = map_ordered(&[1, 2, 3], 1, |_| thread::current().id());
        assert!(one_worker.iter().all(|id| id == &Ok(caller)));
        let one_item = map_ordered(&[1], 4, |_| thread::current().id());
        assert_eq!(one_item, vec![Ok(caller)]);
    }

    #[test]
    fn map_ordered_maps_empty_input_to_empty_output() {
        let none: [u8; 0] = [];
        assert!(map_ordered(&none, 4, |x| *x).is_empty());
        assert!(map_ordered(&none, 1, |x| *x).is_empty());
    }
}

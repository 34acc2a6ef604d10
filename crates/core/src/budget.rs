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

#[cfg(test)]
mod tests {
    use super::*;

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
}

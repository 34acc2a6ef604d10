//! Design-space exploration: HW/SW partitioning under a fabric budget.
//!
//! Each candidate placement is evaluated *by simulation* (synthesize, then
//! run) — the DATE-style toolflow loop. Exhaustive search is exact for
//! small thread counts; greedy and simulated-annealing searches scale to
//! larger applications. Figure 7 plots the resulting area/makespan Pareto
//! front; integration tests assert that the heuristics match the exhaustive
//! optimum on small instances.
//!
//! Synthesis inside a sweep draws hardware kernels from a compile cache
//! that lives as long as one [`explore`] or [`explore_with_store`] call:
//! each thread's kernel is compiled the first time a placement maps it to
//! hardware, and every later placement reuses that compilation. HLS
//! compilation is deterministic, so a cached kernel is the one the
//! placement would have compiled itself.
//!
//! Evaluation is the cost center — every point is a full-system simulation —
//! so every search hands the evaluator batches of independent candidates
//! (a single annealing step is a batch of one), and one path evaluates
//! them: memo, then store probe, then [`map_ordered`] over the distinct
//! misses on [`DseConfig::threads`] workers, then publish or record the
//! panic on the coordinating thread. Results are memoized by placement
//! vector, so a configuration the search revisits is never re-simulated.
//! Simulation is deterministic and [`map_ordered`] returns results in
//! candidate order, so a parallel sweep returns bit-identical results —
//! panics included — to the serial one.
//!
//! Below the in-process memo sits an optional **second-level cache**: a
//! persistent content-addressed [`ResultStore`] handle passed to
//! [`explore_with_store`]. A memo miss probes the store before simulating,
//! and every fresh evaluation is published back, so identical evaluation
//! requests — across processes and sweeps — pay the simulation cost once.
//! Store keys are canonical snap encodings of
//! `(app fingerprint, platform fingerprint, sim options, placements)`
//! hashed with fnv1a-64 (see [`crate::fingerprint`]); panicking candidates
//! are never published, so a transient environment failure cannot poison
//! the shared store.

use std::collections::{HashMap, HashSet};

use svmsyn_sim::{Cycle, FabricResources, Xoshiro256ss};
use svmsyn_snap::{SnapError, SnapReader, SnapWriter};
use svmsyn_store::ResultStore;

use crate::app::Application;
use crate::budget::{map_ordered, worker_budget};
use crate::fingerprint::{app_fingerprint, platform_fingerprint};
use crate::flow::{synthesize_with, KernelCache, Placement};
use crate::platform::Platform;
use crate::sim::{simulate, SimConfig};

/// The search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DseMethod {
    /// Try every subset of hardware-eligible threads (≤ 12 eligible).
    Exhaustive,
    /// Start all-software; greedily move the best thread to hardware until
    /// no move improves the makespan.
    Greedy,
    /// Simulated annealing over placement bit-flips (deterministic seed).
    Anneal {
        /// Annealing iterations.
        iters: u32,
        /// PRNG seed.
        seed: u64,
    },
}

/// DSE options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DseConfig {
    /// Search strategy.
    pub method: DseMethod,
    /// Simulation options used for every evaluation.
    pub sim: SimConfig,
    /// Worker threads for batch candidate evaluation; `0` means one per
    /// available core. `1` forces the serial sweep.
    pub threads: usize,
}

impl Default for DseConfig {
    /// Greedy search with default simulation options, auto-parallel.
    fn default() -> Self {
        DseConfig {
            method: DseMethod::Greedy,
            sim: SimConfig::default(),
            threads: 0,
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsePoint {
    /// The placement vector.
    pub placements: Vec<Placement>,
    /// Fabric usage of the design.
    pub resources: FabricResources,
    /// Simulated makespan.
    pub makespan: Cycle,
}

/// The exploration result.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// The best (lowest-makespan) feasible point.
    pub best: DsePoint,
    /// Number of candidate placements evaluated (including infeasible and
    /// memoized re-requests).
    pub evaluated: usize,
    /// Of `evaluated`, how many were served from the memo table without a
    /// simulation.
    pub cache_hits: usize,
    /// Memo misses served from the persistent result store without a
    /// simulation (always 0 when no store is configured).
    pub store_hits: usize,
    /// Memo misses the store could not answer — each one cost a real
    /// simulation, then was published back (always 0 when no store is
    /// configured).
    pub store_misses: usize,
    /// All feasible evaluated points.
    pub feasible: Vec<DsePoint>,
    /// The non-dominated (LUT, makespan) front, sorted by LUT.
    pub pareto: Vec<DsePoint>,
    /// Candidates whose evaluation panicked, in the order the search
    /// requested them, at any thread count. The panic is caught, the
    /// candidate is treated as infeasible, and the rest of the sweep
    /// completes — one broken design point cannot abort hours of search.
    pub panics: Vec<DsePanic>,
}

/// One candidate evaluation that panicked during a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsePanic {
    /// The placement vector whose evaluation panicked.
    pub placements: Vec<Placement>,
    /// The panic payload, stringified (`<non-string panic>` when the
    /// payload is not a string).
    pub message: String,
}

/// Why exploration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// No feasible placement simulated successfully.
    NoFeasiblePoint,
    /// Exhaustive search over too many eligible threads.
    TooManyEligible {
        /// Eligible thread count.
        eligible: usize,
    },
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::NoFeasiblePoint => write!(f, "no feasible placement found"),
            DseError::TooManyEligible { eligible } => {
                write!(
                    f,
                    "{eligible} eligible threads is too many for exhaustive search"
                )
            }
        }
    }
}

impl std::error::Error for DseError {}

fn evaluate(
    app: &Application,
    platform: &Platform,
    placements: &[Placement],
    sim: &SimConfig,
    kernels: &KernelCache,
) -> Option<DsePoint> {
    let design = synthesize_with(app, platform, placements, kernels).ok()?;
    let outcome = simulate(&design, sim).ok()?;
    Some(DsePoint {
        placements: placements.to_vec(),
        resources: design.total_resources,
        makespan: outcome.makespan,
    })
}

/// Version tag of the store key layout. Bumped whenever the key encoding
/// below changes shape, so old records simply stop matching instead of
/// being misinterpreted.
const STORE_KEY_VERSION: u32 = 3;

/// The canonical store-key prefix for one `(app, platform, sim)`
/// combination: everything but the placement vector. Appending the
/// placements (one byte each) completes a key.
///
/// The platform enters through [`platform_fingerprint`] alone, which
/// hashes every parameter that affects synthesis or simulation.
///
/// `SimConfig::checkpoint_every` is deliberately excluded: periodic
/// checkpoint pauses are transparent to results (`simulate` resumes
/// bit-identically — the checkpoint/restore suite proves it), so two runs
/// differing only in pause cadence must share records.
fn store_key_prefix(app_fp: u64, platform: &Platform, sim: &SimConfig) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u32(STORE_KEY_VERSION);
    w.put_u64(app_fp);
    w.put_u64(platform_fingerprint(platform));
    // Simulation options that can change results.
    w.put_u64(sim.quantum);
    w.put_u64(sim.max_events);
    w.put_u32(sim.fault_retry_budget);
    w.put_u64(sim.thrash_window);
    w.put_u32(sim.thrash_fault_limit);
    // The shard plan can change simulated time: a fault serviced at a
    // barrier is delivered into the next window, so sharded makespans
    // differ from the serial engine's (1,638,060 against 370,668 cycles at
    // `shard_window = 200_000`; ARCHITECTURE.md, "Conservative-exact
    // rules"). Records are therefore keyed per plan.
    w.put_u32(sim.shards);
    w.put_u64(sim.shard_window);
    w.into_bytes()
}

/// The full store key of one candidate: the sweep's key prefix plus one
/// byte per placement.
fn store_key(prefix: &[u8], placements: &[Placement]) -> Vec<u8> {
    let mut key = prefix.to_vec();
    key.extend(placements.iter().map(|p| match p {
        Placement::Software => 0u8,
        Placement::Hardware => 1,
    }));
    key
}

/// Encodes an evaluation outcome for the store. Only what the key does not
/// already determine is stored: feasibility, resource usage, makespan. The
/// full [`DsePoint`] is reconstructed from the key's placements on read.
fn encode_store_value(point: &Option<DsePoint>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    match point {
        None => w.put_u8(0),
        Some(p) => {
            w.put_u8(1);
            w.put_u64(p.resources.lut);
            w.put_u64(p.resources.ff);
            w.put_u64(p.resources.dsp);
            w.put_u64(p.resources.bram36);
            w.put_u64(p.makespan.0);
        }
    }
    w.into_bytes()
}

/// Decodes a store value back into an evaluation outcome for `placements`.
/// A malformed value yields `Err` and the caller treats the probe as a
/// miss (re-simulate + republish heals it).
fn decode_store_value(
    bytes: &[u8],
    placements: &[Placement],
) -> Result<Option<DsePoint>, SnapError> {
    let mut r = SnapReader::new(bytes);
    match r.take_u8()? {
        0 => Ok(None),
        1 => {
            let resources = FabricResources {
                lut: r.take_u64()?,
                ff: r.take_u64()?,
                dsp: r.take_u64()?,
                bram36: r.take_u64()?,
            };
            Ok(Some(DsePoint {
                placements: placements.to_vec(),
                resources,
                makespan: Cycle(r.take_u64()?),
            }))
        }
        _ => Err(SnapError::Corrupt("store value tag")),
    }
}

fn placements_from_mask(app: &Application, eligible: &[usize], mask: u64) -> Vec<Placement> {
    let mut p = vec![Placement::Software; app.threads.len()];
    for (bit, &t) in eligible.iter().enumerate() {
        if mask >> bit & 1 == 1 {
            p[t] = Placement::Hardware;
        }
    }
    p
}

fn pareto_front(mut feasible: Vec<DsePoint>) -> Vec<DsePoint> {
    feasible.sort_by_key(|p| (p.resources.lut, p.makespan));
    let mut front: Vec<DsePoint> = Vec::new();
    let mut best_makespan = Cycle::MAX;
    for p in feasible {
        if p.makespan < best_makespan {
            best_makespan = p.makespan;
            front.push(p);
        }
    }
    front
}

/// The memoizing, batching evaluation engine behind every search method.
struct Evaluator<'a> {
    app: &'a Application,
    platform: &'a Platform,
    /// Compiled kernels shared by every candidate of the sweep.
    kernels: KernelCache,
    sim: SimConfig,
    workers: usize,
    /// Outcomes keyed by placement vector.
    memo: HashMap<Vec<Placement>, Option<DsePoint>>,
    /// The persistent second-level cache, if configured, with the sweep's
    /// canonical key prefix.
    store: Option<(&'a ResultStore, Vec<u8>)>,
    evaluated: usize,
    cache_hits: usize,
    store_hits: usize,
    store_misses: usize,
    /// Candidates whose evaluation panicked (memoized as infeasible).
    panics: Vec<DsePanic>,
}

impl<'a> Evaluator<'a> {
    fn new(
        app: &'a Application,
        platform: &'a Platform,
        cfg: &DseConfig,
        store: Option<&'a ResultStore>,
    ) -> Self {
        // Each candidate evaluation occupies `sim.shards` host threads
        // for its whole run, so the worker pool shrinks to keep
        // `workers × shards` within the host budget.
        let workers = worker_budget(cfg.threads, cfg.sim.shards as usize);
        let store = store.map(|s| {
            let prefix = store_key_prefix(app_fingerprint(app), platform, &cfg.sim);
            (s, prefix)
        });
        Evaluator {
            app,
            platform,
            kernels: KernelCache::new(app, platform.hls),
            sim: cfg.sim,
            workers,
            memo: HashMap::new(),
            store,
            evaluated: 0,
            cache_hits: 0,
            store_hits: 0,
            store_misses: 0,
            panics: Vec::new(),
        }
    }

    /// Probes the store for a memo-missed candidate. `Some(outcome)` is a
    /// store hit (outcome may still be "infeasible"); `None` means the
    /// caller must simulate. Malformed values read back as misses.
    fn store_probe(&mut self, placements: &[Placement]) -> Option<Option<DsePoint>> {
        let (store, prefix) = self.store.as_ref()?;
        let outcome = store
            .get(&store_key(prefix, placements))
            .and_then(|v| decode_store_value(&v, placements).ok());
        match outcome {
            Some(point) => {
                self.store_hits += 1;
                Some(point)
            }
            None => {
                self.store_misses += 1;
                None
            }
        }
    }

    /// Publishes a freshly simulated outcome. Best-effort: a full disk or
    /// permission error costs persistence, not the sweep. Panicked
    /// candidates never reach here — a transient crash must not be
    /// republished to every future consumer as "infeasible".
    fn store_publish(&self, placements: &[Placement], point: &Option<DsePoint>) {
        if let Some((store, prefix)) = &self.store {
            let _ = store.put(&store_key(prefix, placements), &encode_store_value(point));
        }
    }

    /// Evaluates one candidate: a batch of one.
    fn eval_one(&mut self, placements: &[Placement]) -> Option<DsePoint> {
        self.eval_batch(&[placements.to_vec()]).pop().flatten()
    }

    /// Evaluates a batch of independent candidates and returns their
    /// outcomes in candidate order. A candidate is answered by the memo,
    /// then by the store; the distinct rest are simulated on the worker
    /// pool, and each outcome is published (or its panic recorded and
    /// memoized as infeasible) on this thread, in candidate order — so
    /// callers observe exactly the serial sweep. Store probes stay on this
    /// thread too: they are cheap disk reads, and only simulations are
    /// worth a worker.
    fn eval_batch(&mut self, candidates: &[Vec<Placement>]) -> Vec<Option<DsePoint>> {
        self.evaluated += candidates.len();
        let mut seen: HashSet<&Vec<Placement>> = HashSet::new();
        let mut misses: Vec<&Vec<Placement>> = Vec::new();
        for c in candidates {
            // A repeat within the batch counts as a memo hit, as it will
            // be one by the time its result is read.
            if self.memo.contains_key(c) || !seen.insert(c) {
                self.cache_hits += 1;
            } else if let Some(stored) = self.store_probe(c) {
                self.memo.insert(c.clone(), stored);
            } else {
                misses.push(c);
            }
        }
        // An unwound evaluation leaves nothing the sweep reads afterwards:
        // every input but the kernel cache is borrowed immutably, and a
        // compile that panics leaves its cache slot empty.
        let (app, platform, sim, kernels) = (self.app, self.platform, &self.sim, &self.kernels);
        let outcomes = map_ordered(&misses, self.workers, |c| {
            evaluate(app, platform, c, sim, kernels)
        });
        for (c, outcome) in misses.into_iter().zip(outcomes) {
            let point = match outcome {
                Ok(point) => {
                    self.store_publish(c, &point);
                    point
                }
                Err(message) => {
                    self.panics.push(DsePanic {
                        placements: c.clone(),
                        message,
                    });
                    None
                }
            };
            self.memo.insert(c.clone(), point);
        }
        candidates.iter().map(|c| self.memo[c].clone()).collect()
    }
}

/// Explores the placement space and returns the best feasible design point,
/// with no persistent store: [`explore_with_store`] with `None`.
///
/// # Errors
///
/// Returns [`DseError`] when no feasible point exists or the exhaustive
/// space is too large.
pub fn explore(
    app: &Application,
    platform: &Platform,
    cfg: &DseConfig,
) -> Result<DseResult, DseError> {
    explore_with_store(app, platform, cfg, None)
}

/// [`explore`] against a caller-owned [`ResultStore`] handle (pass `None`
/// to run purely in-memory). The handle is internally synchronized, so one
/// store can serve many concurrent explorations.
///
/// # Errors
///
/// Returns [`DseError`] when no feasible point exists or the exhaustive
/// space is too large.
pub fn explore_with_store(
    app: &Application,
    platform: &Platform,
    cfg: &DseConfig,
    store: Option<&ResultStore>,
) -> Result<DseResult, DseError> {
    let eligible = app.hw_eligible();
    let mut ev = Evaluator::new(app, platform, cfg, store);
    let mut feasible: Vec<DsePoint> = Vec::new();

    match cfg.method {
        DseMethod::Exhaustive => {
            if eligible.len() > 12 {
                return Err(DseError::TooManyEligible {
                    eligible: eligible.len(),
                });
            }
            let candidates: Vec<Vec<Placement>> = (0..(1u64 << eligible.len()))
                .map(|mask| placements_from_mask(app, &eligible, mask))
                .collect();
            feasible.extend(ev.eval_batch(&candidates).into_iter().flatten());
        }
        DseMethod::Greedy => {
            let mut current = placements_from_mask(app, &eligible, 0);
            let mut best = ev.eval_one(&current);
            if let Some(p) = &best {
                feasible.push(p.clone());
            }
            loop {
                // One greedy round: all single-thread promotions are
                // independent, so evaluate them as one parallel batch.
                let moves: Vec<usize> = eligible
                    .iter()
                    .copied()
                    .filter(|&t| current[t] != Placement::Hardware)
                    .collect();
                let candidates: Vec<Vec<Placement>> = moves
                    .iter()
                    .map(|&t| {
                        let mut cand = current.clone();
                        cand[t] = Placement::Hardware;
                        cand
                    })
                    .collect();
                let mut improvement: Option<(usize, DsePoint)> = None;
                for (&t, point) in moves.iter().zip(ev.eval_batch(&candidates)) {
                    if let Some(point) = point {
                        feasible.push(point.clone());
                        let better = match (&best, &improvement) {
                            (Some(b), Some((_, cur))) => {
                                point.makespan < b.makespan && point.makespan < cur.makespan
                            }
                            (Some(b), None) => point.makespan < b.makespan,
                            (None, Some((_, cur))) => point.makespan < cur.makespan,
                            (None, None) => true,
                        };
                        if better {
                            improvement = Some((t, point));
                        }
                    }
                }
                match improvement {
                    Some((t, point)) => {
                        current[t] = Placement::Hardware;
                        best = Some(point);
                    }
                    None => break,
                }
            }
        }
        DseMethod::Anneal { iters, seed } => {
            // Annealing is inherently sequential (each step depends on the
            // previous acceptance), but the memo table still removes every
            // revisit of an already-simulated placement.
            let mut rng = Xoshiro256ss::new(seed);
            let mut current = placements_from_mask(app, &eligible, 0);
            let mut current_point = ev.eval_one(&current);
            if let Some(p) = &current_point {
                feasible.push(p.clone());
            }
            for step in 0..iters {
                if eligible.is_empty() {
                    break;
                }
                let t = eligible[rng.range(eligible.len() as u64) as usize];
                let mut cand = current.clone();
                cand[t] = match cand[t] {
                    Placement::Hardware => Placement::Software,
                    Placement::Software => Placement::Hardware,
                };
                if let Some(point) = ev.eval_one(&cand) {
                    feasible.push(point.clone());
                    let temperature = 1.0 - (step as f64 / iters.max(1) as f64);
                    let accept = match &current_point {
                        None => true,
                        Some(cur) => {
                            if point.makespan <= cur.makespan {
                                true
                            } else {
                                let delta = (point.makespan.0 - cur.makespan.0) as f64
                                    / cur.makespan.0.max(1) as f64;
                                rng.chance((-delta / temperature.max(1e-3)).exp() * 0.5)
                            }
                        }
                    };
                    if accept {
                        current = cand;
                        current_point = Some(point);
                    }
                }
            }
        }
    }

    let best = feasible
        .iter()
        .min_by_key(|p| p.makespan)
        .cloned()
        .ok_or(DseError::NoFeasiblePoint)?;
    // Dedup identical design points before the front (heuristics revisit):
    // a placement names one point, and its first occurrence stays.
    let mut seen = HashSet::new();
    feasible.retain(|p| seen.insert(p.placements.clone()));
    let pareto = pareto_front(feasible.clone());
    Ok(DseResult {
        best,
        evaluated: ev.evaluated,
        cache_hits: ev.cache_hits,
        store_hits: ev.store_hits,
        store_misses: ev.store_misses,
        feasible,
        pareto,
        panics: ev.panics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{ApplicationBuilder, ArgSpec};
    use crate::flow::synthesize;
    use std::path::{Path, PathBuf};
    use svmsyn_hls::builder::KernelBuilder;
    use svmsyn_hls::ir::{BinOp, CmpOp, Width};
    use svmsyn_vm::walker::WalkerConfig;

    /// A loop kernel with enough work to benefit from hardware.
    fn work_kernel(name: &str) -> svmsyn_hls::ir::Kernel {
        let mut b = KernelBuilder::new(name, 3);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let src = b.arg(0);
        let dst = b.arg(1);
        let n = b.arg(2);
        let zero = b.constant(0);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi();
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let four = b.constant(4);
        let off = b.bin(BinOp::Mul, i, four);
        let sa = b.bin(BinOp::Add, src, off);
        let da = b.bin(BinOp::Add, dst, off);
        let v = b.load(sa, Width::W32);
        let sq = b.bin(BinOp::Mul, v, v);
        b.store(da, sq, Width::W32);
        let one = b.constant(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.finish().unwrap()
    }

    fn app(threads: usize, n: u64) -> Application {
        let init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut builder = ApplicationBuilder::new("dse").buffer("in", n * 4, init, false);
        for i in 0..threads {
            builder = builder.buffer(format!("out{i}"), n * 4, vec![], false);
        }
        for i in 0..threads {
            builder = builder.thread(
                format!("t{i}"),
                work_kernel(&format!("k{i}")),
                vec![
                    ArgSpec::Buffer(0, 0),
                    ArgSpec::Buffer(i + 1, 0),
                    ArgSpec::Value(n as i64),
                ],
                true,
            );
        }
        builder.build().unwrap()
    }

    fn fast_sim() -> SimConfig {
        SimConfig {
            quantum: 50_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn exhaustive_finds_all_hw_for_ample_budget() {
        let a = app(2, 128);
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.evaluated, 4);
        // With 2 CPUs and 2 threads, hardware should win or tie; the best
        // point must be feasible and strictly better than the worst.
        let worst = r.feasible.iter().map(|p| p.makespan).max().unwrap();
        assert!(r.best.makespan <= worst);
        assert!(!r.pareto.is_empty());
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instance() {
        let a = app(2, 128);
        let platform = Platform::default();
        let ex = explore(
            &a,
            &platform,
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        let gr = explore(
            &a,
            &platform,
            &DseConfig {
                method: DseMethod::Greedy,
                sim: fast_sim(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(gr.best.makespan, ex.best.makespan);
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let a = app(3, 64);
        let platform = Platform::default();
        let serial = explore(
            &a,
            &platform,
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                threads: 1,
            },
        )
        .unwrap();
        let parallel = explore(
            &a,
            &platform,
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                threads: 4,
            },
        )
        .unwrap();
        assert_eq!(serial.best, parallel.best);
        assert_eq!(serial.evaluated, parallel.evaluated);
        assert_eq!(serial.feasible, parallel.feasible);
        assert_eq!(serial.pareto, parallel.pareto);
    }

    #[test]
    fn anneal_is_deterministic_and_feasible() {
        let a = app(2, 64);
        let cfg = DseConfig {
            method: DseMethod::Anneal { iters: 8, seed: 42 },
            sim: fast_sim(),
            ..DseConfig::default()
        };
        let r1 = explore(&a, &Platform::default(), &cfg).unwrap();
        let r2 = explore(&a, &Platform::default(), &cfg).unwrap();
        assert_eq!(r1.best.makespan, r2.best.makespan);
        assert_eq!(r1.evaluated, r2.evaluated);
    }

    #[test]
    fn anneal_memoizes_revisited_placements() {
        // 2 eligible threads => 4 distinct placements; 24 annealing steps
        // must revisit, and every revisit must be a cache hit.
        let a = app(2, 64);
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Anneal { iters: 24, seed: 7 },
                sim: fast_sim(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        assert!(r.evaluated >= 25);
        assert!(
            r.cache_hits >= r.evaluated - 4,
            "only 4 distinct placements exist, the rest must hit the memo \
             ({} evaluated, {} cache hits)",
            r.evaluated,
            r.cache_hits
        );
    }

    #[test]
    fn pareto_front_is_monotone() {
        let a = app(3, 64);
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        for w in r.pareto.windows(2) {
            assert!(w[0].resources.lut <= w[1].resources.lut);
            assert!(w[0].makespan > w[1].makespan, "front must strictly improve");
        }
    }

    #[test]
    fn panicking_candidate_does_not_abort_sweep() {
        let a = app(2, 64);
        // line_bytes below the widest access trips `Memif::new`'s assert,
        // so every candidate with a hardware thread panics mid-evaluation;
        // the all-software point survives and wins.
        let mut platform = Platform::default();
        platform.memif.line_bytes = 4;
        for threads in [1, 4] {
            let r = explore(
                &a,
                &platform,
                &DseConfig {
                    method: DseMethod::Exhaustive,
                    sim: fast_sim(),
                    threads,
                },
            )
            .unwrap();
            assert_eq!(r.evaluated, 4, "threads={threads}");
            assert!(r.best.placements.iter().all(|p| *p == Placement::Software));
            assert_eq!(r.panics.len(), 3, "threads={threads}");
            for p in &r.panics {
                assert!(p.placements.contains(&Placement::Hardware));
                assert!(
                    p.message.contains("line_bytes"),
                    "panic payload captured: {}",
                    p.message
                );
            }
        }
    }

    #[test]
    fn panics_are_reported_in_candidate_order() {
        // As above, every placement with a hardware thread panics; the
        // report must list them in mask order whatever the thread count.
        let a = app(3, 64);
        let mut platform = Platform::default();
        platform.memif.line_bytes = 4;
        let eligible = a.hw_eligible();
        let expected: Vec<Vec<Placement>> = (1..8)
            .map(|mask| placements_from_mask(&a, &eligible, mask))
            .collect();
        for threads in [1, 2, 4] {
            let r = explore(
                &a,
                &platform,
                &DseConfig {
                    method: DseMethod::Exhaustive,
                    sim: fast_sim(),
                    threads,
                },
            )
            .unwrap();
            let reported: Vec<Vec<Placement>> =
                r.panics.iter().map(|p| p.placements.clone()).collect();
            assert_eq!(reported, expected, "threads={threads}");
        }
    }

    fn store_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "svmsyn-dse-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// One exploration through a fresh handle over the store at `root`.
    fn explore_fresh_store(
        a: &Application,
        platform: &Platform,
        cfg: &DseConfig,
        root: &Path,
    ) -> DseResult {
        let store = ResultStore::open(root).unwrap();
        explore_with_store(a, platform, cfg, Some(&store)).unwrap()
    }

    #[test]
    fn warm_store_serves_repeat_exploration_from_disk() {
        let a = app(2, 64);
        let root = store_root("warm");
        let cfg = DseConfig {
            method: DseMethod::Exhaustive,
            sim: fast_sim(),
            ..DseConfig::default()
        };
        let cold = explore_fresh_store(&a, &Platform::default(), &cfg, &root);
        assert_eq!(cold.store_hits, 0);
        assert_eq!(
            cold.store_misses, 4,
            "every candidate missed the empty store"
        );

        // Fresh process simulation: a new explore (new memo) over the same
        // store must answer everything from disk, bit-identically.
        let warm = explore_fresh_store(&a, &Platform::default(), &cfg, &root);
        assert_eq!(warm.store_hits, 4);
        assert_eq!(warm.store_misses, 0);
        assert_eq!(warm.best, cold.best);
        assert_eq!(warm.feasible, cold.feasible);
        assert_eq!(warm.pareto, cold.pareto);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn store_distinguishes_sim_and_platform_but_not_checkpoint_cadence() {
        let a = app(1, 64);
        let root = store_root("keys");
        let store = svmsyn_store::ResultStore::open(&root).unwrap();
        let cfg = DseConfig {
            method: DseMethod::Exhaustive,
            sim: fast_sim(),
            ..DseConfig::default()
        };
        let platform = Platform::default();
        explore_with_store(&a, &platform, &cfg, Some(&store)).unwrap();

        // A different quantum changes event interleaving: distinct keys.
        let other_sim = DseConfig {
            sim: SimConfig {
                quantum: fast_sim().quantum / 2,
                ..fast_sim()
            },
            ..cfg.clone()
        };
        let r = explore_with_store(&a, &platform, &other_sim, Some(&store)).unwrap();
        assert_eq!(r.store_hits, 0, "different sim options must not collide");

        // A different platform variant: distinct keys.
        let mut shallow = platform.clone();
        shallow.memif.miss_depth = 1;
        let r = explore_with_store(&a, &shallow, &cfg, Some(&store)).unwrap();
        assert_eq!(r.store_hits, 0, "different platform must not collide");

        // checkpoint_every is result-transparent (simulate resumes
        // bit-identically), so it is excluded from the key: full hits.
        let paused = DseConfig {
            sim: SimConfig {
                checkpoint_every: 10_000,
                ..fast_sim()
            },
            ..cfg
        };
        let r = explore_with_store(&a, &platform, &paused, Some(&store)).unwrap();
        assert_eq!(r.store_misses, 0, "pause cadence must share records");
        assert_eq!(r.store_hits, r.evaluated - r.cache_hits);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn panicking_candidates_are_not_published() {
        let a = app(1, 64);
        let root = store_root("panic");
        let mut platform = Platform::default();
        platform.memif.line_bytes = 4; // HW candidates panic in Memif::new
        let cfg = DseConfig {
            method: DseMethod::Exhaustive,
            sim: fast_sim(),
            ..DseConfig::default()
        };
        let first = explore_fresh_store(&a, &platform, &cfg, &root);
        assert_eq!(first.panics.len(), 1);
        // Only the surviving all-software evaluation was persisted; the
        // panicked candidate must stay unpublished and re-run next time.
        let second = explore_fresh_store(&a, &platform, &cfg, &root);
        assert_eq!(second.store_hits, 1);
        assert_eq!(second.store_misses, 1);
        assert_eq!(second.panics.len(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn too_many_eligible_rejected() {
        let a = app(13, 16);
        let err = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                ..DseConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, DseError::TooManyEligible { eligible: 13 }));
    }

    #[test]
    fn tight_budget_forces_partial_hw() {
        let a = app(3, 64);
        // Budget that fits roughly one hardware thread.
        let one_thread = {
            let d = synthesize(
                &a,
                &Platform::default(),
                &[
                    Placement::Hardware,
                    Placement::Software,
                    Placement::Software,
                ],
            )
            .unwrap();
            d.total_resources
        };
        let platform = Platform {
            fabric: one_thread + FabricResources::new(500, 500, 2, 1),
            ..Platform::default()
        };
        let r = explore(
            &a,
            &platform,
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        let hw_count = r
            .best
            .placements
            .iter()
            .filter(|p| **p == Placement::Hardware)
            .count();
        assert!(hw_count <= 1, "budget only fits one HW thread");
    }

    /// A loop-free kernel of `muls` chained multiplies.
    fn chain_kernel(name: &str, muls: usize) -> svmsyn_hls::ir::Kernel {
        let mut b = KernelBuilder::new(name, 1);
        let mut x = b.arg(0);
        for _ in 0..muls {
            x = b.bin(BinOp::Mul, x, x);
        }
        b.ret(Some(x));
        b.finish().unwrap()
    }

    #[test]
    fn cached_sweep_matches_per_point_synthesis() {
        // Three different kernels, so a compiled kernel served to the wrong
        // thread changes a point's resources.
        let n = 64u64;
        let init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
        let a = ApplicationBuilder::new("mixed")
            .buffer("in", n * 4, init, false)
            .buffer("out", n * 4, vec![], false)
            .thread(
                "t0",
                work_kernel("k0"),
                vec![
                    ArgSpec::Buffer(0, 0),
                    ArgSpec::Buffer(1, 0),
                    ArgSpec::Value(n as i64),
                ],
                true,
            )
            .thread("t1", chain_kernel("k1", 2), vec![ArgSpec::Value(3)], true)
            .thread("t2", chain_kernel("k2", 5), vec![ArgSpec::Value(5)], true)
            .build()
            .unwrap();
        // A budget that fits two hardware threads under the default walker,
        // so the all-hardware placements are over budget.
        let two_hw = synthesize(
            &a,
            &Platform::default(),
            &[
                Placement::Hardware,
                Placement::Hardware,
                Placement::Software,
            ],
        )
        .unwrap()
        .total_resources;
        let platform = Platform {
            fabric: two_hw + FabricResources::new(500, 500, 2, 1),
            ..Platform::default()
        };
        let walkers = [WalkerConfig::disabled(), WalkerConfig::two_level(4, 16)];
        let eligible = a.hw_eligible();
        for threads in [1, 4] {
            let (mut feasible, mut infeasible) = (0, 0);
            for walker in &walkers {
                let mut variant = platform.clone();
                variant.memif.mmu.walker = *walker;
                let r = explore(
                    &a,
                    &variant,
                    &DseConfig {
                        method: DseMethod::Exhaustive,
                        sim: fast_sim(),
                        threads,
                    },
                )
                .unwrap();
                assert!(
                    r.panics.is_empty(),
                    "threads={threads} walker={walker:?}: {:?}",
                    r.panics
                );
                for mask in 0..1u64 << eligible.len() {
                    let placements = placements_from_mask(&a, &eligible, mask);
                    let fresh = synthesize(&a, &variant, &placements).ok().and_then(|d| {
                        let makespan = simulate(&d, &fast_sim()).ok()?.makespan;
                        Some((d.total_resources, makespan))
                    });
                    let swept = r
                        .feasible
                        .iter()
                        .find(|p| p.placements == placements)
                        .map(|p| (p.resources, p.makespan));
                    assert_eq!(
                        swept, fresh,
                        "threads={threads} walker={walker:?} placements={placements:?}"
                    );
                    match fresh {
                        Some(_) => feasible += 1,
                        None => infeasible += 1,
                    }
                }
            }
            assert!(
                feasible > 0 && infeasible > 0,
                "{feasible} feasible, {infeasible} infeasible"
            );
        }
    }
}

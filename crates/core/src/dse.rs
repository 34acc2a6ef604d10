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
//! hardware, and every later placement, under every variant, reuses that
//! compilation. HLS compilation is deterministic, so a cached kernel is the
//! one the placement would have compiled itself.
//!
//! Evaluation is the cost center — every point is a full-system simulation —
//! so the sweep engine batches independent candidates across worker threads
//! (`std::thread::scope` with an atomic work-stealing claim index; the build
//! environment has no crates.io access, so no rayon) and memoizes results by
//! placement vector: a configuration the search revisits is never
//! re-simulated. Simulation is deterministic, so the parallel sweep returns
//! bit-identical results to the serial one.
//!
//! Below the in-process memo sits an optional **second-level cache**: a
//! persistent content-addressed [`ResultStore`] ([`DseConfig::store`] or
//! [`explore_with_store`]). A memo miss probes the store before simulating,
//! and every fresh evaluation is published back, so identical evaluation
//! requests — across processes, sweeps, and tenants — pay the simulation
//! cost once. Store keys are canonical snap encodings of
//! `(app fingerprint, platform fingerprint, variant, placements)` hashed
//! with fnv1a-64 (see [`crate::fingerprint`]); panicking candidates are
//! never published, so a transient environment failure cannot poison the
//! shared store.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use svmsyn_mem::FabricConfig;
use svmsyn_sim::{Cycle, FabricResources, Xoshiro256ss};
use svmsyn_snap::{SnapError, SnapReader, SnapWriter};
use svmsyn_store::ResultStore;
use svmsyn_vm::walker::WalkerConfig;

use crate::app::Application;
use crate::fingerprint::{app_fingerprint, platform_fingerprint};
use crate::flow::{synthesize_with, KernelCache, Placement};
use crate::platform::{Platform, PressurePoint};
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
    /// Walk-cache geometries to sweep as an extra design axis: the placement
    /// search runs once per variant (each pays its own fabric cost and walks
    /// with its own cache). Empty means the platform's configured walker
    /// only.
    pub walker_axis: Vec<WalkerConfig>,
    /// Memory-fabric configurations (outstanding window depth, MSHR count)
    /// to sweep as a design axis, crossed with `walker_axis`. Empty means
    /// the platform's configured fabric only.
    pub fabric_axis: Vec<FabricConfig>,
    /// MEMIF outstanding-miss depths (hit-under-miss windows) to sweep as
    /// a design axis, crossed with `fabric_axis` and `walker_axis` — depth
    /// `1` is the blocking interface, deeper windows let a hardware thread
    /// run past its misses. Empty means the platform's configured depth
    /// only.
    pub memif_axis: Vec<u32>,
    /// Memory-pressure operating points (frame budget, allocation policy,
    /// swap latency) to sweep as a design axis, crossed with every other
    /// axis. Empty means the platform's configured pressure point only.
    pub pressure_axis: Vec<PressurePoint>,
    /// Root directory of a persistent content-addressed result store to
    /// consult below the in-process memo (memo miss → store probe →
    /// simulate → publish). `None` disables persistence. To share one open
    /// store handle across many explorations, use [`explore_with_store`]
    /// instead.
    pub store: Option<PathBuf>,
}

impl Default for DseConfig {
    /// Greedy search with default simulation options, auto-parallel, no
    /// walk-cache sweep.
    fn default() -> Self {
        DseConfig {
            method: DseMethod::Greedy,
            sim: SimConfig::default(),
            threads: 0,
            walker_axis: Vec::new(),
            fabric_axis: Vec::new(),
            memif_axis: Vec::new(),
            pressure_axis: Vec::new(),
            store: None,
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsePoint {
    /// The placement vector.
    pub placements: Vec<Placement>,
    /// The per-thread walk-cache geometry this point was evaluated with.
    pub walker: WalkerConfig,
    /// The memory-fabric configuration this point was evaluated with.
    pub fabric: FabricConfig,
    /// The MEMIF outstanding-miss depth this point was evaluated with.
    pub miss_depth: u32,
    /// The memory-pressure operating point this point was evaluated with.
    pub pressure: PressurePoint,
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
    /// Candidates whose evaluation panicked. The panic is caught, the
    /// candidate is treated as infeasible, and the rest of the sweep
    /// completes — one broken design point cannot abort hours of search.
    pub panics: Vec<DsePanic>,
}

/// One candidate evaluation that panicked during a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsePanic {
    /// The placement vector whose evaluation panicked (empty if the panic
    /// escaped candidate evaluation entirely, e.g. a worker-thread bug).
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
    /// The configured result store could not be opened (the message is the
    /// underlying store error, stringified to keep this type `Clone + Eq`).
    Store(String),
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
            DseError::Store(msg) => write!(f, "result store unavailable: {msg}"),
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
        walker: platform.memif.mmu.walker,
        fabric: platform.mem.fabric.clone(),
        miss_depth: platform.memif.miss_depth,
        pressure: platform.pressure_point(),
        resources: design.total_resources,
        makespan: outcome.makespan,
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// [`evaluate`] behind a panic boundary: a panicking candidate becomes
/// `Err(message)` instead of unwinding through the sweep. `AssertUnwindSafe`
/// is sound because all inputs but the kernel cache are borrowed immutably,
/// and a compile that panics leaves its cache slot empty — an unwound
/// evaluation leaves no state the sweep observes afterwards.
fn evaluate_guarded(
    app: &Application,
    platform: &Platform,
    placements: &[Placement],
    sim: &SimConfig,
    kernels: &KernelCache,
) -> Result<Option<DsePoint>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        evaluate(app, platform, placements, sim, kernels)
    }))
    .map_err(panic_message)
}

/// Version tag of the store key layout. Bumped whenever the key encoding
/// below changes shape, so old records simply stop matching instead of
/// being misinterpreted.
const STORE_KEY_VERSION: u32 = 2;

/// The canonical store-key prefix for one `(app, platform variant, sim)`
/// combination: everything but the placement vector. Appending the
/// placements (one byte each) completes a key.
///
/// The platform fingerprint already covers the walker/fabric/memif/pressure
/// variant (variants are materialized as whole platforms), but the variant
/// axes are also encoded explicitly so the key is self-describing — the key
/// layout is `(app, platform, variant, placements)` exactly as the store
/// contract states, not an implementation coincidence of the fingerprint.
///
/// `SimConfig::checkpoint_every` is deliberately excluded: periodic
/// checkpoint pauses are transparent to results (`simulate` resumes
/// bit-identically — the checkpoint/restore suite proves it), so two runs
/// differing only in pause cadence must share records.
fn store_key_prefix(app_fp: u64, variant: &Platform, sim: &SimConfig) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u32(STORE_KEY_VERSION);
    w.put_u64(app_fp);
    w.put_u64(platform_fingerprint(variant));
    // Variant axes, explicit.
    w.put_usize(variant.memif.mmu.walker.l1_entries);
    w.put_usize(variant.memif.mmu.walker.l2_entries);
    w.put_u64(variant.mem.fabric.width_bytes);
    w.put_u64(variant.mem.fabric.arb_cycles);
    w.put_u32(variant.mem.fabric.window);
    w.put_u32(variant.mem.fabric.mshrs);
    w.put_u64(variant.mem.fabric.mshr_line_bytes);
    w.put_u32(variant.memif.miss_depth);
    let pressure = variant.pressure_point();
    match pressure.frame_budget {
        None => w.put_u8(0),
        Some(n) => {
            w.put_u8(1);
            w.put_u64(n);
        }
    }
    w.put_u8(match pressure.policy {
        svmsyn_os::AllocPolicy::Lazy => 0,
        svmsyn_os::AllocPolicy::Eager => 1,
    });
    w.put_u64(pressure.swap_latency);
    // Simulation options that can change results.
    w.put_u64(sim.quantum);
    w.put_u64(sim.max_events);
    w.put_u32(sim.fault_retry_budget);
    w.put_u64(sim.thrash_window);
    w.put_u32(sim.thrash_fault_limit);
    // The sharded engine produces identical makespans (the conformance
    // suite proves it), but error-path edges — event-limit trip points,
    // thrash attribution — depend on the shard plan, so records are keyed
    // per plan rather than risking a stale infeasibility verdict.
    w.put_u32(sim.shards);
    w.put_u64(sim.shard_window);
    w.into_bytes()
}

/// Encodes an evaluation outcome for the store. Only what the key does not
/// already determine is stored: feasibility, resource usage, makespan. The
/// full [`DsePoint`] is reconstructed from the key's context on read.
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

/// Decodes a store value back into an evaluation outcome, reattaching the
/// variant context the key encodes. A malformed value yields `Err` and the
/// caller treats the probe as a miss (re-simulate + republish heals it).
fn decode_store_value(
    bytes: &[u8],
    variant: &Platform,
    placements: &[Placement],
) -> Result<Option<DsePoint>, SnapError> {
    let mut r = SnapReader::new(bytes);
    match r.take_u8()? {
        0 => Ok(None),
        1 => Ok(Some(DsePoint {
            placements: placements.to_vec(),
            walker: variant.memif.mmu.walker,
            fabric: variant.mem.fabric.clone(),
            miss_depth: variant.memif.miss_depth,
            pressure: variant.pressure_point(),
            resources: FabricResources {
                lut: r.take_u64()?,
                ff: r.take_u64()?,
                dsp: r.take_u64()?,
                bram36: r.take_u64()?,
            },
            makespan: Cycle(r.take_u64()?),
        })),
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
///
/// The walk-cache axis adds a second memo dimension: one memo table per
/// variant, so revisits of a placement under the same walker geometry never
/// re-simulate while distinct geometries stay distinct points — and probes
/// still borrow the placement slice (no per-lookup allocation).
struct Evaluator<'a> {
    app: &'a Application,
    /// One platform per walk-cache variant, in axis order.
    variants: Vec<Platform>,
    /// Compiled kernels shared by every candidate of every variant: the
    /// variant axes leave `Platform::hls` untouched, so one compile per
    /// thread serves the whole sweep.
    kernels: KernelCache,
    /// Index into `variants` the search is currently exploring.
    current: usize,
    sim: SimConfig,
    workers: usize,
    /// One memo table per walk-cache variant, keyed by placement vector.
    memo: Vec<HashMap<Vec<Placement>, Option<DsePoint>>>,
    /// The persistent second-level cache, if configured.
    store: Option<&'a ResultStore>,
    /// Per-variant canonical key prefix (empty when no store): key =
    /// prefix ++ one byte per placement.
    key_prefix: Vec<Vec<u8>>,
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
        let workers = crate::budget::worker_budget(cfg.threads, cfg.sim.shards as usize);
        // The variant list is the cross product of the walk-cache and
        // fabric axes; an empty axis contributes the platform's own value.
        let walker_variants: Vec<Platform> = if cfg.walker_axis.is_empty() {
            vec![platform.clone()]
        } else {
            cfg.walker_axis
                .iter()
                .map(|w| platform.with_walker(*w))
                .collect()
        };
        let fabric_variants: Vec<Platform> = if cfg.fabric_axis.is_empty() {
            walker_variants
        } else {
            walker_variants
                .iter()
                .flat_map(|p| cfg.fabric_axis.iter().map(|f| p.with_fabric(f.clone())))
                .collect()
        };
        let memif_variants: Vec<Platform> = if cfg.memif_axis.is_empty() {
            fabric_variants
        } else {
            fabric_variants
                .iter()
                .flat_map(|p| cfg.memif_axis.iter().map(|&d| p.with_miss_depth(d)))
                .collect()
        };
        let variants: Vec<Platform> = if cfg.pressure_axis.is_empty() {
            memif_variants
        } else {
            memif_variants
                .iter()
                .flat_map(|p| cfg.pressure_axis.iter().map(|&pt| p.with_pressure(pt)))
                .collect()
        };
        let memo = vec![HashMap::new(); variants.len()];
        let key_prefix = if store.is_some() {
            let app_fp = app_fingerprint(app);
            variants
                .iter()
                .map(|v| store_key_prefix(app_fp, v, &cfg.sim))
                .collect()
        } else {
            Vec::new()
        };
        Evaluator {
            app,
            variants,
            kernels: KernelCache::new(app, platform.hls),
            current: 0,
            sim: cfg.sim,
            workers,
            memo,
            store,
            key_prefix,
            evaluated: 0,
            cache_hits: 0,
            store_hits: 0,
            store_misses: 0,
            panics: Vec::new(),
        }
    }

    /// The full store key for one candidate under one variant.
    fn store_key(&self, variant: usize, placements: &[Placement]) -> Vec<u8> {
        let mut key = self.key_prefix[variant].clone();
        for p in placements {
            key.push(match p {
                Placement::Software => 0,
                Placement::Hardware => 1,
            });
        }
        key
    }

    /// Probes the store for a memo-missed candidate. `Some(outcome)` is a
    /// store hit (outcome may still be "infeasible"); `None` means the
    /// caller must simulate. Malformed values read back as misses.
    fn store_probe(
        &mut self,
        variant: usize,
        placements: &[Placement],
    ) -> Option<Option<DsePoint>> {
        let store = self.store?;
        let key = self.store_key(variant, placements);
        let outcome = store
            .get(&key)
            .and_then(|v| decode_store_value(&v, &self.variants[variant], placements).ok());
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
    fn store_publish(&self, variant: usize, placements: &[Placement], point: &Option<DsePoint>) {
        if let Some(store) = self.store {
            let key = self.store_key(variant, placements);
            let _ = store.put(&key, &encode_store_value(point));
        }
    }

    fn platform(&self) -> &Platform {
        &self.variants[self.current]
    }

    /// Evaluates one candidate, consulting the memo table first. A
    /// panicking evaluation is recorded and memoized as infeasible.
    fn eval_one(&mut self, placements: &[Placement]) -> Option<DsePoint> {
        self.evaluated += 1;
        if let Some(cached) = self.memo[self.current].get(placements) {
            self.cache_hits += 1;
            return cached.clone();
        }
        if let Some(stored) = self.store_probe(self.current, placements) {
            self.memo[self.current].insert(placements.to_vec(), stored.clone());
            return stored;
        }
        let point = match evaluate_guarded(
            self.app,
            self.platform(),
            placements,
            &self.sim,
            &self.kernels,
        ) {
            Ok(point) => {
                self.store_publish(self.current, placements, &point);
                point
            }
            Err(message) => {
                self.panics.push(DsePanic {
                    placements: placements.to_vec(),
                    message,
                });
                None
            }
        };
        self.memo[self.current].insert(placements.to_vec(), point.clone());
        point
    }

    /// Evaluates a batch of independent candidates, fanning uncached ones
    /// out across worker threads. Results come back in candidate order, so
    /// callers observe exactly the serial sweep's sequence.
    fn eval_batch(&mut self, candidates: &[Vec<Placement>]) -> Vec<Option<DsePoint>> {
        self.evaluated += candidates.len();
        let variant = self.current;
        let mut memo_misses: Vec<&Vec<Placement>> = Vec::new();
        let mut seen: HashSet<&Vec<Placement>> = HashSet::new();
        for c in candidates {
            if !self.memo[variant].contains_key(c) && seen.insert(c) {
                memo_misses.push(c);
            }
        }
        self.cache_hits += candidates.len() - memo_misses.len();

        // Second-level cache: probe the persistent store for every memo
        // miss before spending a simulation on it. Probes are cheap disk
        // reads, so they stay on this thread; only real simulations fan
        // out to the worker pool below.
        let mut misses: Vec<&Vec<Placement>> = Vec::new();
        if self.store.is_some() {
            for c in memo_misses {
                match self.store_probe(variant, c) {
                    Some(stored) => {
                        self.memo[variant].insert(c.clone(), stored);
                    }
                    None => misses.push(c),
                }
            }
        } else {
            misses = memo_misses;
        }

        if misses.len() <= 1 || self.workers <= 1 {
            for c in misses {
                let point = match evaluate_guarded(
                    self.app,
                    &self.variants[variant],
                    c,
                    &self.sim,
                    &self.kernels,
                ) {
                    Ok(point) => {
                        self.store_publish(variant, c, &point);
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
                self.memo[variant].insert(c.clone(), point);
            }
        } else {
            // Work stealing via a shared atomic claim index: per-candidate
            // evaluation times are skewed (all-hardware points simulate much
            // faster than all-software ones), so fixed chunks leave workers
            // idle while one chews the expensive tail. Each worker claims
            // the next unevaluated candidate as it frees up. Evaluation is
            // deterministic per candidate and the results land in the memo
            // table keyed by placement, so claim order cannot change any
            // observable result — the parallel sweep stays bit-identical to
            // the serial one.
            let workers = self.workers.min(misses.len());
            let (app, platform, sim, kernels) =
                (self.app, &self.variants[variant], &self.sim, &self.kernels);
            let misses = &misses;
            let next = AtomicUsize::new(0);
            // A candidate's evaluation outcome: its placement vector plus
            // either a point (None = infeasible) or a caught panic message.
            type Evaluated = (Vec<Placement>, Result<Option<DsePoint>, String>);
            let results: Vec<Evaluated> = thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(c) = misses.get(i) else { break };
                                done.push((
                                    (*c).clone(),
                                    evaluate_guarded(app, platform, c, sim, kernels),
                                ));
                            }
                            done
                        })
                    })
                    .collect();
                // Candidate panics are caught inside `evaluate_guarded`,
                // so a worker can only die to a bug outside evaluation;
                // record even that instead of aborting the sweep (its
                // claimed-but-unreported candidates re-run next batch).
                handles
                    .into_iter()
                    .flat_map(|h| match h.join() {
                        Ok(done) => done,
                        Err(payload) => {
                            vec![(Vec::new(), Err(panic_message(payload)))]
                        }
                    })
                    .collect()
            });
            for (placements, outcome) in results {
                let point = match outcome {
                    Ok(point) => {
                        // Publish on the coordinating thread after the join:
                        // the store handle is shared, and panicked outcomes
                        // (the Err arm) must never be persisted.
                        self.store_publish(variant, &placements, &point);
                        point
                    }
                    Err(message) => {
                        self.panics.push(DsePanic {
                            placements: placements.clone(),
                            message,
                        });
                        None
                    }
                };
                if !placements.is_empty() {
                    self.memo[variant].insert(placements, point);
                }
            }
        }

        // A candidate can be missing only if its worker died outside
        // evaluation; report it infeasible for this batch (it stays
        // unmemoized, so a later request re-evaluates it).
        candidates
            .iter()
            .map(|c| self.memo[variant].get(c).cloned().flatten())
            .collect()
    }
}

/// Explores the placement space and returns the best feasible design point.
///
/// When [`DseConfig::store`] is set, a private [`ResultStore`] handle is
/// opened for the duration of the call; to share one open handle across
/// many explorations (the sweep-service pattern) use [`explore_with_store`].
///
/// # Errors
///
/// Returns [`DseError`] when no feasible point exists, the exhaustive
/// space is too large, or the configured store cannot be opened.
pub fn explore(
    app: &Application,
    platform: &Platform,
    cfg: &DseConfig,
) -> Result<DseResult, DseError> {
    match &cfg.store {
        None => explore_with_store(app, platform, cfg, None),
        Some(root) => {
            let store = ResultStore::open(root).map_err(|e| DseError::Store(e.to_string()))?;
            explore_with_store(app, platform, cfg, Some(&store))
        }
    }
}

/// [`explore`] against a caller-owned [`ResultStore`] handle (pass `None`
/// to run purely in-memory; `cfg.store` is ignored here). The handle is
/// internally synchronized, so one store can serve many concurrent
/// explorations.
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

    // The walk-cache axis: run the placement search once per walker
    // geometry. Each variant pays its own fabric cost and simulates with
    // its own walk caches, so its points land on the shared Pareto front.
    for variant in 0..ev.variants.len() {
        ev.current = variant;
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
                for point in ev.eval_batch(&candidates).into_iter().flatten() {
                    feasible.push(point);
                }
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
    }

    let best = feasible
        .iter()
        .min_by_key(|p| p.makespan)
        .cloned()
        .ok_or(DseError::NoFeasiblePoint)?;
    // Dedup identical design points before the front (heuristics revisit);
    // the same placement under a different walk-cache geometry, fabric
    // configuration, miss depth, or pressure point is a distinct point.
    let mut unique: Vec<DsePoint> = Vec::new();
    for p in feasible {
        if !unique.iter().any(|q| {
            q.placements == p.placements
                && q.walker == p.walker
                && q.fabric == p.fabric
                && q.miss_depth == p.miss_depth
                && q.pressure == p.pressure
        }) {
            unique.push(p);
        }
    }
    let pareto = pareto_front(unique.clone());
    Ok(DseResult {
        best,
        evaluated: ev.evaluated,
        cache_hits: ev.cache_hits,
        store_hits: ev.store_hits,
        store_misses: ev.store_misses,
        feasible: unique,
        pareto,
        panics: ev.panics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{ApplicationBuilder, ArgSpec};
    use crate::flow::synthesize;
    use svmsyn_hls::builder::KernelBuilder;
    use svmsyn_hls::ir::{BinOp, CmpOp, Width};

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
                ..DseConfig::default()
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
                ..DseConfig::default()
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
    fn walk_cache_axis_explores_every_variant() {
        use svmsyn_vm::walker::WalkerConfig;
        let a = app(2, 64);
        let axis = vec![
            WalkerConfig::disabled(),
            WalkerConfig::l1_only(4),
            WalkerConfig::two_level(4, 16),
        ];
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                walker_axis: axis.clone(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        // 4 placements x 3 walker variants, every variant represented.
        assert_eq!(r.evaluated, 12);
        for w in &axis {
            assert!(
                r.feasible.iter().any(|p| p.walker == *w),
                "axis variant {w:?} missing from feasible set"
            );
        }
        assert!(axis.contains(&r.best.walker));
        // Same placement, different walker => distinct design points with
        // different fabric cost for any point that has hardware threads.
        let all_hw: Vec<_> = r
            .feasible
            .iter()
            .filter(|p| p.placements.iter().all(|pl| *pl == Placement::Hardware))
            .collect();
        assert_eq!(all_hw.len(), 3);
        assert!(all_hw[0].resources.lut < all_hw[2].resources.lut);
    }

    #[test]
    fn walk_cache_axis_memoizes_per_variant() {
        use svmsyn_vm::walker::WalkerConfig;
        let a = app(2, 64);
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Anneal { iters: 12, seed: 3 },
                sim: fast_sim(),
                walker_axis: vec![WalkerConfig::disabled(), WalkerConfig::two_level(4, 8)],
                ..DseConfig::default()
            },
        )
        .unwrap();
        // 2 variants x 4 distinct placements: everything beyond 8 unique
        // simulations must come from the memo table.
        assert!(r.evaluated > 8);
        assert!(
            r.cache_hits >= r.evaluated - 8,
            "revisits must hit the per-variant memo ({} evaluated, {} hits)",
            r.evaluated,
            r.cache_hits
        );
    }

    #[test]
    fn fabric_axis_explores_outstanding_depths() {
        use svmsyn_mem::FabricConfig;
        let a = app(2, 64);
        let axis = vec![FabricConfig::blocking(), FabricConfig::default()];
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                fabric_axis: axis.clone(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        // 4 placements x 2 fabric variants, every variant represented.
        assert_eq!(r.evaluated, 8);
        for f in &axis {
            assert!(
                r.feasible.iter().any(|p| p.fabric == *f),
                "axis variant {f:?} missing from feasible set"
            );
        }
        assert!(axis.contains(&r.best.fabric));
        // On the all-hardware placement the windowed fabric must not lose
        // to the blocking one: outstanding transactions only add overlap.
        let all_hw_makespan = |f: &FabricConfig| {
            r.feasible
                .iter()
                .filter(|p| {
                    p.fabric == *f && p.placements.iter().all(|pl| *pl == Placement::Hardware)
                })
                .map(|p| p.makespan)
                .min()
                .expect("all-hw point per variant")
        };
        assert!(all_hw_makespan(&axis[1]) <= all_hw_makespan(&axis[0]));
    }

    #[test]
    fn fabric_axis_crosses_with_walker_axis() {
        use svmsyn_mem::FabricConfig;
        let a = app(2, 64);
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                walker_axis: vec![WalkerConfig::disabled(), WalkerConfig::default()],
                fabric_axis: vec![FabricConfig::blocking(), FabricConfig::default()],
                ..DseConfig::default()
            },
        )
        .unwrap();
        // 4 placements x 2 walkers x 2 fabrics.
        assert_eq!(r.evaluated, 16);
        let distinct: std::collections::HashSet<_> = r
            .feasible
            .iter()
            .map(|p| (p.walker, p.fabric.clone()))
            .collect();
        assert_eq!(distinct.len(), 4, "every (walker, fabric) combination");
    }

    #[test]
    fn memif_axis_explores_outstanding_miss_depths() {
        let a = app(2, 64);
        let axis = vec![1u32, 4];
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                memif_axis: axis.clone(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        // 4 placements x 2 miss depths, every depth represented.
        assert_eq!(r.evaluated, 8);
        for &d in &axis {
            assert!(
                r.feasible.iter().any(|p| p.miss_depth == d),
                "axis depth {d} missing from feasible set"
            );
        }
        assert!(axis.contains(&r.best.miss_depth));
        // On the all-hardware placement the non-blocking interface must not
        // lose to the blocking one: hit-under-miss only adds overlap.
        let all_hw_makespan = |d: u32| {
            r.feasible
                .iter()
                .filter(|p| {
                    p.miss_depth == d && p.placements.iter().all(|pl| *pl == Placement::Hardware)
                })
                .map(|p| p.makespan)
                .min()
                .expect("all-hw point per depth")
        };
        assert!(all_hw_makespan(4) <= all_hw_makespan(1));
    }

    #[test]
    fn memif_axis_crosses_with_fabric_axis() {
        use svmsyn_mem::FabricConfig;
        let a = app(2, 64);
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                fabric_axis: vec![FabricConfig::blocking(), FabricConfig::default()],
                memif_axis: vec![1, 8],
                ..DseConfig::default()
            },
        )
        .unwrap();
        // 4 placements x 2 fabrics x 2 depths.
        assert_eq!(r.evaluated, 16);
        let distinct: std::collections::HashSet<_> = r
            .feasible
            .iter()
            .map(|p| (p.fabric.clone(), p.miss_depth))
            .collect();
        assert_eq!(distinct.len(), 4, "every (fabric, miss depth) combination");
    }

    #[test]
    fn pressure_axis_explores_operating_points() {
        let a = app(2, 64);
        let axis = vec![
            PressurePoint::default(),
            PressurePoint {
                frame_budget: Some(4),
                ..PressurePoint::default()
            },
        ];
        let r = explore(
            &a,
            &Platform::default(),
            &DseConfig {
                method: DseMethod::Exhaustive,
                sim: fast_sim(),
                pressure_axis: axis.clone(),
                ..DseConfig::default()
            },
        )
        .unwrap();
        // 4 placements x 2 pressure points, every point represented.
        assert_eq!(r.evaluated, 8);
        for pt in &axis {
            assert!(
                r.feasible.iter().any(|p| p.pressure == *pt),
                "axis point {pt:?} missing from feasible set"
            );
        }
        assert!(axis.contains(&r.best.pressure));
        // Starving the frame pool costs time: under the tight budget the
        // all-hardware point cannot beat its unconstrained twin.
        let all_hw_makespan = |pt: &PressurePoint| {
            r.feasible
                .iter()
                .filter(|p| {
                    p.pressure == *pt && p.placements.iter().all(|pl| *pl == Placement::Hardware)
                })
                .map(|p| p.makespan)
                .min()
                .expect("all-hw point per pressure point")
        };
        assert!(all_hw_makespan(&axis[1]) >= all_hw_makespan(&axis[0]));
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
                    ..DseConfig::default()
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

    fn store_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "svmsyn-dse-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn warm_store_serves_repeat_exploration_from_disk() {
        let a = app(2, 64);
        let root = store_root("warm");
        let cfg = DseConfig {
            method: DseMethod::Exhaustive,
            sim: fast_sim(),
            store: Some(root.clone()),
            ..DseConfig::default()
        };
        let cold = explore(&a, &Platform::default(), &cfg).unwrap();
        assert_eq!(cold.store_hits, 0);
        assert_eq!(
            cold.store_misses, 4,
            "every candidate missed the empty store"
        );

        // Fresh process simulation: a new explore (new memo) over the same
        // store must answer everything from disk, bit-identically.
        let warm = explore(&a, &Platform::default(), &cfg).unwrap();
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
        let r = explore_with_store(&a, &platform.with_miss_depth(1), &cfg, Some(&store)).unwrap();
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
            store: Some(root.clone()),
            ..DseConfig::default()
        };
        let first = explore(&a, &platform, &cfg).unwrap();
        assert_eq!(first.panics.len(), 1);
        // Only the surviving all-software evaluation was persisted; the
        // panicked candidate must stay unpublished and re-run next time.
        let second = explore(&a, &platform, &cfg).unwrap();
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
        let axis = vec![WalkerConfig::disabled(), WalkerConfig::two_level(4, 16)];
        let eligible = a.hw_eligible();
        for threads in [1, 4] {
            let r = explore(
                &a,
                &platform,
                &DseConfig {
                    method: DseMethod::Exhaustive,
                    sim: fast_sim(),
                    threads,
                    walker_axis: axis.clone(),
                    ..DseConfig::default()
                },
            )
            .unwrap();
            assert!(r.panics.is_empty(), "threads={threads}: {:?}", r.panics);
            let (mut feasible, mut infeasible) = (0, 0);
            for walker in &axis {
                let variant = platform.with_walker(*walker);
                for mask in 0..1u64 << eligible.len() {
                    let placements = placements_from_mask(&a, &eligible, mask);
                    let fresh = synthesize(&a, &variant, &placements).ok().and_then(|d| {
                        let makespan = simulate(&d, &fast_sim()).ok()?.makespan;
                        Some((d.total_resources, makespan))
                    });
                    let swept = r
                        .feasible
                        .iter()
                        .find(|p| p.walker == *walker && p.placements == placements)
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

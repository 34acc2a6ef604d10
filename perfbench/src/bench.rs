//! The four workloads: set-up, the closed measurement loop, output checks,
//! and the metrics each one reports.
//!
//! Every layer is timed from outside, around calls into its public
//! functions. The layers inside the event loop (`hwt`, `vm`, `mem`, `os`)
//! report deterministic work counts read from `SimOutcome`, plus host times
//! derived by differencing paired runs of the same design.

use std::path::{Path, PathBuf};
use std::time::Instant;

use svmsyn::dse::{explore_with_store, DseConfig, DseMethod, DseResult};
use svmsyn::flow::{synthesize, Placement, SystemDesign};
use svmsyn::platform::Platform;
use svmsyn::shard::{planned_shards, ExecMode, ShardedSim};
use svmsyn::sim::{RunProgress, Sim, SimConfig, SimError, SimOutcome};
use svmsyn_snap::Fnv1a;
use svmsyn_store::ResultStore;
use svmsyn_workloads::Workload;

use crate::gen;
use crate::metrics::Values;
use crate::trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["suite_hwsw", "pressure", "fig7_sweep", "sharded_x2"];

/// Closed-loop operations measured even when `--seconds` has run out.
const MIN_OPS: usize = 5;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Pass/fail bookkeeping for every simulation and output check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; reports and counts it as failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
        ok
    }

    fn ok<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("CHECK FAILED: {e}");
                None
            }
        }
    }
}

/// Deterministic work counts summed over the simulations of one
/// closed-loop operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub instrs: f64,
    pub hw_instrs: f64,
    pub mem_ops: f64,
    pub miss_parks: f64,
    pub hit_under_miss: f64,
    pub walks: f64,
    pub l2_walk_hits: f64,
    pub tlb_hits: f64,
    pub tlb_lookups: f64,
    pub merges: f64,
    pub inflight_cycles: f64,
    pub makespan: f64,
    pub row_hits: f64,
    pub row_accesses: f64,
    pub hw_faults: f64,
    pub major_faults: f64,
    pub reclaims: f64,
    pub shootdowns: f64,
    pub swap_ins: f64,
    pub events: f64,
    pub windows: f64,
    pub crossings: f64,
    pub barrier_wait_cycles: f64,
    pub shard_cycles: f64,
}

impl Counts {
    /// Adds one simulation's counters. A missing statistic is an error: a
    /// renamed key must not read as zero.
    fn add(&mut self, o: &SimOutcome, events: u64) -> Result<(), String> {
        let s = o.stats();
        let get = |k: &str| s.get(k).ok_or_else(|| format!("statistic {k} missing"));
        for t in &o.threads {
            let ts = t.stats();
            let instrs = ts
                .get("instrs")
                .ok_or_else(|| format!("thread {}: statistic instrs missing", t.name))?;
            self.instrs += instrs;
            if t.placement == Placement::Hardware {
                self.hw_instrs += instrs;
                self.mem_ops += ts
                    .get("mem_ops")
                    .ok_or_else(|| format!("thread {}: statistic mem_ops missing", t.name))?;
            }
            for (k, v) in ts.iter() {
                if k.ends_with("tlb.hits") {
                    self.tlb_hits += v;
                    self.tlb_lookups += v;
                } else if k.ends_with("tlb.misses") {
                    self.tlb_lookups += v;
                }
            }
        }
        self.miss_parks += get("memif.miss_parks")?;
        self.hit_under_miss += get("memif.hit_under_miss")?;
        self.walks += get("vm.walks")?;
        self.l2_walk_hits += get("vm.l2_walk_hits")?;
        self.merges += get("fabric.merges")?;
        self.inflight_cycles += get("fabric.inflight_cycles")?;
        self.makespan += o.makespan.0 as f64;
        let row_hits = get("mem.dram.row_hits")?;
        self.row_hits += row_hits;
        self.row_accesses += row_hits + get("mem.dram.row_misses")?;
        self.hw_faults += get("os.hw_faults")?;
        self.major_faults += get("pressure.major_faults")?;
        self.reclaims += get("pressure.reclaims")?;
        self.shootdowns += get("pressure.shootdowns")?;
        self.swap_ins += get("os.swap.swap_ins")?;
        self.events += events as f64;
        if let Some(sync) = &o.sync {
            self.windows += sync.windows as f64;
            self.crossings += sync.crossings as f64;
            self.barrier_wait_cycles += sync.barrier_wait_cycles as f64;
            self.shard_cycles += (sync.windows * sync.window_len * sync.shards) as f64;
        }
        Ok(())
    }

    fn put_layers(&self, v: &mut Values) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        v.set("sim.events", self.events);
        v.set("sim.makespan_cycles", self.makespan);
        v.set("hwt.instrs", self.hw_instrs);
        v.set("hwt.mem_ops", self.mem_ops);
        v.set("hwt.miss_parks", self.miss_parks);
        v.set("memif.hit_under_miss", self.hit_under_miss);
        v.set("vm.walks", self.walks);
        v.set("vm.tlb_hit_rate", ratio(self.tlb_hits, self.tlb_lookups));
        v.set("vm.l2_walk_hit_rate", ratio(self.l2_walk_hits, self.walks));
        v.set("fabric.merges", self.merges);
        v.set(
            "fabric.outstanding_mean",
            ratio(self.inflight_cycles, self.makespan),
        );
        v.set("dram.row_hit_rate", ratio(self.row_hits, self.row_accesses));
        v.set("os.hw_faults", self.hw_faults);
        v.set("os.major_faults", self.major_faults);
        v.set("os.reclaims", self.reclaims);
        v.set("os.shootdowns", self.shootdowns);
        v.set("os.swap_ins", self.swap_ins);
        v.set("shard.windows", self.windows);
        v.set("shard.crossings", self.crossings);
        v.set(
            "shard.barrier_wait_frac",
            ratio(self.barrier_wait_cycles, self.shard_cycles),
        );
    }
}

/// Digest of every `SimOutcome::stats()` entry and the makespan.
fn digest_outcome(h: &mut Fnv1a, o: &SimOutcome) {
    h.update(&o.makespan.0.to_le_bytes());
    for (k, v) in o.stats().iter() {
        h.update(k.as_bytes());
        h.update(&v.to_bits().to_le_bytes());
    }
}

/// Everything a run carries: the recorder, the checks, and totals over the
/// traced simulations.
pub struct Ctx {
    pub tr: Tracer,
    pub checks: Checks,
    traced_events: f64,
    traced_instrs: f64,
}

impl Ctx {
    pub fn new() -> Ctx {
        Ctx {
            tr: Tracer::new(),
            checks: Checks::default(),
            traced_events: 0.0,
            traced_instrs: 0.0,
        }
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new()
    }
}

enum Engine<'d> {
    Serial(Sim<'d>),
    Sharded(ShardedSim<'d>),
}

impl Engine<'_> {
    fn run(&mut self) -> Result<RunProgress, SimError> {
        match self {
            Engine::Serial(s) => s.run(),
            Engine::Sharded(s) => s.run(),
        }
    }

    fn events_fired(&self) -> u64 {
        match self {
            Engine::Serial(s) => s.events_fired(),
            Engine::Sharded(s) => s.events_fired(),
        }
    }

    fn finish(self) -> Result<SimOutcome, SimError> {
        match self {
            Engine::Serial(s) => s.finish(),
            Engine::Sharded(s) => s.finish(),
        }
    }
}

/// One verified simulation.
struct Run {
    outcome: SimOutcome,
    /// Host seconds of new + run + finish + stats + verify.
    secs: f64,
    /// Host seconds of new + run + finish: the part a DSE evaluation pays.
    sim_secs: f64,
    events: u64,
}

/// Simulates `design` through the public lifecycle calls, each in its own
/// span, and verifies the output.
fn run_sim(
    ctx: &mut Ctx,
    w: &Workload,
    design: &SystemDesign,
    cfg: &SimConfig,
    sharded: bool,
) -> Result<Run, String> {
    let mark = ctx.tr.depth();
    let tr = &mut ctx.tr;
    let start = Instant::now();
    let result = (|| -> Result<(SimOutcome, f64, u64), String> {
        let top = tr.begin("sim");
        let span = tr.begin("sim.new");
        let mut engine = if sharded {
            Engine::Sharded(
                ShardedSim::new(design, cfg, ExecMode::Parallel).map_err(|e| e.to_string())?,
            )
        } else {
            Engine::Serial(Sim::new(design, cfg).map_err(|e| e.to_string())?)
        };
        tr.end(span);
        let span = tr.begin("sim.run");
        while !matches!(
            engine.run().map_err(|e| e.to_string())?,
            RunProgress::Complete
        ) {}
        tr.end(span);
        let events = engine.events_fired();
        let span = tr.begin("sim.finish");
        let outcome = engine.finish().map_err(|e| e.to_string())?;
        tr.end(span);
        let sim_secs = start.elapsed().as_secs_f64();
        let span = tr.begin("sim.stats");
        std::hint::black_box(outcome.stats().len());
        tr.end(span);
        let span = tr.begin("workloads.verify");
        w.verify(&outcome)?;
        tr.end(span);
        tr.end(top);
        Ok((outcome, sim_secs, events))
    })();
    let secs = start.elapsed().as_secs_f64();
    ctx.tr.unwind(mark);
    let (outcome, sim_secs, events) = result.map_err(|e| format!("{}: {e}", w.name))?;
    if ctx.tr.enabled() {
        ctx.traced_events += events as f64;
        ctx.traced_instrs += outcome
            .threads
            .iter()
            .map(|t| t.stats().get("instrs").unwrap_or(0.0))
            .sum::<f64>();
    }
    Ok(Run {
        outcome,
        secs,
        sim_secs,
        events,
    })
}

/// One closed-loop operation's measurement.
#[derive(Debug, Clone)]
struct Sample {
    /// Host seconds of the timed part.
    secs: f64,
    /// Work the timed part simulated.
    counts: Counts,
    digest: u64,
}

/// Samples from the closed loop, split by whether the tracer was on.
#[derive(Debug, Default)]
struct Samples {
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    /// The untimed warm-up operation: the reference for determinism.
    reference: Option<Sample>,
    /// Host seconds of the first set-up, then one sample after every
    /// operation, so the median spans the whole run.
    setup_secs: Vec<f64>,
}

/// Runs `op` once untimed, then back to back until `seconds` have passed
/// (and at least [`MIN_OPS`] times). Each operation starts only after the
/// previous one returned and was checked. In a traced run every second
/// operation records spans, so the traced and untraced medians give the
/// tracing overhead. Every operation must reproduce the warm-up's counts
/// and statistics digest. After each operation the set-up is repeated
/// (untimed for the operation, timed for `setup_s`); `setup_s` is how long
/// the first set-up took.
fn closed_loop(
    ctx: &mut Ctx,
    args: &Args,
    setup_s: f64,
    mut setup: impl FnMut(&mut Ctx),
    mut op: impl FnMut(&mut Ctx) -> Option<Sample>,
) -> Samples {
    let mut s = Samples {
        setup_secs: vec![setup_s],
        ..Samples::default()
    };
    ctx.tr.set_enabled(false);
    s.reference = op(ctx);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline || i < MIN_OPS {
        let traced = args.trace && i % 2 == 1;
        ctx.tr.set_enabled(traced);
        ctx.tr.next_op();
        let sample = op(ctx);
        i += 1;
        // Each set-up sample is the best of three back-to-back set-ups,
        // which keeps one-off stalls (a page-fault burst, a preemption) out
        // of the median.
        let span = ctx.tr.begin("setup");
        let secs = (0..3)
            .map(|_| timed(|| setup(ctx)).1)
            .fold(f64::INFINITY, f64::min);
        ctx.tr.end(span);
        ctx.tr.set_enabled(false);
        s.setup_secs.push(secs);
        let Some(sample) = sample else { continue };
        if let Some(r) = &s.reference {
            ctx.checks.check(
                sample.digest == r.digest && sample.counts == r.counts,
                || {
                    format!(
                        "operation {i} differs from the warm-up: simulation is not deterministic"
                    )
                },
            );
        }
        if traced {
            s.traced.push(sample);
        } else {
            s.untraced.push(sample);
        }
    }
    s
}

pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Calls a `workloads` generator inside its span.
fn generate<T>(ctx: &mut Ctx, f: impl FnOnce() -> T) -> T {
    let span = ctx.tr.begin("workloads.generate");
    let out = f();
    ctx.tr.end(span);
    out
}

/// Runs `f` and returns its result with the host seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn synth(
    ctx: &mut Ctx,
    w: &Workload,
    platform: &Platform,
    p: &[Placement],
) -> Result<SystemDesign, String> {
    let span = ctx.tr.begin("flow.synthesize");
    let d = synthesize(&w.app, platform, p).map_err(|e| format!("{}: synthesis: {e}", w.name));
    ctx.tr.end(span);
    d
}

fn all(w: &Workload, p: Placement) -> Vec<Placement> {
    vec![p; w.app.threads.len()]
}

/// Times `synthesize` over every `(workload, placement)` pair and
/// `fsmd::compile` over every hardware thread's kernel, from outside, with
/// the tracer on.
fn probe_synthesis(
    ctx: &mut Ctx,
    designs: &[(&Workload, &Platform, Vec<Placement>)],
    v: &mut Values,
) {
    ctx.tr.set_enabled(true);
    ctx.tr.next_op();
    for _ in 0..3 {
        for (w, platform, p) in designs {
            let _ = synth(ctx, w, platform, p);
            for (spec, place) in w.app.threads.iter().zip(p) {
                if *place == Placement::Hardware {
                    let span = ctx.tr.begin("hls.compile");
                    std::hint::black_box(svmsyn_hls::fsmd::compile(&spec.kernel, &platform.hls));
                    ctx.tr.end(span);
                }
            }
        }
    }
    ctx.tr.set_enabled(false);
    v.set(
        "flow.synthesize_ms",
        ctx.tr.mean_ns("flow.synthesize") / 1e6,
    );
    v.set("hls.compile_ms", ctx.tr.mean_ns("hls.compile") / 1e6);
}

/// Serial simulations of a list of designs as one closed-loop operation.
fn sim_op(
    ctx: &mut Ctx,
    designs: &[(&Workload, SystemDesign)],
    cfg: &SimConfig,
    mut check: impl FnMut(&mut Checks, &Workload, &SimOutcome),
) -> Option<Sample> {
    let mut sample = Sample {
        secs: 0.0,
        counts: Counts::default(),
        digest: 0,
    };
    let mut h = Fnv1a::new();
    let mut ok = true;
    for (w, d) in designs {
        let run = run_sim(ctx, w, d, cfg, false);
        let Some(run) = ctx.checks.ok(run) else {
            ok = false;
            continue;
        };
        sample.secs += run.secs;
        ok &= ctx
            .checks
            .ok(sample.counts.add(&run.outcome, run.events))
            .is_some();
        check(&mut ctx.checks, w, &run.outcome);
        digest_outcome(&mut h, &run.outcome);
    }
    sample.digest = h.finish();
    ok.then_some(sample)
}

/// What a workload hands back to `main`.
pub struct Report {
    pub values: Values,
    /// Digest of every simulated statistic of one operation.
    pub fingerprint: u64,
    /// Closed-loop operations measured (warm-up excluded).
    pub ops: usize,
    /// Host milliseconds of each untraced operation.
    pub op_ms: Vec<f64>,
}

/// Fills the end-to-end metrics from the untraced samples, the per-layer
/// metrics shared by every workload from the traced ones.
///
/// Operation times are summarized by the fastest operation: every
/// operation does identical work, and on a shared host the slower ones
/// measure the neighbours (the quantiles are printed alongside).
fn common_metrics(ctx: &Ctx, s: &Samples, v: &mut Values) {
    let secs: Vec<f64> = s.untraced.iter().map(|x| x.secs).collect();
    let best = quantile(&secs, 0.0);
    let instrs = s.reference.as_ref().map_or(0.0, |r| r.counts.instrs);
    v.set(
        "sim_minstr_per_s",
        if best > 0.0 { instrs / best / 1e6 } else { 0.0 },
    );
    v.set("op_min_ms", best * 1e3);
    v.set("setup_s", median(&s.setup_secs));

    let traced: Vec<f64> = s.traced.iter().map(|x| x.secs).collect();
    v.set(
        "trace.overhead_frac",
        if traced.is_empty() || secs.is_empty() {
            0.0
        } else {
            median(&traced) / median(&secs) - 1.0
        },
    );
    v.set(
        "workloads.generate_ms",
        ctx.tr.mean_ns("workloads.generate") / 1e6,
    );
    v.set("sim.new_us", ctx.tr.mean_ns("sim.new") / 1e3);
    v.set("sim.run_ms", ctx.tr.mean_ns("sim.run") / 1e6);
    v.set("sim.finish_us", ctx.tr.mean_ns("sim.finish") / 1e3);
    v.set("sim.stats_us", ctx.tr.mean_ns("sim.stats") / 1e3);
    v.set(
        "workloads.verify_us",
        ctx.tr.mean_ns("workloads.verify") / 1e3,
    );
    let run_ns: f64 = ctx
        .tr
        .spans()
        .iter()
        .filter(|x| x.name == "sim.run")
        .map(|x| x.dur_ns() as f64)
        .sum();
    let per = |n: f64| if n > 0.0 { run_ns / n } else { 0.0 };
    v.set("sim.host_ns_per_event", per(ctx.traced_events));
    v.set("sim.host_ns_per_instr", per(ctx.traced_instrs));
    if let Some(r) = &s.reference {
        r.counts.put_layers(v);
    }
    // Layers a workload does not exercise read 0; the workload overwrites
    // the ones it does.
    for name in [
        "os.fault_path_ms",
        "shard.host_us_per_window",
        "shard.overhead_ms",
        "shard.err_vs_serial",
        "dse.explore_ms",
        "dse.points_per_s",
        "dse.evaluated",
        "dse.memo_hits",
        "dse.synthesize_ms_sum",
        "dse.simulate_ms_sum",
        "dse.pool_efficiency",
        "store.open_ms",
        "store.published",
        "store.bytes_written",
        "store.publish_ms",
        "store.hits",
        "store.warm_sweep_ms",
    ] {
        v.set(name, 0.0);
    }
}

/// Runs `a` and `b` alternately `reps` times each (untraced) and returns
/// the difference of their median host times in milliseconds.
fn paired_diff_ms(
    ctx: &mut Ctx,
    reps: usize,
    mut a: impl FnMut(&mut Ctx) -> Option<f64>,
    mut b: impl FnMut(&mut Ctx) -> Option<f64>,
) -> f64 {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        ta.extend(a(ctx));
        tb.extend(b(ctx));
    }
    (median(&ta) - median(&tb)) * 1e3
}

// ---------------------------------------------------------------------------
// suite_hwsw
// ---------------------------------------------------------------------------

/// Synthesizes every workload at each of `kinds` (all threads placed
/// alike). Returns `(workload index, design)` pairs.
fn synth_all(
    ctx: &mut Ctx,
    ws: &[Workload],
    platform: &Platform,
    kinds: &[Placement],
) -> Vec<(usize, SystemDesign)> {
    let mut designs = Vec::new();
    for (i, w) in ws.iter().enumerate() {
        for &p in kinds {
            let d = synth(ctx, w, platform, &all(w, p));
            designs.extend(ctx.checks.ok(d).map(|d| (i, d)));
        }
    }
    designs
}

const HW_SW: &[Placement] = &[Placement::Hardware, Placement::Software];
const HW: &[Placement] = &[Placement::Hardware];

fn suite_hwsw(ctx: &mut Ctx, args: &Args) -> Report {
    let platform = Platform::default();
    let cfg = SimConfig::default();
    let setup = |ctx: &mut Ctx| {
        let suite = generate(ctx, || gen::suite(args.seed));
        let designs = synth_all(ctx, &suite, &platform, HW_SW);
        (suite, designs)
    };
    let ((suite, designs), setup_s) = timed(|| setup(ctx));
    let pairs: Vec<(&Workload, SystemDesign)> =
        designs.into_iter().map(|(i, d)| (&suite[i], d)).collect();
    let samples = closed_loop(
        ctx,
        args,
        setup_s,
        |ctx| drop(setup(ctx)),
        |ctx| sim_op(ctx, &pairs, &cfg, |_, _, _| {}),
    );
    let mut v = Values::default();
    common_metrics(ctx, &samples, &mut v);
    if args.trace {
        let list: Vec<_> = pairs
            .iter()
            .map(|(w, d)| (*w, &platform, d.placements.clone()))
            .collect();
        probe_synthesis(ctx, &list, &mut v);
    }
    finish(samples, v)
}

fn finish(samples: Samples, values: Values) -> Report {
    Report {
        values,
        fingerprint: samples.reference.as_ref().map_or(0, |r| r.digest),
        ops: samples.untraced.len() + samples.traced.len(),
        op_ms: samples.untraced.iter().map(|s| s.secs * 1e3).collect(),
    }
}

// ---------------------------------------------------------------------------
// pressure
// ---------------------------------------------------------------------------

fn pressure(ctx: &mut Ctx, args: &Args) -> Report {
    let platform = gen::pressure_platform();
    let cfg = SimConfig::default();
    let setup = |ctx: &mut Ctx| {
        let ws = generate(ctx, || gen::pressure(args.seed));
        let designs = synth_all(ctx, &ws, &platform, HW);
        (ws, designs)
    };
    let ((ws, designs), setup_s) = timed(|| setup(ctx));
    let pairs: Vec<(&Workload, SystemDesign)> =
        designs.into_iter().map(|(i, d)| (&ws[i], d)).collect();
    let reclaim_fired = |c: &mut Checks, w: &Workload, o: &SimOutcome| {
        let reclaims = o.stats().get("pressure.reclaims").unwrap_or(0.0);
        c.check(reclaims > 0.0, || {
            format!("{}: the frame budget never forced a reclaim", w.name)
        });
    };
    let samples = closed_loop(
        ctx,
        args,
        setup_s,
        |ctx| drop(setup(ctx)),
        |ctx| sim_op(ctx, &pairs, &cfg, reclaim_fired),
    );
    let mut v = Values::default();
    common_metrics(ctx, &samples, &mut v);
    if args.trace {
        // The same designs without the frame budget: the host-time
        // difference is the fault path (reclaim, swap, shootdowns).
        let free = Platform::default();
        let unbudgeted: Vec<(&Workload, SystemDesign)> = ws
            .iter()
            .filter_map(|w| {
                synthesize(&w.app, &free, &all(w, Placement::Hardware))
                    .ok()
                    .map(|d| (w, d))
            })
            .collect();
        let budget_instrs = samples.reference.as_ref().map_or(0.0, |r| r.counts.instrs);
        let mut free_instrs = 0.0;
        let diff = paired_diff_ms(
            ctx,
            5,
            |ctx| sim_op(ctx, &pairs, &cfg, |_, _, _| {}).map(|s| s.secs),
            |ctx| {
                sim_op(ctx, &unbudgeted, &cfg, |_, _, _| {}).map(|s| {
                    free_instrs = s.counts.instrs;
                    s.secs
                })
            },
        );
        ctx.checks.check(free_instrs == budget_instrs, || {
            format!("pressure changed the instruction count: {budget_instrs} vs {free_instrs}")
        });
        v.set("os.fault_path_ms", diff);
        let list: Vec<_> = pairs
            .iter()
            .map(|(w, d)| (*w, &platform, d.placements.clone()))
            .collect();
        probe_synthesis(ctx, &list, &mut v);
    }
    finish(samples, v)
}

// ---------------------------------------------------------------------------
// sharded_x2
// ---------------------------------------------------------------------------

fn buffers(o: &SimOutcome, w: &Workload) -> Vec<Vec<u8>> {
    w.app
        .buffers
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut buf = vec![0u8; b.len as usize];
            o.read_buffer(i, &mut buf);
            buf
        })
        .collect()
}

fn sharded_x2(ctx: &mut Ctx, args: &Args) -> Report {
    let platform = Platform::default();
    let serial_cfg = SimConfig {
        max_events: 50_000_000,
        ..SimConfig::default()
    };
    let cfg = SimConfig {
        shards: 2,
        ..serial_cfg
    };
    let setup = |ctx: &mut Ctx| {
        let w = generate(ctx, || gen::chase_stream_x2(args.seed));
        let d = synth(ctx, &w, &platform, &all(&w, Placement::Hardware));
        (w, ctx.checks.ok(d))
    };
    let ((w, design), setup_s) = timed(|| setup(ctx));
    let mut v = Values::default();
    let Some(design) = design else {
        return finish(Samples::default(), v);
    };
    ctx.checks.check(planned_shards(&design, &cfg) == 2, || {
        "the planner did not grant 2 shards".to_string()
    });
    // The serial engine's answer, once: the reference for output bytes and
    // simulated time.
    let serial = run_sim(ctx, &w, &design, &serial_cfg, false);
    let serial = ctx.checks.ok(serial);
    let serial_bytes = serial.as_ref().map(|r| buffers(&r.outcome, &w));
    let serial_makespan = serial.as_ref().map_or(0.0, |r| r.outcome.makespan.0 as f64);
    drop(serial);
    let samples = closed_loop(
        ctx,
        args,
        setup_s,
        |ctx| drop(setup(ctx)),
        |ctx| {
            let run = run_sim(ctx, &w, &design, &cfg, true);
            let run = ctx.checks.ok(run)?;
            let mut counts = Counts::default();
            ctx.checks.ok(counts.add(&run.outcome, run.events))?;
            ctx.checks.check(
                serial_bytes.as_ref() == Some(&buffers(&run.outcome, &w)),
                || "sharded output bytes differ from the serial engine's".to_string(),
            );
            let mut h = Fnv1a::new();
            digest_outcome(&mut h, &run.outcome);
            Some(Sample {
                secs: run.secs,
                counts,
                digest: h.finish(),
            })
        },
    );
    common_metrics(ctx, &samples, &mut v);
    let sharded_makespan = samples
        .reference
        .as_ref()
        .map_or(0.0, |r| r.counts.makespan);
    v.set(
        "shard.err_vs_serial",
        if serial_makespan > 0.0 {
            (sharded_makespan - serial_makespan).abs() / serial_makespan
        } else {
            0.0
        },
    );
    if args.trace {
        let run_us = ctx.tr.mean_ns("sim.run") / 1e3;
        let windows = samples.reference.as_ref().map_or(0.0, |r| r.counts.windows);
        v.set(
            "shard.host_us_per_window",
            if windows > 0.0 { run_us / windows } else { 0.0 },
        );
        let overhead = paired_diff_ms(
            ctx,
            7,
            |ctx| run_sim(ctx, &w, &design, &cfg, true).ok().map(|r| r.secs),
            |ctx| {
                run_sim(ctx, &w, &design, &serial_cfg, false)
                    .ok()
                    .map(|r| r.secs)
            },
        );
        v.set("shard.overhead_ms", overhead);
        probe_synthesis(
            ctx,
            &[(&w, &platform, all(&w, Placement::Hardware))],
            &mut v,
        );
    }
    finish(samples, v)
}

// ---------------------------------------------------------------------------
// fig7_sweep
// ---------------------------------------------------------------------------

/// A fresh, empty store directory under `out`.
fn fresh_root(out: &Path, tag: &str) -> PathBuf {
    let root = out.join(format!("store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn open_store(ctx: &mut Ctx, root: &Path) -> Result<ResultStore, String> {
    let span = ctx.tr.begin("store.open");
    let s = ResultStore::open(root).map_err(|e| format!("store open: {e}"));
    ctx.tr.end(span);
    s
}

fn explore(
    ctx: &mut Ctx,
    name: &'static str,
    w: &Workload,
    platform: &Platform,
    cfg: &DseConfig,
    store: Option<&ResultStore>,
) -> Result<(DseResult, f64), String> {
    let span = ctx.tr.begin(name);
    let (r, secs) = timed(|| explore_with_store(&w.app, platform, cfg, store));
    ctx.tr.end(span);
    r.map(|r| (r, secs)).map_err(|e| format!("{name}: {e}"))
}

fn mask(p: &[Placement]) -> u64 {
    p.iter()
        .enumerate()
        .filter(|(_, x)| **x == Placement::Hardware)
        .map(|(t, _)| 1u64 << t)
        .sum()
}

/// Every placement of `threads` threads, in mask order.
fn all_placements(threads: usize) -> Vec<Vec<Placement>> {
    (0..1u64 << threads)
        .map(|m| {
            (0..threads)
                .map(|t| {
                    if m >> t & 1 == 1 {
                        Placement::Hardware
                    } else {
                        Placement::Software
                    }
                })
                .collect()
        })
        .collect()
}

/// `(placement mask, makespan)` of a sweep's feasible points, by mask.
fn points(r: &DseResult) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = r
        .feasible
        .iter()
        .map(|p| (mask(&p.placements), p.makespan.0))
        .collect();
    v.sort_unstable();
    v
}

/// On-disk sweep pairs per run of `fig7_sweep`.
const STORE_LEGS: usize = 5;

/// Figures of the on-disk legs.
#[derive(Default)]
struct StoreLeg {
    published: f64,
    bytes_written: f64,
    warm_hits: f64,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

/// The sweep against a fresh on-disk store (simulate and publish), then a
/// warm re-sweep through a fresh handle over the same root (store reads).
/// Both must reproduce the in-memory sweep.
fn store_legs(
    ctx: &mut Ctx,
    root: &Path,
    w: &Workload,
    platform: &Platform,
    dse: &DseConfig,
    expect: &DseResult,
    leg: &mut StoreLeg,
) -> Option<()> {
    let store = open_store(ctx, root);
    let store = ctx.checks.ok(store)?;
    let cold = explore(ctx, "dse.store_explore", w, platform, dse, Some(&store));
    let (cold, cold_secs) = ctx.checks.ok(cold)?;
    ctx.checks.check(cold.store_hits == 0, || {
        "cold store sweep started warm".to_string()
    });
    ctx.checks.check(points(&cold) == points(expect), || {
        "the sweep against a store differs from the in-memory sweep".to_string()
    });
    let st = store.stats();
    drop(store);
    let store = open_store(ctx, root);
    let store = ctx.checks.ok(store)?;
    let warm = explore(ctx, "dse.warm_explore", w, platform, dse, Some(&store));
    let (warm, warm_secs) = ctx.checks.ok(warm)?;
    ctx.checks.check(warm.store_misses == 0, || {
        format!("warm re-sweep missed the store {} times", warm.store_misses)
    });
    ctx.checks.check(warm.best == cold.best, || {
        "warm re-sweep found a different best point".to_string()
    });
    leg.published = st.published as f64;
    leg.bytes_written = st.bytes_written as f64;
    leg.warm_hits = warm.store_hits as f64;
    leg.cold_ms.push(cold_secs * 1e3);
    leg.warm_ms.push(warm_secs * 1e3);
    Some(())
}

/// The timed operation is the in-memory exhaustive sweep (synthesis and
/// simulation of every point on the worker pool). The on-disk legs run
/// after the timed loop, paired with in-memory sweeps: their `fsync`s on a
/// shared disk spread run-to-run times by 8-22% (and their write-back slows
/// whatever runs next), so publishing is reported as the per-layer
/// difference `store.publish_ms` rather than in the end-to-end figures.
fn fig7_sweep(ctx: &mut Ctx, args: &Args, out: &Path) -> Report {
    let platform = gen::fig7_platform();
    let workers = svmsyn::host_cores().min(2);
    let dse = DseConfig {
        method: DseMethod::Exhaustive,
        sim: SimConfig {
            quantum: 50_000,
            ..SimConfig::default()
        },
        threads: workers,
        ..DseConfig::default()
    };
    // Input generation and opening a store (empty, never written).
    let setup_root = fresh_root(out, "setup");
    let setup = |ctx: &mut Ctx| {
        let w = generate(ctx, || gen::fig7_mixed(args.seed));
        let store = open_store(ctx, &setup_root);
        ctx.checks.ok(store);
        w
    };
    let (w, setup_s) = timed(|| setup(ctx));

    let mut sweep: Option<DseResult> = None;
    let samples = closed_loop(
        ctx,
        args,
        setup_s,
        |ctx| drop(setup(ctx)),
        |ctx| {
            let mem = explore(ctx, "dse.explore", &w, &platform, &dse, None);
            let (mem, secs) = ctx.checks.ok(mem)?;
            ctx.checks.check(mem.panics.is_empty(), || {
                format!("sweep: {} candidate evaluations panicked", mem.panics.len())
            });
            let mut h = Fnv1a::new();
            for (m, makespan) in points(&mem) {
                h.update(&m.to_le_bytes());
                h.update(&makespan.to_le_bytes());
            }
            let digest = h.finish();
            sweep = Some(mem);
            Some(Sample {
                secs,
                counts: Counts::default(),
                digest,
            })
        },
    );
    let _ = std::fs::remove_dir_all(&setup_root);

    // On-disk legs, each paired with an in-memory sweep.
    let mut leg = StoreLeg::default();
    let mut mem_ms = Vec::new();
    if let Some(expect) = &sweep {
        ctx.tr.set_enabled(args.trace);
        ctx.tr.next_op();
        for n in 0..STORE_LEGS {
            let root = fresh_root(out, &n.to_string());
            store_legs(ctx, &root, &w, &platform, &dse, expect, &mut leg);
            let _ = std::fs::remove_dir_all(&root);
            if let Ok((_, secs)) = explore(ctx, "dse.explore", &w, &platform, &dse, None) {
                mem_ms.push(secs * 1e3);
            }
        }
        ctx.tr.set_enabled(false);
    }

    // Replay every candidate on this thread, outside `explore`: times
    // synthesis and simulation separately, verifies each feasible point's
    // output, and counts the sweep's simulated instructions.
    let mut v = Values::default();
    let expect: Vec<(u64, u64)> = sweep.as_ref().map(points).unwrap_or_default();
    ctx.tr.set_enabled(args.trace);
    ctx.tr.next_op();
    let (mut synth_s, mut sim_s) = (0.0, 0.0);
    let mut replay = Counts::default();
    let mut h = Fnv1a::new();
    let mut got = Vec::new();
    for p in all_placements(w.app.threads.len()) {
        let (design, secs) = timed(|| synth(ctx, &w, &platform, &p));
        synth_s += secs;
        // Over-budget and too-many-threads placements are infeasible, as in
        // the sweep.
        let Ok(design) = design else { continue };
        let run = run_sim(ctx, &w, &design, &dse.sim, false);
        let Some(run) = ctx.checks.ok(run) else {
            continue;
        };
        sim_s += run.sim_secs;
        ctx.checks.ok(replay.add(&run.outcome, run.events));
        digest_outcome(&mut h, &run.outcome);
        got.push((mask(&p), run.outcome.makespan.0));
    }
    ctx.tr.set_enabled(false);
    ctx.checks.check(got == expect, || {
        format!(
            "replaying the sweep's points on one thread gave {} points, the sweep {}, or their makespans differ",
            got.len(),
            expect.len()
        )
    });

    let samples = Samples {
        reference: samples.reference.map(|mut r| {
            r.counts = replay;
            r.digest ^= h.finish();
            r
        }),
        ..samples
    };
    common_metrics(ctx, &samples, &mut v);
    let secs: Vec<f64> = samples
        .untraced
        .iter()
        .chain(&samples.traced)
        .map(|s| s.secs)
        .collect();
    let explore_ms = median(&secs) * 1e3;
    let evaluated = sweep.as_ref().map_or(0.0, |r| r.evaluated as f64);
    let per_ms = |x: f64| {
        if explore_ms > 0.0 {
            x / explore_ms
        } else {
            0.0
        }
    };
    v.set("dse.explore_ms", explore_ms);
    v.set("dse.points_per_s", per_ms(evaluated) * 1e3);
    v.set("dse.evaluated", evaluated);
    v.set(
        "dse.memo_hits",
        sweep.as_ref().map_or(0.0, |r| r.cache_hits as f64),
    );
    v.set("dse.synthesize_ms_sum", synth_s * 1e3);
    v.set("dse.simulate_ms_sum", sim_s * 1e3);
    v.set(
        "dse.pool_efficiency",
        per_ms((synth_s + sim_s) * 1e3) / workers as f64,
    );
    v.set("store.open_ms", ctx.tr.mean_ns("store.open") / 1e6);
    v.set("store.published", leg.published);
    v.set("store.bytes_written", leg.bytes_written);
    v.set("store.publish_ms", median(&leg.cold_ms) - median(&mem_ms));
    v.set("store.hits", leg.warm_hits);
    v.set("store.warm_sweep_ms", median(&leg.warm_ms));
    if args.trace {
        let list: Vec<_> = all_placements(w.app.threads.len())
            .into_iter()
            .map(|p| (&w, &platform, p))
            .collect();
        probe_synthesis(ctx, &list, &mut v);
    }
    finish(samples, v)
}

/// Host memory high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload. `out` is a scratch directory for result stores.
pub fn run(ctx: &mut Ctx, args: &Args, out: &Path) -> Option<Report> {
    let mut report = match args.workload.as_str() {
        "suite_hwsw" => suite_hwsw(ctx, args),
        "pressure" => pressure(ctx, args),
        "fig7_sweep" => fig7_sweep(ctx, args, out),
        "sharded_x2" => sharded_x2(ctx, args),
        _ => return None,
    };
    report.values.set("peak_rss_mb", peak_rss_mb());
    Some(report)
}

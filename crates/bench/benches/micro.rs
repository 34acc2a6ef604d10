//! Micro-benchmarks over the hot paths of the stack, self-hosted (the build
//! environment has no crates.io access, so no criterion): scheduler
//! event-throughput (timing wheel vs. the retained heap reference), TLB
//! lookups, page-table walks, HLS compilation, a full-system run, and the
//! serial-vs-parallel DSE sweep.
//!
//! Run with `cargo bench --bench micro`. Results are printed as a table and
//! written to `BENCH_baseline.json` at the workspace root so future changes
//! have a perf trajectory to compare against.
//!
//! `cargo bench --bench micro -- --smoke` runs every benchmark at a fraction
//! of the iteration count and does *not* write the baseline: a CI-friendly
//! "does the harness still run" check, not a measurement.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use svmsyn::dse::{explore, explore_with_store, DseConfig, DseMethod, DseResult};
use svmsyn::platform::Platform;
use svmsyn::sim::{simulate, Sim, SimConfig};
use svmsyn_bench::{hw_design, run_checked};
use svmsyn_hls::decode::DecodedKernel;
use svmsyn_hls::fsmd::{compile, HlsConfig};
use svmsyn_hls::ir::Width;
use svmsyn_hls::resource::FuBudget;
use svmsyn_hls::sched::list_schedule;
use svmsyn_hwt::memif::{Memif, MemifConfig};
use svmsyn_hwt::thread::{HwStep, HwThread, HwThreadConfig};
use svmsyn_mem::fabric::two_master_stream_cycles;
use svmsyn_mem::{FabricConfig, FabricPort, MasterId, MemConfig, MemorySystem, PhysAddr, VirtAddr};
use svmsyn_sim::{Cycle, HeapScheduler, Scheduler, Xoshiro256ss};
use svmsyn_store::ResultStore;
use svmsyn_vm::pte::{DirEntry, Pte, PteFlags};
use svmsyn_vm::tlb::{Asid, Replacement, Tlb, TlbConfig};
use svmsyn_vm::walker::{PageTableWalker, WalkerConfig};
use svmsyn_workloads::streaming::vecadd;
use svmsyn_workloads::Workload;

/// One benchmark result destined for the JSON baseline.
struct Result {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn time<F: FnMut()>(mut f: F) -> f64 {
    // One untimed warm-up pass, then the measured pass.
    f();
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Scheduler throughput: the tentpole comparison.
//
// Identical workload on both engines: K events stay in flight; each event,
// when fired, advances a shared LCG and reschedules itself at a pseudo-random
// near-future delay, until N total events have fired. Every closure captures
// nothing (fn items), so the wheel runs fully inline/slab-resident while the
// heap pays its per-event Box + sift — exactly the retired engine's cost.
// ---------------------------------------------------------------------------

struct SchedModel {
    fired: u64,
    limit: u64,
    lcg: u64,
}

impl SchedModel {
    fn next_delay(&mut self) -> u64 {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.lcg >> 33) % 1000
    }
}

const SCHED_DEPTH: u64 = 4096;

fn wheel_tick(m: &mut SchedModel, s: &mut Scheduler<SchedModel>) {
    m.fired += 1;
    if m.fired + SCHED_DEPTH <= m.limit {
        let d = m.next_delay();
        s.schedule_in(Cycle(d), wheel_tick);
    }
}

fn heap_tick(m: &mut SchedModel, s: &mut HeapScheduler<SchedModel>) {
    m.fired += 1;
    if m.fired + SCHED_DEPTH <= m.limit {
        let d = m.next_delay();
        s.schedule_in(Cycle(d), heap_tick);
    }
}

fn bench_scheduler_wheel(events: u64) -> f64 {
    let secs = time(|| {
        let mut model = SchedModel {
            fired: 0,
            limit: events,
            lcg: 0x1234_5678,
        };
        let mut s: Scheduler<SchedModel> = Scheduler::with_capacity(SCHED_DEPTH as usize);
        for i in 0..SCHED_DEPTH {
            s.schedule_at(Cycle(i % 997), wheel_tick);
        }
        s.run(&mut model);
        assert_eq!(model.fired, events);
        black_box(s.now());
    });
    events as f64 / secs
}

fn bench_scheduler_heap(events: u64) -> f64 {
    let secs = time(|| {
        let mut model = SchedModel {
            fired: 0,
            limit: events,
            lcg: 0x1234_5678,
        };
        let mut s: HeapScheduler<SchedModel> = HeapScheduler::new();
        for i in 0..SCHED_DEPTH {
            s.schedule_at(Cycle(i % 997), heap_tick);
        }
        s.run(&mut model);
        assert_eq!(model.fired, events);
        black_box(s.now());
    });
    events as f64 / secs
}

// ---------------------------------------------------------------------------
// TLB lookup throughput (flat-array path), mixed hits and misses.
// ---------------------------------------------------------------------------

fn bench_tlb(policy: Replacement, lookups: u64) -> f64 {
    let secs = time(|| {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 64,
            ways: 4,
            replacement: policy,
            hit_cycles: 1,
        });
        for vpn in 0..64u64 {
            tlb.insert(Asid(1), vpn, vpn + 100, PteFlags::default());
        }
        let mut vpn = 0u64;
        for _ in 0..lookups {
            vpn = (vpn + 7) % 96; // mix of hits and misses
            black_box(tlb.lookup(Asid(1), vpn));
        }
        black_box(tlb.occupancy());
    });
    lookups as f64 / secs
}

// ---------------------------------------------------------------------------
// L1 cache access throughput (flat set-major array path): a strided sweep
// larger than the cache, mixing hits within lines, misses, and dirty
// evictions.
// ---------------------------------------------------------------------------

fn bench_cache_access(accesses: u64) -> f64 {
    use svmsyn_mem::cache::{CacheConfig, L1Cache};
    let secs = time(|| {
        let mut cache = L1Cache::new(CacheConfig::default());
        let mut addr = 0u64;
        for i in 0..accesses {
            // 20-byte stride wraps a 64 KiB window (2x the cache) so reuse
            // and eviction both happen; every 4th access dirties the line.
            addr = (addr + 20) & 0xFFFF;
            black_box(cache.access(PhysAddr(addr), i % 4 == 0));
        }
        black_box(cache.hit_rate());
    });
    accesses as f64 / secs
}

// ---------------------------------------------------------------------------
// Page-table walks (two dependent timed bus reads + ring walk cache).
// ---------------------------------------------------------------------------

fn setup_mapped_memory() -> (MemorySystem, PhysAddr) {
    let mut mem = MemorySystem::new(MemConfig::default());
    let root = PhysAddr::from_frame(5);
    mem.poke_u32(root, DirEntry::table(6).encode());
    let flags = PteFlags {
        writable: true,
        user: true,
        ..PteFlags::default()
    };
    for p in 0..64u64 {
        mem.poke_u32(
            PhysAddr::from_frame(6).offset(4 * p),
            Pte::leaf(100 + p, flags).encode(),
        );
    }
    (mem, root)
}

fn bench_walker(walks: u64) -> f64 {
    let secs = time(|| {
        let (mut mem, root) = setup_mapped_memory();
        let mut walker = PageTableWalker::new(WalkerConfig::l1_only(4));
        let mut now = Cycle(0);
        let mut page = 0u64;
        for _ in 0..walks {
            page = (page + 1) % 64;
            let r = walker.walk(
                &mut mem,
                FabricPort::new(MasterId(0)),
                root,
                Asid(1),
                VirtAddr(page << 12),
                now,
            );
            now = r.done;
            black_box(r.outcome.unwrap().pte);
        }
    });
    walks as f64 / secs
}

// ---------------------------------------------------------------------------
// Walk-heavy pointer chase through the walker: an LCG hops pseudo-randomly
// across a 64-page working set (far larger than the 16-entry TLB, so in a
// full system every hop is a walk). The two-level walker serves the leaf
// from its L2 walk cache with zero bus reads; the pre-PR L1-only walker
// pays a leaf bus read on every single hop.
// ---------------------------------------------------------------------------

fn bench_walker_chase(cfg: WalkerConfig, walks: u64) -> f64 {
    let secs = time(|| {
        let (mut mem, root) = setup_mapped_memory();
        let mut walker = PageTableWalker::new(cfg);
        let mut now = Cycle(0);
        let mut lcg = 0xDEAD_BEEFu64;
        for _ in 0..walks {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (lcg >> 33) % 64;
            let r = walker.walk(
                &mut mem,
                FabricPort::new(MasterId(0)),
                root,
                Asid(1),
                VirtAddr(page << 12),
                now,
            );
            now = r.done;
            black_box(r.outcome.unwrap().pte);
        }
    });
    walks as f64 / secs
}

// ---------------------------------------------------------------------------
// Batched walks: bursts of 8 concurrent misses in one epoch, all inside one
// directory line, through the coalescing walk_many entry point (caches
// disabled so every burst actually exercises the batch path).
// ---------------------------------------------------------------------------

fn bench_walker_batched(walks: u64) -> f64 {
    let secs = time(|| {
        let (mut mem, root) = setup_mapped_memory();
        let mut walker = PageTableWalker::new(WalkerConfig::disabled());
        let mut now = Cycle(0);
        let mut base = 0u64;
        let mut vas = [VirtAddr(0); 8];
        for _ in 0..walks / 8 {
            for (i, va) in vas.iter_mut().enumerate() {
                *va = VirtAddr(((base + i as u64) % 64) << 12);
            }
            base = (base + 8) % 64;
            let rs = walker.walk_many(
                &mut mem,
                FabricPort::new(MasterId(0)),
                root,
                Asid(1),
                &vas,
                now,
            );
            now = rs.last().expect("batch").done;
            black_box(rs.len());
        }
    });
    walks as f64 / secs
}

// ---------------------------------------------------------------------------
// MEMIF streaming reads (burst-length ablation): sequential word reads
// through the MMU + burst cache, exercising the single-line fast path.
// ---------------------------------------------------------------------------

fn bench_memif_stream(line_bytes: u64, reads: u64) -> f64 {
    let secs = time(|| {
        let (mut mem, root) = setup_mapped_memory();
        let mut memif = Memif::new(
            MemifConfig {
                line_bytes,
                ..MemifConfig::default()
            },
            MasterId(1),
        );
        memif.set_context(Asid(1), root);
        let mut addr = 0u64;
        let mut now = Cycle(0);
        for _ in 0..reads {
            let (v, t) = memif
                .read(&mut mem, VirtAddr(addr), Width::W32, now)
                .expect("mapped");
            addr = (addr + 4) % (64 * 4096);
            now = t;
            black_box(v);
        }
    });
    reads as f64 / secs
}

// ---------------------------------------------------------------------------
// Split-transaction fabric: two independent masters streaming bank-strided
// 64 B reads through the issue/complete API. The windowed configuration
// keeps several transactions outstanding per master (DRAM latencies
// overlap); the `window=1` blocking configuration round-trips each read —
// the ratio of their *simulated* end times is the overlap speedup the
// redesign exists for (CI asserts > 1.3x in tests/fabric_conformance.rs).
// ---------------------------------------------------------------------------

/// Host-side throughput of the overlapped two-master stream (the hot
/// issue/poll path of the fabric), plus the simulated overlap speedup.
fn bench_fabric_overlap(reads: u64) -> (f64, f64) {
    let secs = time(|| {
        black_box(two_master_stream_cycles(FabricConfig::default(), reads));
    });
    let overlapped = two_master_stream_cycles(FabricConfig::default(), 4096);
    let serial = two_master_stream_cycles(FabricConfig::blocking(), 4096);
    ((2 * reads) as f64 / secs, serial as f64 / overlapped as f64)
}

// ---------------------------------------------------------------------------
// Hit-under-miss MEMIF: a mixed pointer-chase + streaming kernel on a real
// hardware thread. The chase hop's fill parks only the next (dependent)
// hop; the streaming vecadd element retires under the outstanding miss. The
// ratio of the blocking (`miss_depth = 1`) configuration's simulated cycles
// to the non-blocking (`miss_depth = 4`) one is the hit-under-miss speedup
// — deterministic, host-load-independent, asserted ≥ 1.15x in smoke mode
// (the PR's acceptance bar).
// ---------------------------------------------------------------------------

/// Simulated cycles of the chase+stream kernel at the given miss depth
/// (`hops <= 1024`: the stream arrays live in one page each).
fn chase_stream_cycles(hops: u64, miss_depth: u32) -> u64 {
    assert!(hops <= 1024, "stream arrays are single-page");
    let (mut mem, root) = setup_mapped_memory();
    // 2048-node permutation cycle at VA 0 (16 KiB: 4x the burst cache, so
    // hops keep missing); stream arrays at VA 0x8000 / 0x9000 / 0xA000.
    let mut rng = Xoshiro256ss::new(0xC0FFEE);
    let (words, _) = svmsyn_workloads::chase::chase_data(2048, hops, &mut rng);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    mem.load(PhysAddr::from_frame(100), &bytes);
    for i in 0..hops {
        mem.poke_u32(PhysAddr::from_frame(108).offset(4 * i), i as u32);
        mem.poke_u32(PhysAddr::from_frame(109).offset(4 * i), 2 * i as u32);
    }
    let ck = Arc::new(compile(
        &svmsyn_workloads::chase::chase_stream_kernel(),
        &HlsConfig::default(),
    ));
    let cfg = HwThreadConfig {
        memif: MemifConfig {
            miss_depth,
            ..MemifConfig::default()
        },
    };
    let mut t = HwThread::new(
        ck,
        &[0, 0x8000, 0x9000, 0xA000, hops as i64],
        &cfg,
        MasterId(2),
    );
    t.set_context(Asid(1), root);
    let mut now = Cycle(0);
    loop {
        match t.advance(&mut mem, now, 100_000) {
            HwStep::Yielded { now: n } => now = n,
            HwStep::Parked { wake } => now = wake,
            HwStep::Finished { now: end, .. } => return end.0,
            HwStep::PageFault { fault, .. } => panic!("chase_stream faulted: {fault}"),
        }
    }
}

/// Host-side throughput of the non-blocking run, plus the simulated
/// blocking/non-blocking speedup.
fn bench_hit_under_miss(reps: u64) -> (f64, f64) {
    const HOPS: u64 = 1024;
    let secs = time(|| {
        for _ in 0..reps.max(1) {
            black_box(chase_stream_cycles(HOPS, 4));
        }
    });
    let blocking = chase_stream_cycles(HOPS, 1);
    let overlapped = chase_stream_cycles(HOPS, 4);
    (
        (reps.max(1) * HOPS) as f64 / secs,
        blocking as f64 / overlapped as f64,
    )
}

// ---------------------------------------------------------------------------
// HLS compilation of the matmul kernel, plus block-level list scheduling.
// ---------------------------------------------------------------------------

fn bench_hls_compile(compiles: u64) -> f64 {
    let kernel = svmsyn_workloads::matmul::matmul_kernel();
    let secs = time(|| {
        for _ in 0..compiles {
            black_box(compile(&kernel, &HlsConfig::default()));
        }
    });
    compiles as f64 / secs
}

fn bench_list_schedule(rounds: u64) -> f64 {
    let kernel = svmsyn_workloads::matmul::matmul_kernel();
    let budget = FuBudget::default();
    let secs = time(|| {
        for _ in 0..rounds {
            for blk in kernel.block_ids() {
                black_box(list_schedule(&kernel, blk, &budget));
            }
        }
    });
    rounds as f64 / secs
}

// ---------------------------------------------------------------------------
// Kernel pre-decoding: IR -> flat micro-op program (the cached step the
// interpreter rework added; cheap, but it sits on every cold kernel path).
// ---------------------------------------------------------------------------

fn bench_interp_decode(decodes: u64) -> f64 {
    let kernel = svmsyn_workloads::matmul::matmul_kernel();
    let secs = time(|| {
        for _ in 0..decodes {
            black_box(DecodedKernel::decode(&kernel));
        }
    });
    decodes as f64 / secs
}

// ---------------------------------------------------------------------------
// Full-system simulation (vecadd on a hardware thread, verified output).
// ---------------------------------------------------------------------------

fn bench_full_system(runs: u64) -> f64 {
    let w = vecadd(1024, 5);
    let platform = Platform::default();
    let design = hw_design(&w, &platform);
    let secs = time(|| {
        for _ in 0..runs {
            black_box(run_checked(&w, &design).makespan);
        }
    });
    runs as f64 / secs
}

// ---------------------------------------------------------------------------
// Memory-pressure path: the same full-system vecadd over-committed against a
// 4-frame budget, so every run finishes only through reclaim (clock scan),
// swap-out, shootdown broadcast, and major-fault swap-in — the whole
// fault-service lifecycle on the hot path, output still verified exact.
// ---------------------------------------------------------------------------

fn bench_pressure_reclaim(runs: u64) -> f64 {
    let w = vecadd(2048, 5);
    let mut platform = Platform::default();
    platform.os.frame_budget = Some(4);
    let design = hw_design(&w, &platform);
    let secs = time(|| {
        for _ in 0..runs {
            let o = run_checked(&w, &design);
            // The number is meaningless unless the budget actually bit.
            assert!(o.shootdowns > 0, "pressure bench ran unpressured");
            black_box(o.makespan);
        }
    });
    runs as f64 / secs
}

// ---------------------------------------------------------------------------
// Checkpoint serialization: full snapshot + validated restore round-trips of
// a mid-run pressured system (warmed caches, TLBs, swap state, pending
// events all in the image) — the cost a `checkpoint_every` pause or a chaos
// kill-and-resume pays per checkpoint.
// ---------------------------------------------------------------------------

fn bench_snapshot_roundtrip(rounds: u64) -> f64 {
    let w = vecadd(2048, 5);
    let mut platform = Platform::default();
    platform.os.frame_budget = Some(4);
    let design = hw_design(&w, &platform);
    let cfg = SimConfig::default();
    let mut sim = Sim::new(&design, &cfg).expect("bench setup");
    // Park mid-run, deep in reclaim/swap territory, so the image carries a
    // fully warmed system rather than a near-empty boot state.
    sim.run_until(Cycle(100_000)).expect("bench warmup");
    // Sanity once, outside the timed loop: the round-trip must be exact.
    let cp = sim.snapshot();
    let restored = Sim::restore(&design, &cfg, &cp).expect("bench restore");
    assert_eq!(
        restored.snapshot().as_bytes(),
        cp.as_bytes(),
        "snapshot bench round-trip is not bit-exact"
    );
    let secs = time(|| {
        for _ in 0..rounds {
            let cp = sim.snapshot();
            let restored = Sim::restore(&design, &cfg, &cp).expect("bench restore");
            black_box(restored.now());
        }
    });
    rounds as f64 / secs
}

// ---------------------------------------------------------------------------
// SimPoint-style sampled simulation on the longest suite workload (the
// pointer chase): the profile (BBV collection + clustering + checkpoint
// retention) is prepared outside the timed region, then `estimate()` —
// restore-and-replay of only the sampled windows — is timed against the
// full run. The *simulated-cycle* speedup (full cycles / cycles actually
// simulated) is deterministic and host-load-independent; the PR's
// acceptance bar pins it ≥ 3x.
// ---------------------------------------------------------------------------

fn bench_sampled_vs_full(runs: u64) -> (f64, f64) {
    use svmsyn::{SampleConfig, SampledRun};
    let w = &svmsyn_workloads::default_suite(2024)[6]; // chase
    let platform = Platform::default();
    let design = hw_design(w, &platform);
    let sim_cfg = SimConfig::default();
    let run = SampledRun::new(&design, &sim_cfg);
    let scfg = SampleConfig {
        interval_events: 100,
        ..SampleConfig::default()
    };
    let (profile, _) = run.profile(&scfg).expect("sampling bench profiles");
    let secs = time(|| {
        for _ in 0..runs.max(1) {
            black_box(run.estimate(&profile).expect("sampling bench estimates"));
        }
    });
    let est = run.estimate(&profile).expect("sampling bench estimates");
    assert!(
        est.cycles_simulated > 0 && est.cycles_simulated < est.cycles_full,
        "sampling bench degenerated to a full replay"
    );
    (
        runs.max(1) as f64 / secs,
        est.cycles_full as f64 / est.cycles_simulated as f64,
    )
}

// ---------------------------------------------------------------------------
// Sharded simulation: the same multi-thread chase+stream system run on the
// serial single-wheel engine and on the 2-shard parallel engine. The
// workload is latency-bound (dependent pointer hops) with a streaming
// side-channel, so each shard has real work between barriers. Outputs are
// conformance-checked once, untimed — the equivalence suite owns the full
// bit-identity proof; the bench owns the economics.
// ---------------------------------------------------------------------------

/// Two independent chase+stream threads over disjoint buffers: thread `t`
/// chases its own `nodes_t` ring while streaming `c_t[i] = a_t[i] + b_t[i]`.
fn sharded_bench_workload(nodes: usize, n: u64) -> Workload {
    use svmsyn::app::{ApplicationBuilder, ArgSpec};
    use svmsyn_workloads::chase::{chase_data, chase_stream_kernel};
    use svmsyn_workloads::common::u32s_to_bytes;

    let mut rng = Xoshiro256ss::new(0x5AAD);
    let mut builder = ApplicationBuilder::new("chase-stream-x2");
    let mut expected = Vec::new();
    for t in 0..2u64 {
        let (words, _) = chase_data(nodes, n, &mut rng);
        let a: Vec<u32> = (0..n).map(|_| rng.next_u32() >> 8).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.next_u32() >> 8).collect();
        let c: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        builder = builder
            .buffer(
                format!("nodes{t}"),
                nodes as u64 * 8,
                u32s_to_bytes(&words),
                false,
            )
            .buffer(format!("a{t}"), n * 4, u32s_to_bytes(&a), false)
            .buffer(format!("b{t}"), n * 4, u32s_to_bytes(&b), false)
            .buffer(format!("c{t}"), n * 4, vec![], false);
        let base = (t * 4) as usize;
        builder = builder.thread(
            format!("t{t}"),
            chase_stream_kernel(),
            vec![
                ArgSpec::Buffer(base, 0),
                ArgSpec::Buffer(base + 1, 0),
                ArgSpec::Buffer(base + 2, 0),
                ArgSpec::Buffer(base + 3, 0),
                ArgSpec::Value(n as i64),
            ],
            true,
        );
        expected.push((base + 3, u32s_to_bytes(&c)));
    }
    Workload {
        name: "chase-stream-x2".into(),
        app: builder.build().expect("bench app"),
        expected,
    }
}

fn bench_sharded_sim(runs: u64) -> f64 {
    let w = sharded_bench_workload(2048, 8192);
    let design = hw_design(&w, &Platform::default());
    let serial = SimConfig {
        max_events: 50_000_000,
        ..SimConfig::default()
    };
    let sharded = SimConfig {
        shards: 2,
        ..serial
    };
    // Conformance teeth, once and untimed, independent of host speed and
    // core count: the run really used 2 shards and their barrier protocol,
    // and its verified outputs equal the serial engine's byte for byte.
    // The barrier-wait health check surfaces when lookahead starves shards.
    let so = simulate(&design, &serial).expect("serial bench run");
    let po = simulate(&design, &sharded).expect("sharded bench run");
    w.verify(&so).expect("serial bench output");
    w.verify(&po).expect("sharded bench output");
    let sync = po.sync.as_ref().expect("sharded run reports sync stats");
    assert_eq!(sync.shards, 2, "sharded bench run did not use 2 shards");
    assert!(sync.windows > 0, "sharded bench run executed no windows");
    for (i, b) in design.app.buffers.iter().enumerate() {
        let mut s = vec![0u8; b.len as usize];
        let mut p = vec![0u8; b.len as usize];
        so.read_buffer(i, &mut s);
        po.read_buffer(i, &mut p);
        assert_eq!(s, p, "buffer {i} differs between serial and sharded runs");
    }
    for warning in po.summary_warnings() {
        eprintln!("WARNING ({}): {warning}", w.name);
    }
    let serial_secs = time(|| {
        for _ in 0..runs {
            black_box(
                simulate(&design, &serial)
                    .expect("serial bench run")
                    .makespan,
            );
        }
    });
    let sharded_secs = time(|| {
        for _ in 0..runs {
            black_box(
                simulate(&design, &sharded)
                    .expect("sharded bench run")
                    .makespan,
            );
        }
    });
    serial_secs / sharded_secs
}

// ---------------------------------------------------------------------------
// DSE sweep: serial vs. parallel exhaustive search (simulation in the loop).
// ---------------------------------------------------------------------------

/// A 3-thread application (8 exhaustive design points) assembled from
/// vecadd kernels over shared inputs. The vectors are sized so a single
/// evaluation costs milliseconds — the regime both the parallel sweep and
/// the persistent result store target.
fn dse_bench_app() -> svmsyn::Application {
    use svmsyn::app::{ApplicationBuilder, ArgSpec};
    let n = 8192u64;
    let a_init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
    let b_init: Vec<u8> = (0..n as u32).flat_map(|i| (2 * i).to_le_bytes()).collect();
    let mut builder = ApplicationBuilder::new("dse-bench")
        .buffer("a", n * 4, a_init, false)
        .buffer("b", n * 4, b_init, false);
    for i in 0..3 {
        builder = builder.buffer(format!("dst{i}"), n * 4, vec![], false);
    }
    for i in 0..3usize {
        builder = builder.thread(
            format!("t{i}"),
            svmsyn_workloads::streaming::vecadd_kernel(),
            vec![
                ArgSpec::Buffer(0, 0),
                ArgSpec::Buffer(1, 0),
                ArgSpec::Buffer(2 + i, 0),
                ArgSpec::Value(n as i64),
            ],
            true,
        );
    }
    builder.build().expect("bench app")
}

fn dse_bench_cfg(threads: usize) -> DseConfig {
    DseConfig {
        method: DseMethod::Exhaustive,
        sim: SimConfig {
            quantum: 50_000,
            ..SimConfig::default()
        },
        threads,
        ..DseConfig::default()
    }
}

/// Times the exhaustive sweep on `threads` workers and returns the time
/// with the sweep's result.
fn dse_sweep(threads: usize) -> (f64, DseResult) {
    let app = dse_bench_app();
    let platform = Platform::default();
    let cfg = dse_bench_cfg(threads);
    let mut last = None;
    let secs = time(|| {
        let r = explore(&app, &platform, &cfg).expect("bench DSE");
        black_box(r.best.makespan);
        last = Some(r);
    });
    (secs, last.expect("timed sweep ran"))
}

// ---------------------------------------------------------------------------
// Persistent result store: the identical exhaustive sweep against a fresh
// store (cold: every point simulated and published to disk) and again over
// the same root (warm: every point served from disk). The single-pass
// `Instant` timing is deliberate — `time()`'s warm-up pass would populate
// the store and erase the cold leg. The wall ratio is the price of a
// simulation vs. a record read; the store tests pin the semantics
// (bit-identical results), this pins the economics.
// ---------------------------------------------------------------------------

fn bench_dse_store_warm_vs_cold() -> (f64, f64) {
    let app = dse_bench_app();
    let platform = Platform::default();
    let cfg = dse_bench_cfg(1);
    let root = std::env::temp_dir().join(format!("svmsyn-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let store = ResultStore::open(&root).expect("bench store");
    let start = Instant::now();
    let cold = explore_with_store(&app, &platform, &cfg, Some(&store)).expect("cold sweep");
    let cold_secs = start.elapsed().as_secs_f64();
    assert_eq!(cold.store_hits, 0, "cold store bench started warm");

    // Fresh handle: the warm leg must come from disk, not the old handle's
    // in-memory state (the index holds digests either way — records are
    // read back per probe).
    let store = ResultStore::open(&root).expect("bench store reopen");
    let start = Instant::now();
    let warm = explore_with_store(&app, &platform, &cfg, Some(&store)).expect("warm sweep");
    let warm_secs = start.elapsed().as_secs_f64();
    assert_eq!(warm.store_misses, 0, "warm store bench re-simulated");
    assert_eq!(
        warm.best, cold.best,
        "store round-trip changed the sweep result"
    );

    let _ = std::fs::remove_dir_all(&root);
    (cold_secs, warm_secs)
}

fn write_baseline(results: &[Result], path: &Path) {
    let mut json = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "  \"{}\": {{ \"value\": {:.3}, \"unit\": \"{}\" }}{}\n",
            r.name,
            r.value,
            r.unit,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    std::fs::write(path, json).expect("write BENCH_baseline.json");
}

fn main() {
    // `--smoke`: scaled-down pass for CI — exercises every harness, writes
    // no baseline, applies no perf expectations.
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale: u64 = if smoke { 40 } else { 1 };
    let mut results: Vec<Result> = Vec::new();

    let wheel = bench_scheduler_wheel(2_000_000 / scale);
    let heap = bench_scheduler_heap(2_000_000 / scale);
    let ratio = wheel / heap;
    results.push(Result {
        name: "scheduler_wheel_events_per_sec",
        value: wheel,
        unit: "events/s",
    });
    results.push(Result {
        name: "scheduler_heap_events_per_sec",
        value: heap,
        unit: "events/s",
    });
    results.push(Result {
        name: "scheduler_wheel_vs_heap_speedup",
        value: ratio,
        unit: "x",
    });

    for (name, policy) in [
        ("tlb_lookup_lru_per_sec", Replacement::Lru),
        ("tlb_lookup_fifo_per_sec", Replacement::Fifo),
        ("tlb_lookup_random_per_sec", Replacement::Random),
    ] {
        results.push(Result {
            name,
            value: bench_tlb(policy, 4_000_000 / scale),
            unit: "lookups/s",
        });
    }

    results.push(Result {
        name: "cache_access_per_sec",
        value: bench_cache_access(4_000_000 / scale),
        unit: "accesses/s",
    });

    results.push(Result {
        name: "page_table_walks_per_sec",
        value: bench_walker(1_000_000 / scale),
        unit: "walks/s",
    });

    let two_level = bench_walker_chase(WalkerConfig::two_level(4, 64), 2_000_000 / scale);
    let l1_only = bench_walker_chase(WalkerConfig::l1_only(4), 1_000_000 / scale);
    results.push(Result {
        name: "walker_walks_per_sec",
        value: two_level,
        unit: "walks/s",
    });
    results.push(Result {
        name: "walker_l1_only_walks_per_sec",
        value: l1_only,
        unit: "walks/s",
    });
    results.push(Result {
        name: "walker_two_level_speedup",
        value: two_level / l1_only,
        unit: "x",
    });
    results.push(Result {
        name: "walker_batched_walks_per_sec",
        value: bench_walker_batched(1_000_000 / scale),
        unit: "walks/s",
    });

    for (name, line) in [
        ("memif_stream_read_line32_per_sec", 32u64),
        ("memif_stream_read_line64_per_sec", 64),
        ("memif_stream_read_line128_per_sec", 128),
        ("memif_stream_read_line256_per_sec", 256),
    ] {
        results.push(Result {
            name,
            value: bench_memif_stream(line, 1_000_000 / scale),
            unit: "reads/s",
        });
    }

    let (fabric_reads, fabric_speedup) = bench_fabric_overlap(1_000_000 / scale);
    results.push(Result {
        name: "fabric_overlapped_reads_per_sec",
        value: fabric_reads,
        unit: "reads/s",
    });
    results.push(Result {
        name: "fabric_overlap_speedup",
        value: fabric_speedup,
        unit: "x",
    });

    let (hum_hops, hum_speedup) = bench_hit_under_miss(40 / scale.min(40));
    results.push(Result {
        name: "memif_chase_stream_hops_per_sec",
        value: hum_hops,
        unit: "hops/s",
    });
    results.push(Result {
        name: "memif_hit_under_miss_speedup",
        value: hum_speedup,
        unit: "x",
    });

    results.push(Result {
        name: "hls_compile_matmul_per_sec",
        value: bench_hls_compile(if smoke { 5 } else { 200 }),
        unit: "compiles/s",
    });
    results.push(Result {
        name: "hls_list_schedule_matmul_per_sec",
        value: bench_list_schedule(2_000 / scale),
        unit: "rounds/s",
    });
    results.push(Result {
        name: "interp_decode_matmul_per_sec",
        value: bench_interp_decode(20_000 / scale),
        unit: "decodes/s",
    });
    results.push(Result {
        name: "full_system_vecadd1k_runs_per_sec",
        value: bench_full_system(if smoke { 2 } else { 20 }),
        unit: "runs/s",
    });
    results.push(Result {
        name: "pressure_reclaim_runs_per_sec",
        value: bench_pressure_reclaim(if smoke { 2 } else { 20 }),
        unit: "runs/s",
    });
    results.push(Result {
        name: "snapshot_roundtrip_per_sec",
        value: bench_snapshot_roundtrip(if smoke { 5 } else { 200 }),
        unit: "roundtrips/s",
    });

    let (est_runs, sampled_speedup) = bench_sampled_vs_full(if smoke { 2 } else { 20 });
    results.push(Result {
        name: "sampled_estimate_runs_per_sec",
        value: est_runs,
        unit: "runs/s",
    });
    results.push(Result {
        name: "sampled_vs_full_speedup",
        value: sampled_speedup,
        unit: "x",
    });

    results.push(Result {
        name: "sharded_sim_speedup",
        value: bench_sharded_sim(if smoke { 1 } else { 5 }),
        unit: "x",
    });

    let (serial, serial_sweep) = dse_sweep(1);
    let (parallel, parallel_sweep) = dse_sweep(0);
    results.push(Result {
        name: "dse_exhaustive8_serial_secs",
        value: serial,
        unit: "s",
    });
    results.push(Result {
        name: "dse_exhaustive8_parallel_secs",
        value: parallel,
        unit: "s",
    });
    results.push(Result {
        name: "dse_parallel_speedup",
        value: serial / parallel,
        unit: "x",
    });

    let (store_cold, store_warm) = bench_dse_store_warm_vs_cold();
    results.push(Result {
        name: "dse_store_cold_secs",
        value: store_cold,
        unit: "s",
    });
    results.push(Result {
        name: "dse_store_warm_secs",
        value: store_warm,
        unit: "s",
    });
    results.push(Result {
        name: "dse_store_warm_vs_cold_speedup",
        value: store_cold / store_warm,
        unit: "x",
    });

    // Host core count, recorded alongside the numbers: a ~1.0x
    // `dse_parallel_speedup` on a 1-CPU container is expected, not a
    // regression — this entry makes the artifact self-describing.
    results.push(Result {
        name: "host_cores",
        value: std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
        unit: "cores",
    });

    println!("{:<44} {:>16}  unit", "benchmark", "value");
    for r in &results {
        println!("{:<44} {:>16.3}  {}", r.name, r.value, r.unit);
    }

    // A 1-core host cannot show any parallel-sweep win: flag the degenerate
    // reading in the summary so a ~1.0x `dse_parallel_speedup` recorded on
    // such a container is not misread as a regression (ROADMAP note).
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host_cores == 1 {
        println!(
            "WARNING: host_cores == 1 — dse_parallel_speedup ~1.0x is the \
             expected degenerate reading on this host, not a regression; \
             re-record on a multicore machine"
        );
        println!(
            "WARNING: host_cores == 1 — sharded_sim_speedup below 1.0x is \
             likewise expected here: both shards time-slice one core and \
             pay the window-barrier protocol on top; re-record on a \
             multicore machine"
        );
    }

    if smoke {
        // CI contract: the walker throughput entry must exist (the baseline
        // comparison and the conformance story both key off it).
        assert!(
            results.iter().any(|r| r.name == "walker_walks_per_sec"),
            "walker_walks_per_sec missing from the benchmark set"
        );
        // CI contract: the fabric-overlap entry must exist and its
        // *simulated* speedup (deterministic, host-load-independent) must
        // clear the redesign's 1.3x acceptance bar.
        let overlap = results
            .iter()
            .find(|r| r.name == "fabric_overlap_speedup")
            .expect("fabric_overlap_speedup missing from the benchmark set");
        assert!(
            results
                .iter()
                .any(|r| r.name == "fabric_overlapped_reads_per_sec"),
            "fabric_overlapped_reads_per_sec missing from the benchmark set"
        );
        assert!(
            overlap.value > 1.3,
            "fabric overlap speedup {:.2}x below the 1.3x bar",
            overlap.value
        );
        // CI contract: the hit-under-miss entry must exist and its
        // *simulated* speedup (deterministic, host-load-independent) must
        // clear the PR's 1.15x acceptance bar — a blocking-vs-non-blocking
        // MEMIF ratio on the mixed chase+stream workload at depth 4.
        let hum = results
            .iter()
            .find(|r| r.name == "memif_hit_under_miss_speedup")
            .expect("memif_hit_under_miss_speedup missing from the benchmark set");
        assert!(
            hum.value >= 1.15,
            "hit-under-miss speedup {:.3}x below the 1.15x bar",
            hum.value
        );
        // CI contract: the memory-pressure entry must exist — its harness
        // already asserted internally that reclaim/shootdowns fired.
        assert!(
            results
                .iter()
                .any(|r| r.name == "pressure_reclaim_runs_per_sec"),
            "pressure_reclaim_runs_per_sec missing from the benchmark set"
        );
        // CI contract: the checkpoint entry must exist — its harness
        // already asserted internally that the round-trip is bit-exact.
        assert!(
            results
                .iter()
                .any(|r| r.name == "snapshot_roundtrip_per_sec"),
            "snapshot_roundtrip_per_sec missing from the benchmark set"
        );
        // CI contract: the sampled-simulation entry must exist and its
        // *simulated-cycle* speedup (deterministic, host-load-independent)
        // must clear the PR's 3x acceptance bar on the longest workload.
        let sampled = results
            .iter()
            .find(|r| r.name == "sampled_vs_full_speedup")
            .expect("sampled_vs_full_speedup missing from the benchmark set");
        assert!(
            sampled.value >= 3.0,
            "sampled-vs-full speedup {:.2}x below the 3x bar",
            sampled.value
        );
        // CI contract: the warm-vs-cold store entry must exist and a warm
        // sweep (record reads) must beat the cold sweep (simulations) by
        // the PR's 3x acceptance bar — the economics the persistent store
        // exists for. The harness already asserted the semantics: zero
        // warm misses and an identical best point.
        let store = results
            .iter()
            .find(|r| r.name == "dse_store_warm_vs_cold_speedup")
            .expect("dse_store_warm_vs_cold_speedup missing from the benchmark set");
        assert!(
            store.value >= 3.0,
            "store warm-vs-cold speedup {:.2}x below the 3x bar",
            store.value
        );
        // CI contract: the sharded-simulation entry must exist. Its harness
        // already asserted the host-independent facts — 2 shards, at least
        // one barrier window, outputs identical to the serial engine's. The
        // speedup itself depends on host speed and core count, so it is an
        // advisory reading, not a gate.
        let sharded = results
            .iter()
            .find(|r| r.name == "sharded_sim_speedup")
            .expect("sharded_sim_speedup missing from the benchmark set");
        println!(
            "advisory: sharded_sim_speedup {:.2}x on a {host_cores}-core host \
             (not gated)",
            sharded.value
        );
        // CI contract: the parallel sweep (`threads = 0`) finds exactly
        // what the serial one (`threads = 1`) does — the same best point,
        // feasible set and Pareto front. The speedup depends on host speed,
        // core count and load (smoke runs of this 8-point sweep read
        // 1.09x-1.45x on a 2-core host), so it is an advisory reading, not
        // a gate.
        assert_eq!(
            parallel_sweep.best, serial_sweep.best,
            "parallel and serial DSE sweeps picked different best points"
        );
        assert_eq!(
            parallel_sweep.feasible, serial_sweep.feasible,
            "parallel and serial DSE sweeps found different feasible sets"
        );
        assert_eq!(
            parallel_sweep.pareto, serial_sweep.pareto,
            "parallel and serial DSE sweeps found different Pareto fronts"
        );
        let dse = results
            .iter()
            .find(|r| r.name == "dse_parallel_speedup")
            .expect("dse_parallel_speedup missing from the benchmark set");
        println!(
            "advisory: dse_parallel_speedup {:.2}x on a {host_cores}-core host \
             (not gated)",
            dse.value
        );
        println!("\nsmoke mode: baseline not written");
        return;
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_baseline.json");
    write_baseline(&results, &path);
    println!("\nwrote {}", path.display());

    // Advisory only: a single timed pass is noisy on loaded machines, so a
    // low ratio warns rather than failing the bench run.
    if ratio < 2.0 {
        eprintln!("WARNING: wheel/heap ratio {ratio:.2} below the 2.0 target on this machine");
    }
}

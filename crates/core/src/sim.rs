//! Full-system simulation of a synthesized design.
//!
//! [`simulate`] boots the OS, loads the application's buffers into one
//! shared virtual address space, instantiates each thread (hardware threads
//! with their private MMUs bound to that space; software threads on the CPU
//! model), and runs everything to completion on the deterministic step
//! queue. Hardware and software threads contend for the same bus,
//! synchronize through the same primitives, and fault into the same OS —
//! the paper's execution model end to end.

use std::cell::OnceCell;
use std::sync::Arc;

use svmsyn_hwt::thread::{HwThread, HwThreadConfig};
use svmsyn_mem::{MasterId, MemorySystem, VirtAddr};
use svmsyn_os::addrspace::{OsError, Sigsegv};
use svmsyn_os::cpu::{SwExec, SwExecConfig};
use svmsyn_os::os::Os;
use svmsyn_os::sync::ThreadId;
use svmsyn_sim::{Cycle, StatSet, StepQueue};
use svmsyn_snap::{Snap, SnapError, SnapReader, SnapWriter};
use svmsyn_vm::tlb::Asid;

use crate::app::{SyncAction, SyncSpec};
use crate::checkpoint::{design_fingerprint, Checkpoint};
use crate::flow::{Placement, SystemDesign};
use crate::step::{
    fire_next, outcome, run_phase, sync_step, with_checkpoint, FaultStreak, RunParts, StepModel,
    SyncHost, Watchdog,
};

/// Snapshot image format version this binary writes and understands.
/// Bumped whenever the payload layout changes; images from other versions
/// are rejected at restore with [`SnapError::Version`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Cycles a thread runs per step. It does two jobs: a hardware
    /// thread's advance budget (how far it runs before it yields to the
    /// event loop) and a software thread's OS time slice (each slice pays a
    /// context switch). Multi-thread makespans depend on it, because a
    /// hardware thread that runs ahead books the shared fabric and DRAM
    /// calendar out of time order and the threads behind it find it busy;
    /// ROADMAP.md tracks making it a pure speed knob.
    pub quantum: u64,
    /// Hard cap on scheduler events (runaway guard).
    pub max_events: u64,
    /// Thrash detector: consecutive faults by one hardware thread with no
    /// memory op issued in between before the run ends with
    /// [`SimError::Thrashing`] (0 disables). Catches accesses that can
    /// never complete — e.g. an access spanning two pages under a frame
    /// budget that holds only one, refaulting forever.
    pub fault_retry_budget: u32,
    /// Thrash watchdog: length of the fault-rate window in cycles.
    pub thrash_window: u64,
    /// Thrash watchdog: faults within one window before the run ends with
    /// [`SimError::Thrashing`] (0 disables). Catches runs making so little
    /// progress per fault that finishing is hopeless — ping-ponging frames
    /// between threads — long before `max_events`.
    pub thrash_fault_limit: u32,
    /// Graceful interruption: when non-zero, [`Sim::run`] pauses after this
    /// many scheduler events and returns a resumable [`Checkpoint`]
    /// ([`simulate`] resumes transparently). `0` disables pausing.
    pub checkpoint_every: u64,
    /// Requested simulation shards. `1` (the default) runs the serial
    /// engine; `> 1` partitions the threads across per-shard step queues
    /// advanced in conservative lookahead windows (see
    /// [`crate::shard`]). The planner may reduce the effective count — see
    /// [`crate::shard::planned_shards`].
    pub shards: u32,
    /// Lookahead window override in cycles for the sharded engine. `0`
    /// (the default) derives the window from the fabric's minimum
    /// issue-to-complete latency and the quantum.
    pub shard_window: u64,
}

impl Default for SimConfig {
    /// 2 k-cycle quanta, 5 M events, a 64-retry per-access fault budget,
    /// and the rate watchdog off (pressure scenarios opt in with a limit
    /// matched to their fault costs).
    ///
    /// The quantum is not a converged value (see [`SimConfig::quantum`]):
    /// the six-thread Fig. 7 app, all-HW on `Platform::default()`, takes
    /// 46,412 cycles at quantum 1 and 10, 90,077 at 2,000 and 152,826 at
    /// 50,000.
    fn default() -> Self {
        SimConfig {
            quantum: 2_000,
            max_events: 5_000_000,
            fault_retry_budget: 64,
            thrash_window: 1_000_000,
            thrash_fault_limit: 0,
            checkpoint_every: 0,
            shards: 1,
            shard_window: 0,
        }
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A thread performed an unservicable access.
    Segv {
        /// Thread name.
        thread: String,
        /// The fault.
        fault: Sigsegv,
    },
    /// All remaining threads are blocked on synchronization.
    Deadlock {
        /// Names of the blocked threads.
        blocked: Vec<String>,
    },
    /// The event cap was exceeded. Carries a checkpoint of the run at the
    /// limit: callers can raise `max_events` and resume instead of losing
    /// the work ([`None`] only for checkpoints that failed to assemble,
    /// which no current path produces).
    EventLimit {
        /// Simulated cycle at which the cap was hit.
        cycle: u64,
        /// Events fired when the cap was hit.
        events: u64,
        /// Names of the threads still runnable at the limit.
        runnable: Vec<String>,
        /// The run, frozen at the limit — resume with a raised budget.
        checkpoint: Option<Checkpoint>,
    },
    /// The run was fault-bound beyond hope of progress: one access
    /// refaulted past its retry budget, or the system-wide fault rate
    /// exceeded the watchdog limit (see [`SimConfig`]).
    Thrashing {
        /// The thread charged with the thrash (`"system"` for the
        /// rate-watchdog trip, which no single thread owns).
        thread: String,
        /// Faults observed (per-access streak, or faults in the window).
        faults: u64,
        /// Cycles over which they accumulated.
        window: u64,
        /// The run, frozen at the trip with the faulting thread re-armed —
        /// resume with a raised retry budget or watchdog limit.
        checkpoint: Option<Checkpoint>,
    },
    /// OS-level setup failed (e.g. out of memory for buffers).
    Os(OsError),
    /// A checkpoint image was rejected at restore (corrupt, truncated,
    /// version-mismatched, or from a different design).
    Snapshot(SnapError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Segv { thread, fault } => write!(f, "thread {thread}: {fault}"),
            SimError::Deadlock { blocked } => {
                write!(f, "deadlock; blocked threads: {}", blocked.join(", "))
            }
            // Stable prefix: external tooling matches on "event limit
            // exceeded".
            SimError::EventLimit {
                cycle,
                events,
                runnable,
                ..
            } => {
                write!(
                    f,
                    "event limit exceeded at cycle {cycle} after {events} events; runnable: {}",
                    if runnable.is_empty() {
                        "none".to_string()
                    } else {
                        runnable.join(", ")
                    }
                )
            }
            SimError::Thrashing {
                thread,
                faults,
                window,
                ..
            } => {
                write!(
                    f,
                    "thrashing: {thread} took {faults} page faults within {window} cycles"
                )
            }
            SimError::Os(e) => write!(f, "os setup failed: {e}"),
            SimError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    /// The wrapped cause for the two composing variants, so `?`-chained
    /// callers can walk to the underlying [`OsError`] / [`SnapError`].
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Os(e) => Some(e),
            SimError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OsError> for SimError {
    fn from(e: OsError) -> Self {
        SimError::Os(e)
    }
}

impl From<SnapError> for SimError {
    fn from(e: SnapError) -> Self {
        SimError::Snapshot(e)
    }
}

impl SimError {
    /// The resumable checkpoint attached to a budget-exhaustion error
    /// ([`EventLimit`][Self::EventLimit] / [`Thrashing`][Self::Thrashing]),
    /// if any: restore it with a raised budget and continue the run.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            SimError::EventLimit { checkpoint, .. } | SimError::Thrashing { checkpoint, .. } => {
                checkpoint.as_ref()
            }
            _ => None,
        }
    }
}

/// Per-thread results.
#[derive(Debug, Clone)]
pub struct ThreadMetrics {
    /// Thread name.
    pub name: String,
    /// Where it ran.
    pub placement: Placement,
    /// Spawn time.
    pub start: Cycle,
    /// Completion time (post-sync included).
    pub end: Cycle,
    /// Kernel return value, if any.
    pub ret: Option<i64>,
    /// The retired execution body (source of the lazy counter snapshot).
    pub(crate) body: Body,
    /// Cached snapshot; assembled on first [`stats`][Self::stats] call.
    pub(crate) stats: OnceCell<StatSet>,
}

impl ThreadMetrics {
    /// The thread's own counters (MEMIF/MMU or cache/TLB absorbed).
    ///
    /// Assembled lazily on first call: counter snapshots allocate a keyed
    /// map, which is measurable overhead for sweeps that only read the
    /// makespan (DSE evaluates thousands of runs).
    pub fn stats(&self) -> &StatSet {
        self.stats.get_or_init(|| self.body.stats())
    }
}

/// Barrier-synchronization counters from a sharded run (see
/// [`crate::shard`]). `None` on [`SimOutcome`]s produced by the serial
/// engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSyncStats {
    /// Lookahead windows executed (barrier count).
    pub windows: u64,
    /// Cross-shard interactions exchanged at barriers: page-fault services,
    /// kernel-finish notifications routed through the coordinator.
    pub crossings: u64,
    /// Σ over (window × shard) of idle cycles between a shard's last event
    /// and the window edge — the conservative-lookahead synchronization
    /// cost. When this dominates `windows × window length × shards`, the
    /// shards are starved and fewer shards would pay. A `shard_window`
    /// above the derived lookahead is no remedy: faults crossing shards
    /// wait for the next barrier, so a longer window stretches simulated
    /// time, not just host time.
    pub barrier_wait_cycles: u64,
    /// Shards the run executed on.
    pub shards: u64,
    /// The lookahead window length `W`, in cycles.
    pub window_len: u64,
}

/// The outcome of a full-system simulation.
#[derive(Debug)]
pub struct SimOutcome {
    /// Completion time of the last thread.
    pub makespan: Cycle,
    /// Per-thread metrics, in application order.
    pub threads: Vec<ThreadMetrics>,
    /// Cached system-wide counters; see [`stats`][Self::stats].
    pub(crate) stats: OnceCell<StatSet>,
    /// Where each application buffer was mapped.
    pub buffer_vas: Vec<VirtAddr>,
    /// Final memory image (for checkers).
    pub mem: MemorySystem,
    /// Final OS state (for checkers and reports).
    pub os: Os,
    /// The shared address space.
    pub asid: Asid,
    /// TLB shootdowns broadcast during the run (one per reclaimed page per
    /// MMU/CPU-TLB target).
    pub shootdowns: u64,
    /// Barrier-synchronization counters when the run used the sharded
    /// engine; `None` for serial runs.
    pub sync: Option<ShardSyncStats>,
}

impl SimOutcome {
    /// System-wide counters (OS, bus, DRAM absorbed), assembled lazily on
    /// first call — simulation itself never pays for the snapshot.
    pub fn stats(&self) -> &StatSet {
        self.stats.get_or_init(|| {
            let (os, mem, makespan) = (&self.os, &self.mem, self.makespan);
            let mut stats = StatSet::new();
            stats.put("makespan", makespan.0 as f64);
            stats.absorb("os", os.stats());
            stats.absorb("mem", mem.stats());
            // Memory-pressure health: how hard the frame budget squeezed
            // the run. `shootdowns` counts per-target invalidations (a
            // broadcast to N MMUs is N shootdowns — the storm, not the
            // trigger).
            stats.put("pressure.major_faults", os.major_faults() as f64);
            stats.put("pressure.reclaims", os.reclaims() as f64);
            stats.put("pressure.shootdowns", self.shootdowns as f64);
            stats.put("pressure.swap_busy_cycles", os.swap.busy_cycles() as f64);
            // System-wide walker health: the hardware threads' per-level
            // walk-cache hit rates, aggregated over all MMUs. Software
            // threads have no walker and contribute nothing.
            let (mut walks, mut l1_hits, mut l2_hits) = (0.0, 0.0, 0.0);
            // Hit-under-miss health of the non-blocking MEMIFs: accesses
            // that retired while a fill was outstanding, and the fill
            // latency hidden behind execution instead of stalling.
            let (mut hum, mut overlap, mut parks) = (0.0, 0.0, 0.0);
            for s in self.threads.iter().map(|t| t.stats()) {
                if let Some(w) = s.get("memif.mmu.walker.walks") {
                    walks += w;
                    l1_hits += s.get("memif.mmu.walker.l1_walk_hits").unwrap_or(0.0)
                        + s.get("memif.mmu.walker.dir_coalesced").unwrap_or(0.0);
                    l2_hits += s.get("memif.mmu.walker.l2_walk_hits").unwrap_or(0.0);
                }
                hum += s.get("memif.hit_under_miss").unwrap_or(0.0);
                overlap += s.get("memif.miss_overlap_cycles").unwrap_or(0.0);
                parks += s.get("miss_parks").unwrap_or(0.0);
            }
            stats.put("memif.hit_under_miss", hum);
            stats.put("memif.miss_overlap_cycles", overlap);
            stats.put("memif.miss_parks", parks);
            stats.put("vm.walks", walks);
            // The raw hit counters ride along with the rates because ratios
            // do not add across runs: perfbench sums `vm.l2_walk_hits` and
            // `fabric.inflight_cycles` over its runs to re-derive the rates,
            // and its `stats_digest` hashes every key.
            stats.put("vm.l1_walk_hits", l1_hits);
            stats.put("vm.l2_walk_hits", l2_hits);
            let rate = |hits: f64| if walks > 0.0 { hits / walks } else { 0.0 };
            stats.put("vm.l1_walk_hit_rate", rate(l1_hits));
            stats.put("vm.l2_walk_hit_rate", rate(l2_hits));
            // Fabric health: how much the split-transaction fabric actually
            // overlapped. `outstanding_mean` is the system-wide average
            // number of in-flight transactions (Σ per-master occupancy
            // integrals over the makespan); per-master `overlap` and
            // `window_stall_cycles` breakdowns live under `mem.fabric.mN.*`.
            // `inflight_cycles` and `data_busy_cycles` are those ratios'
            // numerators, exported like the walk-hit counters above.
            let f = mem.fabric().stats();
            let span = makespan.0.max(1) as f64;
            let inflight = f.get("inflight_cycles").unwrap_or(0.0);
            stats.put("fabric.inflight_cycles", inflight);
            stats.put("fabric.outstanding_mean", inflight / span);
            stats.put("fabric.merges", f.get("merges").unwrap_or(0.0));
            stats.put("fabric.data_busy_cycles", mem.fabric().busy_cycles() as f64);
            stats.put(
                "fabric.data_utilization",
                mem.fabric().utilization(makespan),
            );
            // Sharded runs report their barrier-protocol cost; the keys are
            // simply absent from serial runs so stat diffs between engines
            // stay honest.
            if let Some(sync) = &self.sync {
                stats.put("sync.windows", sync.windows as f64);
                stats.put("sync.crossings", sync.crossings as f64);
                stats.put("sync.barrier_wait_cycles", sync.barrier_wait_cycles as f64);
            }
            stats
        })
    }

    /// Copies the final contents of application buffer `idx` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn read_buffer(&self, idx: usize, buf: &mut [u8]) {
        self.os
            .copy_out(self.asid, self.buffer_vas[idx], buf, &self.mem);
    }

    /// Wall-clock duration in microseconds at the design's achieved clock.
    pub fn wall_micros(&self, design: &SystemDesign) -> f64 {
        self.makespan.as_micros(design.system_mhz)
    }
}

// The size gap between the variants is fine: bodies live in a short Vec
// (one per thread) and boxing the large variant would cost an indirection
// on every scheduler step.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Body {
    Sw(SwExec),
    Hw(HwThread),
}

impl Body {
    /// The body's own counters (MEMIF/MMU or cache/TLB absorbed).
    fn stats(&self) -> StatSet {
        match self {
            Body::Sw(sw) => sw.stats(),
            Body::Hw(hw) => hw.stats(),
        }
    }

    /// Applies one reclaim shootdown: a hardware thread's MMU (TLB + walk
    /// caches) or a software thread's CPU TLB drops the page.
    pub(crate) fn shootdown(&mut self, asid: Asid, va: VirtAddr) {
        match self {
            Body::Hw(hw) => hw.memif_mut().mmu_mut().invalidate_page(asid, va),
            Body::Sw(sw) => sw.shootdown(asid, va),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Pre(usize),
    Run,
    Post(usize),
    Done,
}

#[derive(Debug)]
pub(crate) struct ThreadRt {
    pub(crate) name: String,
    pub(crate) placement: Placement,
    pub(crate) body: Body,
    pub(crate) pre: Vec<SyncAction>,
    pub(crate) post: Vec<SyncAction>,
    pub(crate) phase: Phase,
    pub(crate) start: Cycle,
    pub(crate) end: Option<Cycle>,
    pub(crate) ret: Option<i64>,
}

#[derive(Debug)]
pub(crate) struct SystemState {
    pub(crate) mem: MemorySystem,
    pub(crate) os: Os,
    pub(crate) asid: Asid,
    pub(crate) threads: Vec<ThreadRt>,
    pub(crate) sync_ids: Vec<u32>,
    pub(crate) quantum: u64,
    pub(crate) finished: usize,
    pub(crate) error: Option<SimError>,
    /// Per-hardware-thread consecutive-fault streaks.
    pub(crate) fault_streaks: Vec<FaultStreak>,
    /// Per-access fault-retry budget (0 = disabled).
    pub(crate) retry_budget: u32,
    /// Per-target TLB shootdowns broadcast so far.
    pub(crate) shootdowns: u64,
}

/// Broadcasts the OS's queued reclaim shootdowns to every hardware MMU
/// (TLB + walk caches) and software CPU TLB — pressure made visible as
/// invalidation storms. Returns the per-target shootdowns applied.
fn drain_shootdowns(os: &mut Os, threads: &mut [ThreadRt]) -> u64 {
    let mut applied = 0;
    for (asid, va) in os.drain_shootdowns() {
        for t in threads.iter_mut() {
            t.body.shootdown(asid, va);
            applied += 1;
        }
    }
    applied
}

/// The serial engine's step model: every follow-up goes on its one
/// queue, and hardware page faults are serviced inline at the faulting
/// cycle.
impl StepModel for SystemState {
    fn step(&mut self, q: &mut StepQueue, i: usize) {
        if self.error.is_some() {
            return;
        }
        match self.threads[i].phase {
            Phase::Pre(_) | Phase::Post(_) => {
                let now = q.now();
                sync_step(&mut SerialSync(self, q), now, i);
            }
            Phase::Run => run_phase(self, q, i),
            Phase::Done => {}
        }
    }

    fn run_parts(&mut self, i: usize) -> RunParts<'_> {
        RunParts {
            rt: &mut self.threads[i],
            streak: &mut self.fault_streaks[i],
            mem: &mut self.mem,
            os: Some(&mut self.os),
            quantum: self.quantum,
            retry_budget: self.retry_budget,
        }
    }

    fn fault(&mut self, q: &mut StepQueue, i: usize, at: Cycle, va: VirtAddr, write: bool) {
        match self
            .os
            .service_fault(self.asid, va, write, true, &mut self.mem, at)
        {
            Ok(done) => q.push(done, i as u32),
            Err(fault) => {
                let thread = self.threads[i].name.clone();
                self.fail(at, SimError::Segv { thread, fault });
            }
        }
    }

    fn finished(&mut self, q: &mut StepQueue, i: usize, at: Cycle) {
        q.push(at, i as u32);
    }

    /// The run loop stops before the next event once an error is set.
    fn fail(&mut self, _at: Cycle, error: SimError) {
        self.error = Some(error);
    }
}

/// The serial engine as a sync-script host: script steps, wakes, and
/// run-phase entries all book on its one queue.
struct SerialSync<'a>(&'a mut SystemState, &'a mut StepQueue);

impl SyncHost for SerialSync<'_> {
    fn thread(&mut self, i: usize) -> &mut ThreadRt {
        &mut self.0.threads[i]
    }

    fn os(&mut self) -> (&mut Os, &[u32]) {
        (&mut self.0.os, &self.0.sync_ids)
    }

    fn book(&mut self, at: Cycle, i: usize) {
        self.1.push(at, i as u32);
    }

    fn retire(&mut self) {
        self.0.finished += 1;
    }
}

/// What one [`Sim::run`] call produced.
#[derive(Debug)]
pub enum RunProgress {
    /// No events remain: every thread finished, or the rest are blocked —
    /// [`Sim::finish`] tells the two apart.
    Complete,
    /// `checkpoint_every` events elapsed since the last pause. The run can
    /// be resumed by calling [`Sim::run`] again on this instance, or later
    /// — in another process — via [`Sim::restore`] of the checkpoint.
    Paused(Checkpoint),
}

/// A live full-system simulation: the state machine behind [`simulate`],
/// exposed so callers can interrupt, snapshot, restore, and resume runs.
///
/// Determinism contract: a restored `Sim` replays the exact event sequence
/// the original would have run — same final buffers, same cycle counts,
/// same counters — and `snapshot` is a pure function of logical state, so
/// `restore(snapshot(s))` re-snapshots to byte-identical images.
pub struct Sim<'d> {
    design: &'d SystemDesign,
    cfg: SimConfig,
    state: SystemState,
    queue: StepQueue,
    buffer_vas: Vec<VirtAddr>,
    watchdog: Watchdog,
    /// Events fired at the last `checkpoint_every` pause.
    last_pause_events: u64,
}

impl std::fmt::Debug for Sim<'_> {
    /// Position summary only — the full state is megabytes of Debug noise.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.queue.now())
            .field("events_fired", &self.queue.events_fired())
            .field("pending", &self.queue.pending())
            .field("finished", &self.state.finished)
            .finish_non_exhaustive()
    }
}

impl<'d> Sim<'d> {
    /// Boots the OS, maps the application's buffers, and instantiates every
    /// thread, ready to [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Os`] when setup fails (e.g. out of memory for
    /// buffers).
    pub fn new(design: &'d SystemDesign, cfg: &SimConfig) -> Result<Sim<'d>, SimError> {
        Ok(Sim::from_parts(design, cfg, boot_system(design)?))
    }

    /// Builds the engine at a checkpointed position (the boot position for
    /// [`new`](Self::new)).
    fn from_parts(design: &'d SystemDesign, cfg: &SimConfig, parts: SnapshotParts) -> Sim<'d> {
        let SnapshotParts {
            now,
            fired,
            watchdog,
            buffer_vas,
            mem,
            os,
            asid,
            sync_ids,
            finished,
            fault_streaks,
            shootdowns,
            threads,
            next_step_seq,
            steps,
        } = parts;
        let state = SystemState {
            mem,
            os,
            asid,
            threads,
            sync_ids,
            quantum: cfg.quantum,
            finished,
            error: None,
            fault_streaks,
            retry_budget: cfg.fault_retry_budget,
            shootdowns,
        };
        // The entries keep their seqs, so they pop in the checkpointed
        // `(time, seq)` order and the future event sequence is reproduced
        // exactly. The serial lane has stride 1.
        let mut queue = StepQueue::new(now, fired, next_step_seq, 1);
        for (at, seq, t) in steps {
            queue.push_seq(at, seq, t);
        }
        Sim {
            design,
            cfg: *cfg,
            state,
            queue,
            buffer_vas,
            watchdog,
            last_pause_events: fired,
        }
    }
}

/// Boots the OS, maps the application's buffers, creates the sync objects,
/// and instantiates every thread — the design-to-system elaboration shared
/// by the serial engine ([`Sim::new`]) and the sharded coordinator
/// ([`crate::shard`]). Returns the booted system as the parts of a
/// position-zero checkpoint: every thread in its pre-sync phase, with one
/// step pending at its spawn cycle.
pub(crate) fn boot_system(design: &SystemDesign) -> Result<SnapshotParts, SimError> {
    let app = &design.app;
    let platform = &design.platform;
    let mut mem = MemorySystem::new(platform.mem.clone());
    let mut os = Os::new(&platform.os, &mem);
    let asid = os.create_space(&mut mem)?;

    // Buffers.
    let mut buffer_vas = Vec::with_capacity(app.buffers.len());
    for b in &app.buffers {
        let va = os.mmap(asid, b.len.max(1), true, b.populate, &mut mem)?;
        if !b.init.is_empty() {
            os.copy_in(asid, va, &b.init, &mut mem)?;
        }
        buffer_vas.push(va);
    }

    // Sync objects.
    let sync_ids: Vec<u32> = app
        .sync_objects
        .iter()
        .map(|s| match s {
            SyncSpec::Mutex => os.sync.create_mutex(),
            SyncSpec::Semaphore(n) => os.sync.create_sem(*n),
            SyncSpec::Barrier(n) => os.sync.create_barrier(*n),
            SyncSpec::Mbox(c) => os.sync.create_mbox(*c),
        })
        .collect();

    // Threads.
    let root = os.space(asid).root();
    let mut threads = Vec::with_capacity(app.threads.len());
    for (i, spec) in app.threads.iter().enumerate() {
        let args: Vec<i64> = spec
            .args
            .iter()
            .map(|a| match a {
                crate::app::ArgSpec::Buffer(bi, off) => (buffer_vas[*bi].0 + off) as i64,
                crate::app::ArgSpec::Value(v) => *v,
            })
            .collect();
        let master = MasterId(i as u16 + 1);
        // Attach every configured master up front: a thread that wedges
        // before its first transaction still gets its (all-zero) fabric
        // stats row, so starvation is visible instead of silent.
        mem.attach_master(master);
        let body = match design.placements[i] {
            Placement::Hardware => {
                let ck = design.threads[i]
                    .compiled
                    .clone()
                    .expect("hardware thread must have a compiled kernel");
                let mut hw = HwThread::new(
                    ck,
                    &args,
                    &HwThreadConfig {
                        memif: platform.memif,
                    },
                    master,
                );
                hw.set_context(asid, root);
                Body::Hw(hw)
            }
            Placement::Software => Body::Sw(SwExec::new(
                ThreadId(i as u32),
                asid,
                Arc::clone(&spec.decoded),
                &args,
                SwExecConfig::with_master(master),
            )),
        };
        // Thread spawn is serialized through the parent (one syscall
        // each).
        let start = Cycle(i as u64 * os.costs.syscall);
        threads.push(ThreadRt {
            name: spec.name.clone(),
            placement: design.placements[i],
            body,
            pre: spec.pre.clone(),
            post: spec.post.clone(),
            phase: Phase::Pre(0),
            start,
            end: None,
            ret: None,
        });
    }

    // Setup-time population/copy-in may already have reclaimed under a
    // tight frame budget; broadcast those shootdowns before anything
    // runs.
    let shootdowns = drain_shootdowns(&mut os, &mut threads);
    let n = threads.len();
    let steps: Vec<(Cycle, u64, u32)> = (0..n)
        .map(|i| (threads[i].start, i as u64, i as u32))
        .collect();
    Ok(SnapshotParts {
        now: Cycle::ZERO,
        fired: 0,
        watchdog: Watchdog::default(),
        buffer_vas,
        mem,
        os,
        asid,
        sync_ids,
        finished: 0,
        fault_streaks: vec![None; n],
        shootdowns,
        threads,
        next_step_seq: n as u64,
        steps,
    })
}

impl<'d> Sim<'d> {
    /// The current simulation time.
    pub fn now(&self) -> Cycle {
        self.queue.now()
    }

    /// Events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.queue.events_fired()
    }

    /// Post-event bookkeeping: shootdown broadcast, event cap, fault-rate
    /// watchdog. Returns `false` when the run must stop (an error was set).
    fn after_step(&mut self) -> bool {
        self.state.shootdowns += drain_shootdowns(&mut self.state.os, &mut self.state.threads);
        let tripped = self.watchdog.check(
            &self.cfg,
            self.queue.now(),
            self.queue.events_fired(),
            &self.state.os,
            &self.state.threads,
        );
        if tripped.is_some() {
            self.state.error = tripped;
            return false;
        }
        true
    }

    /// Takes the pending error, with the checkpoint of the current position
    /// attached to a budget trip.
    fn take_error(&mut self) -> Option<SimError> {
        let e = self.state.error.take()?;
        Some(with_checkpoint(e, || self.snapshot()))
    }

    /// Runs until completion, an error, or (with `checkpoint_every` set) a
    /// periodic pause.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on segmentation fault or budget exhaustion;
    /// [`SimError::EventLimit`] and [`SimError::Thrashing`] carry a
    /// resumable checkpoint of the run at the trip point.
    pub fn run(&mut self) -> Result<RunProgress, SimError> {
        while self.state.error.is_none() && fire_next(&mut self.state, &mut self.queue) {
            if !self.after_step() {
                break;
            }
            if self.cfg.checkpoint_every > 0
                && self.queue.events_fired() - self.last_pause_events >= self.cfg.checkpoint_every
            {
                self.last_pause_events = self.queue.events_fired();
                return Ok(RunProgress::Paused(self.snapshot()));
            }
        }
        if let Some(e) = self.take_error() {
            return Err(e);
        }
        Ok(RunProgress::Complete)
    }

    /// Runs while the next event's timestamp is at most `until`, stopping
    /// between events. Returns `true` while later events remain — the
    /// chaos harness's "kill at cycle `c`" primitive and the bisector's
    /// probe-advance.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](Self::run); `checkpoint_every` pauses do
    /// not apply here.
    pub fn run_until(&mut self, until: Cycle) -> Result<bool, SimError> {
        while self.state.error.is_none() {
            match self.queue.peek_time() {
                Some(t) if t <= until => {}
                Some(_) => return Ok(true),
                None => return Ok(false),
            }
            if !fire_next(&mut self.state, &mut self.queue) {
                break;
            }
            if !self.after_step() {
                break;
            }
        }
        if let Some(e) = self.take_error() {
            return Err(e);
        }
        Ok(self.queue.pending() > 0)
    }

    /// Serializes the complete simulator state — queue position and
    /// pending steps, memory image, fabric transactions, caches, TLBs,
    /// walk caches, interpreter tables, OS state, per-thread metrics — into
    /// a versioned, checksummed, fingerprinted image.
    ///
    /// The bytes are a pure function of logical state: re-snapshotting a
    /// restored run yields the identical image.
    pub fn snapshot(&self) -> Checkpoint {
        let s = &self.state;
        write_snapshot(
            self.design,
            SnapshotView {
                now: self.queue.now(),
                fired: self.queue.events_fired(),
                watchdog: self.watchdog,
                buffer_vas: &self.buffer_vas,
                mem: &s.mem,
                os: &s.os,
                asid: s.asid,
                sync_ids: &s.sync_ids,
                finished: s.finished,
                fault_streaks: s.fault_streaks.clone(),
                shootdowns: s.shootdowns,
                threads: s.threads.iter().collect(),
                next_step_seq: self.queue.next_seq(),
                steps: self.queue.iter().collect(),
            },
        )
    }

    /// Rebuilds a simulation from a checkpoint image, validated end to end:
    /// magic, version, checksum, design fingerprint, then every field
    /// range. Config-side values (`quantum`, budgets, OS costs) come from
    /// `cfg` and the design, which is what lets a resumed run continue
    /// under raised budgets or adjusted pressure costs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] describing exactly what was rejected
    /// — never panics, never silently misparses.
    pub fn restore(
        design: &'d SystemDesign,
        cfg: &SimConfig,
        checkpoint: &Checkpoint,
    ) -> Result<Sim<'d>, SimError> {
        let parts = read_snapshot(design, checkpoint)?;
        Ok(Sim::from_parts(design, cfg, parts))
    }

    /// Consumes the simulation and assembles the outcome. Call after
    /// [`run`](Self::run) returns [`RunProgress::Complete`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when threads remain blocked on
    /// synchronization (the no-events-left completion's failure shape).
    pub fn finish(mut self) -> Result<SimOutcome, SimError> {
        if let Some(e) = self.take_error() {
            return Err(e);
        }
        let s = self.state;
        outcome(
            s.threads,
            self.buffer_vas,
            s.mem,
            s.os,
            s.asid,
            s.shootdowns,
            None,
        )
    }
}

/// Simulates a synthesized design to completion (resuming transparently
/// through any `checkpoint_every` pauses).
///
/// # Errors
///
/// Returns [`SimError`] on setup failure, segmentation fault, deadlock, or
/// budget exhaustion — the budget errors carry a resumable checkpoint.
pub fn simulate(design: &SystemDesign, cfg: &SimConfig) -> Result<SimOutcome, SimError> {
    // Sharded dispatch: when the planner grants more than one shard the
    // run goes through the parallel engine. `shards <= 1` (and every
    // design the planner forces serial) takes the serial path below,
    // untouched.
    if crate::shard::planned_shards(design, cfg) > 1 {
        return crate::shard::simulate_sharded(design, cfg, crate::shard::ExecMode::Parallel);
    }
    let mut sim = Sim::new(design, cfg)?;
    while !matches!(sim.run()?, RunProgress::Complete) {}
    sim.finish()
}

/// A borrowed view of everything a snapshot image records, in engine-
/// neutral form: the serial engine fills it from its step queue and
/// [`SystemState`]; the sharded coordinator fills it from its barrier
/// state (merged memory, per-shard thread homes, control queue + shard
/// step queues). [`write_snapshot`] serializes the view into the one shared
/// image format, which is what makes serial and sharded checkpoints
/// interchangeable.
pub(crate) struct SnapshotView<'a> {
    pub(crate) now: Cycle,
    pub(crate) fired: u64,
    pub(crate) watchdog: Watchdog,
    pub(crate) buffer_vas: &'a [VirtAddr],
    pub(crate) mem: &'a MemorySystem,
    pub(crate) os: &'a Os,
    pub(crate) asid: Asid,
    pub(crate) sync_ids: &'a [u32],
    pub(crate) finished: usize,
    pub(crate) fault_streaks: Vec<FaultStreak>,
    pub(crate) shootdowns: u64,
    /// Thread runtimes in application order.
    pub(crate) threads: Vec<&'a ThreadRt>,
    pub(crate) next_step_seq: u64,
    /// Pending step events, any order (sorted into `(time, seq)` here).
    pub(crate) steps: Vec<(Cycle, u64, u32)>,
}

/// Serializes a [`SnapshotView`] into a versioned, checksummed,
/// fingerprinted checkpoint image. The byte layout is the format both
/// engines read and write; the bytes are a pure function of the view.
pub(crate) fn write_snapshot(design: &SystemDesign, v: SnapshotView<'_>) -> Checkpoint {
    let mut w = SnapWriter::new();
    // Queue position. The scheduled-event count is derived: neither
    // engine cancels an event, so it is always `fired + pending`.
    w.put_u64(v.now.0);
    w.put_u64(v.fired);
    w.put_u64(v.fired + v.steps.len() as u64);
    // Fault-rate watchdog anchor.
    w.put_u64(v.watchdog.start.0);
    w.put_u64(v.watchdog.base_faults);
    // Address-space layout.
    let vas: Vec<u64> = v.buffer_vas.iter().map(|b| b.0).collect();
    vas.save(&mut w);
    v.mem.save_state(&mut w);
    v.os.save_state(&mut w);
    v.asid.save(&mut w);
    v.sync_ids.to_vec().save(&mut w);
    w.put_u64(v.finished as u64);
    v.fault_streaks.save(&mut w);
    w.put_u64(v.shootdowns);
    // Per-thread runtime state. Names, placements, and sync scripts are
    // design-side and re-supplied at restore.
    for t in &v.threads {
        match &t.body {
            Body::Sw(sw) => {
                w.put_u8(0);
                sw.save_state(&mut w);
            }
            Body::Hw(hw) => {
                w.put_u8(1);
                hw.save_state(&mut w);
            }
        }
        let (tag, k) = match t.phase {
            Phase::Pre(k) => (0u8, k as u64),
            Phase::Run => (1, 0),
            Phase::Post(k) => (2, k as u64),
            Phase::Done => (3, 0),
        };
        w.put_u8(tag);
        w.put_u64(k);
        t.start.save(&mut w);
        t.end.save(&mut w);
        t.ret.save(&mut w);
    }
    // The pending steps, sorted into firing order `(time, seq)`: the
    // queue's own order depends on its push and pop history, which is not
    // logical state.
    w.put_u64(v.next_step_seq);
    let mut steps = v.steps;
    steps.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
    steps.save(&mut w);
    Checkpoint::from_bytes(svmsyn_snap::write_image(
        SNAPSHOT_VERSION,
        design_fingerprint(design),
        &w.into_bytes(),
    ))
}

/// Everything [`read_snapshot`] parses out of a checkpoint image (or
/// [`boot_system`] builds for the boot position) — the owned counterpart
/// of [`SnapshotView`], ready for either engine to build from.
pub(crate) struct SnapshotParts {
    pub(crate) now: Cycle,
    pub(crate) fired: u64,
    pub(crate) watchdog: Watchdog,
    pub(crate) buffer_vas: Vec<VirtAddr>,
    pub(crate) mem: MemorySystem,
    pub(crate) os: Os,
    pub(crate) asid: Asid,
    pub(crate) sync_ids: Vec<u32>,
    pub(crate) finished: usize,
    pub(crate) fault_streaks: Vec<FaultStreak>,
    pub(crate) shootdowns: u64,
    pub(crate) threads: Vec<ThreadRt>,
    pub(crate) next_step_seq: u64,
    /// Pending steps, validated (in-range thread named at most once,
    /// `at >= now`, `seq < next_step_seq`), in image order.
    pub(crate) steps: Vec<(Cycle, u64, u32)>,
}

/// Parses and validates a checkpoint image end to end: magic, version,
/// checksum, design fingerprint, then every field range. Shared by the
/// serial restore path and the sharded coordinator's restore.
pub(crate) fn read_snapshot(
    design: &SystemDesign,
    checkpoint: &Checkpoint,
) -> Result<SnapshotParts, SnapError> {
    let (fingerprint, payload) = svmsyn_snap::read_image(checkpoint.as_bytes(), SNAPSHOT_VERSION)?;
    let expected = design_fingerprint(design);
    if fingerprint != expected {
        return Err(SnapError::DesignMismatch {
            found: fingerprint,
            expected,
        });
    }
    let r = &mut SnapReader::new(payload);
    let now = Cycle(r.take_u64()?);
    let fired = r.take_u64()?;
    let scheduled = r.take_u64()?;
    let watchdog = Watchdog {
        start: Cycle(r.take_u64()?),
        base_faults: r.take_u64()?,
    };
    let buffer_vas: Vec<VirtAddr> = Vec::<u64>::load(r)?.into_iter().map(VirtAddr).collect();
    let platform = &design.platform;
    let mem = MemorySystem::restore_state(&platform.mem, r)?;
    let os = Os::restore_state(&platform.os, r)?;
    let asid = Asid::load(r)?;
    let sync_ids = Vec::<u32>::load(r)?;
    let finished = r.take_u64()? as usize;
    let fault_streaks = Vec::<FaultStreak>::load(r)?;
    let shootdowns = r.take_u64()?;

    let app = &design.app;
    let mut threads = Vec::with_capacity(app.threads.len());
    for (i, spec) in app.threads.iter().enumerate() {
        let master = MasterId(i as u16 + 1);
        let tag = r.take_u8()?;
        let body = match (tag, design.placements[i]) {
            (0, Placement::Software) => Body::Sw(SwExec::restore_state(
                Arc::clone(&spec.decoded),
                SwExecConfig::with_master(master),
                r,
            )?),
            (1, Placement::Hardware) => {
                let ck = design.threads[i]
                    .compiled
                    .clone()
                    .ok_or(SnapError::Corrupt(
                        "hardware thread without compiled kernel",
                    ))?;
                Body::Hw(HwThread::restore_state(
                    ck,
                    &HwThreadConfig {
                        memif: platform.memif,
                    },
                    master,
                    r,
                )?)
            }
            _ => return Err(SnapError::Corrupt("thread body tag vs placement")),
        };
        let ptag = r.take_u8()?;
        let k = r.take_u64()? as usize;
        let phase = match ptag {
            0 if k <= spec.pre.len() => Phase::Pre(k),
            1 => Phase::Run,
            2 if k <= spec.post.len() => Phase::Post(k),
            3 => Phase::Done,
            _ => return Err(SnapError::Corrupt("thread phase")),
        };
        let start = Cycle::load(r)?;
        let end = Option::<Cycle>::load(r)?;
        let ret = Option::<i64>::load(r)?;
        threads.push(ThreadRt {
            name: spec.name.clone(),
            placement: design.placements[i],
            body,
            pre: spec.pre.clone(),
            post: spec.post.clone(),
            phase,
            start,
            end,
            ret,
        });
    }

    let next_step_seq = r.take_u64()?;
    let steps = Vec::<(Cycle, u64, u32)>::load(r)?;
    if r.remaining() != 0 {
        return Err(SnapError::Corrupt("trailing bytes after payload"));
    }
    if finished > threads.len() {
        return Err(SnapError::Corrupt("finished-thread count"));
    }
    if fault_streaks.len() != threads.len() {
        return Err(SnapError::Corrupt("fault-streak table size"));
    }
    // A live run keeps at most one pending step per thread; a duplicate
    // would step that thread twice and end the run early.
    let mut stepping = vec![false; threads.len()];
    for &(at, seq, t) in &steps {
        if t as usize >= threads.len() {
            return Err(SnapError::Corrupt("pending-step thread index"));
        }
        if std::mem::replace(&mut stepping[t as usize], true) {
            return Err(SnapError::Corrupt("pending-step thread named twice"));
        }
        if at < now {
            return Err(SnapError::Corrupt("pending-step fire time"));
        }
        if seq >= next_step_seq {
            return Err(SnapError::Corrupt("pending-step sequence"));
        }
    }
    // Neither engine cancels an event, so an image whose scheduled count
    // is not `fired + pending` was not written by either, and a run
    // restored from it would re-snapshot to different bytes.
    if scheduled != fired + steps.len() as u64 {
        return Err(SnapError::Corrupt("pending-step count"));
    }

    Ok(SnapshotParts {
        now,
        fired,
        watchdog,
        buffer_vas,
        mem,
        os,
        asid,
        sync_ids,
        finished,
        fault_streaks,
        shootdowns,
        threads,
        next_step_seq,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{ApplicationBuilder, ArgSpec, SyncAction, SyncSpec};
    use crate::flow::synthesize;
    use crate::platform::Platform;
    use svmsyn_hls::builder::KernelBuilder;
    use svmsyn_hls::ir::{BinOp, CmpOp, Kernel, Width};

    /// dst[i] = src[i] * 3 for i in 0..n.
    fn scale_kernel() -> Kernel {
        let mut b = KernelBuilder::new("scale", 3);
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
        let three = b.constant(3);
        let v3 = b.bin(BinOp::Mul, v, three);
        b.store(da, v3, Width::W32);
        let one = b.constant(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.finish().unwrap()
    }

    fn scale_app(n: u64) -> crate::app::Application {
        let init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
        ApplicationBuilder::new("scale")
            .buffer("src", n * 4, init, false)
            .buffer("dst", n * 4, vec![], false)
            .thread(
                "scaler",
                scale_kernel(),
                vec![
                    ArgSpec::Buffer(0, 0),
                    ArgSpec::Buffer(1, 0),
                    ArgSpec::Value(n as i64),
                ],
                true,
            )
            .build()
            .unwrap()
    }

    fn check_scaled(outcome: &SimOutcome, n: u64) {
        let mut buf = vec![0u8; (n * 4) as usize];
        outcome.read_buffer(1, &mut buf);
        for i in 0..n as usize {
            let mut w = [0u8; 4];
            w.copy_from_slice(&buf[i * 4..i * 4 + 4]);
            assert_eq!(u32::from_le_bytes(w), (i as u32) * 3, "element {i}");
        }
    }

    #[test]
    fn software_run_is_correct() {
        let app = scale_app(512);
        let d = synthesize(&app, &Platform::default(), &[Placement::Software]).unwrap();
        let o = simulate(&d, &SimConfig::default()).unwrap();
        check_scaled(&o, 512);
        assert!(o.makespan > Cycle(0));
        assert_eq!(o.threads.len(), 1);
        assert!(o.stats().get("os.sw_faults").unwrap() >= 1.0);
    }

    #[test]
    fn hardware_run_is_correct_and_faults_demand_pages() {
        let app = scale_app(512);
        let d = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
        let o = simulate(&d, &SimConfig::default()).unwrap();
        check_scaled(&o, 512);
        // dst is demand-paged: the HW thread faulted at least once.
        assert!(o.stats().get("os.hw_faults").unwrap() >= 1.0);
        assert!(o.wall_micros(&d) > 0.0);
    }

    #[test]
    fn hw_and_sw_compute_identical_bytes() {
        let app = scale_app(256);
        let sw = simulate(
            &synthesize(&app, &Platform::default(), &[Placement::Software]).unwrap(),
            &SimConfig::default(),
        )
        .unwrap();
        let hw = simulate(
            &synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap(),
            &SimConfig::default(),
        )
        .unwrap();
        let mut a = vec![0u8; 1024];
        let mut b = vec![0u8; 1024];
        sw.read_buffer(1, &mut a);
        hw.read_buffer(1, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn producer_consumer_via_semaphore() {
        // producer scales into mid, posts; consumer waits, scales mid into out.
        let n = 128u64;
        let init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
        let app = ApplicationBuilder::new("pipe")
            .buffer("in", n * 4, init, false)
            .buffer("mid", n * 4, vec![], false)
            .buffer("out", n * 4, vec![], false)
            .sync(SyncSpec::Semaphore(0))
            .thread_full(
                "producer",
                scale_kernel(),
                vec![
                    ArgSpec::Buffer(0, 0),
                    ArgSpec::Buffer(1, 0),
                    ArgSpec::Value(n as i64),
                ],
                vec![],
                vec![SyncAction::SemPost(0)],
                true,
            )
            .thread_full(
                "consumer",
                scale_kernel(),
                vec![
                    ArgSpec::Buffer(1, 0),
                    ArgSpec::Buffer(2, 0),
                    ArgSpec::Value(n as i64),
                ],
                vec![SyncAction::SemWait(0)],
                vec![],
                false,
            )
            .build()
            .unwrap();
        let d = synthesize(
            &app,
            &Platform::default(),
            &[Placement::Hardware, Placement::Software],
        )
        .unwrap();
        let o = simulate(&d, &SimConfig::default()).unwrap();
        let mut out = vec![0u8; (n * 4) as usize];
        o.read_buffer(2, &mut out);
        for i in 0..n as usize {
            let mut w = [0u8; 4];
            w.copy_from_slice(&out[i * 4..i * 4 + 4]);
            assert_eq!(u32::from_le_bytes(w), (i as u32) * 9, "element {i}");
        }
        // The consumer must have finished after the producer.
        assert!(o.threads[1].end > o.threads[0].end - Cycle(1));
    }

    #[test]
    fn deadlock_detected() {
        let mut kb = KernelBuilder::new("nop", 0);
        kb.ret(None);
        let app = ApplicationBuilder::new("dead")
            .sync(SyncSpec::Semaphore(0))
            .thread_full(
                "waiter",
                kb.finish().unwrap(),
                vec![],
                vec![SyncAction::SemWait(0)],
                vec![],
                false,
            )
            .build()
            .unwrap();
        let d = synthesize(&app, &Platform::default(), &[Placement::Software]).unwrap();
        let err = simulate(&d, &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
        assert!(err.to_string().contains("waiter"));
    }

    #[test]
    fn determinism_same_inputs_same_makespan() {
        let app = scale_app(256);
        let d = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
        let a = simulate(&d, &SimConfig::default()).unwrap();
        let b = simulate(&d, &SimConfig::default()).unwrap();
        assert_eq!(a.makespan, b.makespan);
    }

    /// A platform whose frame pool is capped at `budget` frames total
    /// (page tables included) — the memory-pressure scenarios below.
    fn pressured_platform(budget: u64) -> Platform {
        let mut p = Platform::default();
        p.os.frame_budget = Some(budget);
        p
    }

    #[test]
    fn overcommitted_hardware_run_completes_via_reclaim_and_swap() {
        // 2048 elements = 2 src + 2 dst data pages, but the budget holds
        // the root table, one L2 table, and only 2 data frames: the
        // working set over-commits physical memory and the run can only
        // finish through reclaim, swap-out, and major-fault swap-in.
        let n = 2048u64;
        let app = scale_app(n);
        let d = synthesize(&app, &pressured_platform(4), &[Placement::Hardware]).unwrap();
        let o = simulate(&d, &SimConfig::default()).unwrap();
        // Results are byte-correct even though every page was evicted
        // and swapped back at least once along the way.
        check_scaled(&o, n);
        let s = o.stats();
        assert!(s.get("pressure.reclaims").unwrap() >= 1.0, "no reclaims");
        assert!(
            s.get("pressure.major_faults").unwrap() >= 1.0,
            "no major faults"
        );
        assert!(
            s.get("pressure.shootdowns").unwrap() >= 1.0,
            "no shootdowns"
        );
        assert!(s.get("pressure.swap_busy_cycles").unwrap() >= 1.0);
        // Every reclaim either swapped out a dirty page or dropped a
        // clean one — the books must balance.
        assert_eq!(
            s.get("pressure.reclaims").unwrap(),
            s.get("os.swap.swap_outs").unwrap() + s.get("os.clean_evictions").unwrap()
        );
    }

    #[test]
    fn overcommitted_run_matches_unpressured_bytes() {
        let n = 1024u64;
        let app = scale_app(n);
        let calm = simulate(
            &synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap(),
            &SimConfig::default(),
        )
        .unwrap();
        let pressed = simulate(
            &synthesize(&app, &pressured_platform(4), &[Placement::Hardware]).unwrap(),
            &SimConfig::default(),
        )
        .unwrap();
        let mut a = vec![0u8; (n * 4) as usize];
        let mut b = vec![0u8; (n * 4) as usize];
        calm.read_buffer(1, &mut a);
        pressed.read_buffer(1, &mut b);
        assert_eq!(a, b);
        // Pressure costs time: the pressed run cannot be faster.
        assert!(pressed.makespan >= calm.makespan);
    }

    #[test]
    fn overcommitted_software_run_completes_via_reclaim() {
        let n = 2048u64;
        let app = scale_app(n);
        let d = synthesize(&app, &pressured_platform(4), &[Placement::Software]).unwrap();
        let o = simulate(&d, &SimConfig::default()).unwrap();
        check_scaled(&o, n);
        assert!(o.stats().get("pressure.reclaims").unwrap() >= 1.0);
    }

    /// One W64 load straddling a page boundary: both pages must be
    /// resident at once for the access to complete.
    fn straddle_kernel() -> Kernel {
        let mut b = KernelBuilder::new("straddle", 1);
        let a = b.arg(0);
        let v = b.load(a, Width::W64);
        b.ret(Some(v));
        b.finish().unwrap()
    }

    #[test]
    fn impossible_access_trips_retry_budget_not_event_limit() {
        // The budget holds root + L2 + ONE data frame, but the straddling
        // load needs two pages at once: each retry's fault service evicts
        // the other half. Without the per-access retry budget this spins
        // until max_events; with it the run ends in `Thrashing` charged to
        // the faulting thread.
        let app = ApplicationBuilder::new("straddle")
            .buffer("buf", 8192, vec![], false)
            .thread(
                "straddler",
                straddle_kernel(),
                vec![ArgSpec::Buffer(0, 4092)],
                true,
            )
            .build()
            .unwrap();
        let d = synthesize(&app, &pressured_platform(3), &[Placement::Hardware]).unwrap();
        let err = simulate(&d, &SimConfig::default()).unwrap_err();
        match &err {
            SimError::Thrashing { thread, faults, .. } => {
                assert_eq!(thread, "straddler");
                assert!(*faults > u64::from(SimConfig::default().fault_retry_budget));
            }
            other => panic!("expected Thrashing, got {other:?}"),
        }
        assert!(err.to_string().starts_with("thrashing:"));
    }

    #[test]
    fn fault_rate_watchdog_trips_as_system_thrash() {
        // One data frame for a src/dst streaming pair: every load evicts
        // the dst page, every store evicts the src page. Each access does
        // complete (so the per-access retry budget never trips), but the
        // fault rate is one per access — the watchdog calls the run
        // hopeless long before max_events.
        let app = scale_app(2048);
        let d = synthesize(&app, &pressured_platform(3), &[Placement::Hardware]).unwrap();
        let cfg = SimConfig {
            thrash_window: 1 << 40,
            thrash_fault_limit: 16,
            ..SimConfig::default()
        };
        let err = simulate(&d, &cfg).unwrap_err();
        assert!(
            matches!(&err, SimError::Thrashing { thread, .. } if thread == "system"),
            "expected system thrash, got {err:?}"
        );
    }

    #[test]
    fn event_limit_error_names_runnable_threads() {
        let app = scale_app(512);
        let d = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
        let cfg = SimConfig {
            max_events: 10,
            ..SimConfig::default()
        };
        let err = simulate(&d, &cfg).unwrap_err();
        match &err {
            SimError::EventLimit {
                cycle,
                events,
                runnable,
                ..
            } => {
                assert!(*events > 10);
                assert!(*cycle > 0);
                assert!(runnable.iter().any(|t| t == "scaler"));
            }
            other => panic!("expected EventLimit, got {other:?}"),
        }
        // Tooling greps on this prefix; keep it stable.
        assert!(err.to_string().starts_with("event limit exceeded"));
    }

    #[test]
    fn mutex_serializes_critical_sections() {
        // Two SW threads lock the same mutex around their kernels.
        let n = 64u64;
        let init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
        let app = ApplicationBuilder::new("mx")
            .buffer("in", n * 4, init.clone(), false)
            .buffer("o1", n * 4, vec![], false)
            .buffer("o2", n * 4, vec![], false)
            .sync(SyncSpec::Mutex)
            .thread_full(
                "a",
                scale_kernel(),
                vec![
                    ArgSpec::Buffer(0, 0),
                    ArgSpec::Buffer(1, 0),
                    ArgSpec::Value(n as i64),
                ],
                vec![SyncAction::MutexLock(0)],
                vec![SyncAction::MutexUnlock(0)],
                false,
            )
            .thread_full(
                "b",
                scale_kernel(),
                vec![
                    ArgSpec::Buffer(0, 0),
                    ArgSpec::Buffer(2, 0),
                    ArgSpec::Value(n as i64),
                ],
                vec![SyncAction::MutexLock(0)],
                vec![SyncAction::MutexUnlock(0)],
                false,
            )
            .build()
            .unwrap();
        let d = synthesize(&app, &Platform::default(), &[Placement::Software; 2]).unwrap();
        let o = simulate(&d, &SimConfig::default()).unwrap();
        assert_eq!(o.threads.len(), 2);
        assert!(o.stats().get("os.sync_contended").unwrap() >= 1.0);
    }

    /// Drives a restored simulation to completion.
    fn resume_to_end(mut sim: Sim<'_>) -> SimOutcome {
        while !matches!(sim.run().unwrap(), RunProgress::Complete) {}
        sim.finish().unwrap()
    }

    #[test]
    fn event_limit_checkpoint_resumes_under_raised_budget() {
        let app = scale_app(512);
        let d = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
        let reference = simulate(&d, &SimConfig::default()).unwrap();

        let tight = SimConfig {
            max_events: 10,
            ..SimConfig::default()
        };
        let err = simulate(&d, &tight).unwrap_err();
        let cp = err.checkpoint().expect("EventLimit carries a checkpoint");
        // Raise the budget and continue exactly where the limit tripped.
        let o = resume_to_end(Sim::restore(&d, &SimConfig::default(), cp).unwrap());
        check_scaled(&o, 512);
        assert_eq!(o.makespan, reference.makespan);
        assert_eq!(o.shootdowns, reference.shootdowns);
    }

    #[test]
    fn watchdog_thrash_checkpoint_resumes_with_watchdog_relaxed() {
        let app = scale_app(2048);
        let d = synthesize(&app, &pressured_platform(3), &[Placement::Hardware]).unwrap();
        let reference = simulate(&d, &SimConfig::default()).unwrap();

        let cfg = SimConfig {
            thrash_window: 1 << 40,
            thrash_fault_limit: 16,
            ..SimConfig::default()
        };
        let err = simulate(&d, &cfg).unwrap_err();
        assert!(matches!(&err, SimError::Thrashing { thread, .. } if thread == "system"));
        let cp = err.checkpoint().expect("Thrashing carries a checkpoint");
        // The watchdog only aborts — it never alters the event sequence —
        // so resuming without it replays the uninterrupted run's tail.
        let o = resume_to_end(Sim::restore(&d, &SimConfig::default(), cp).unwrap());
        check_scaled(&o, 2048);
        assert_eq!(o.makespan, reference.makespan);
    }

    #[test]
    fn per_access_thrash_rearms_and_trips_again_on_resume() {
        let app = ApplicationBuilder::new("straddle")
            .buffer("buf", 8192, vec![], false)
            .thread(
                "straddler",
                straddle_kernel(),
                vec![ArgSpec::Buffer(0, 4092)],
                true,
            )
            .build()
            .unwrap();
        let d = synthesize(&app, &pressured_platform(3), &[Placement::Hardware]).unwrap();
        let err = simulate(&d, &SimConfig::default()).unwrap_err();
        let cp = match &err {
            SimError::Thrashing {
                thread, checkpoint, ..
            } => {
                assert_eq!(thread, "straddler");
                checkpoint.clone().expect("Thrashing carries a checkpoint")
            }
            other => panic!("expected Thrashing, got {other:?}"),
        };
        // The faulting access re-arms at the trip point: resuming under the
        // same budget deterministically trips the same error again, and a
        // raised budget would keep retrying instead of wedging silently.
        let mut resumed = Sim::restore(&d, &SimConfig::default(), &cp).unwrap();
        let again = loop {
            match resumed.run() {
                Ok(RunProgress::Paused(_)) => continue,
                Ok(RunProgress::Complete) => panic!("impossible access completed"),
                Err(e) => break e,
            }
        };
        assert!(matches!(&again, SimError::Thrashing { thread, .. } if thread == "straddler"));
    }

    #[test]
    fn checkpoint_every_pauses_and_simulate_resumes_transparently() {
        let app = scale_app(512);
        let d = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
        let reference = simulate(&d, &SimConfig::default()).unwrap();

        let cfg = SimConfig {
            checkpoint_every: 8,
            ..SimConfig::default()
        };
        // The paused run, hand-resumed across every pause.
        let mut sim = Sim::new(&d, &cfg).unwrap();
        let mut pauses = 0usize;
        let o = loop {
            match sim.run().unwrap() {
                RunProgress::Paused(cp) => {
                    pauses += 1;
                    assert!(!cp.is_empty());
                }
                RunProgress::Complete => break sim.finish().unwrap(),
            }
        };
        assert!(pauses >= 2, "expected repeated pauses, got {pauses}");
        check_scaled(&o, 512);
        assert_eq!(o.makespan, reference.makespan);
        // And `simulate` itself resumes through pauses transparently.
        let o2 = simulate(&d, &cfg).unwrap();
        assert_eq!(o2.makespan, reference.makespan);
    }

    #[test]
    fn restore_then_resnapshot_is_byte_identical() {
        let app = scale_app(512);
        let d = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
        let cfg = SimConfig::default();
        let mut sim = Sim::new(&d, &cfg).unwrap();
        let end = simulate(&d, &cfg).unwrap().makespan;
        assert!(sim.run_until(Cycle(end.0 / 2)).unwrap());
        let cp = sim.snapshot();
        let restored = Sim::restore(&d, &cfg, &cp).unwrap();
        assert_eq!(restored.now(), sim.now());
        assert_eq!(restored.events_fired(), sim.events_fired());
        assert_eq!(restored.snapshot().as_bytes(), cp.as_bytes());
    }
}

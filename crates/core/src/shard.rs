//! Sharded parallel simulation: per-shard step queues advanced in
//! conservative lookahead windows, proven cycle-identical to a sequential
//! single-host-thread oracle.
//!
//! # Architecture
//!
//! The serial engine in [`crate::sim`] runs every thread on one step
//! queue. This module partitions the threads across *shards*, each owning
//! its own queue and a private replica of the memory system, and advances
//! all shards in lock-step **windows** of `W` cycles:
//!
//! 1. **Plan** — [`planned_shards`] assigns software threads to shard 0
//!    (they share the OS scheduler) and round-robins hardware threads
//!    across the rest. Designs where software threads run under a frame
//!    budget are forced serial: an inline software fault can reclaim a
//!    frame another shard is touching mid-window.
//! 2. **Window** — each shard fires its queue's steps with timestamps in
//!    `[T, T+W)` against its own memory replica. `W` is at least the
//!    fabric's minimum issue-to-complete latency
//!    ([`MemorySystem::min_issue_to_complete`]), so nothing a shard does
//!    inside a window can affect another shard *within the same window* —
//!    the classic conservative-lookahead argument.
//! 3. **Barrier** — between windows the coordinator: folds every replica's
//!    store writes and resource calendars back into the canonical memory
//!    ([`svmsyn_mem::merge`]), services cross-shard interactions (page
//!    faults, kernel completions, sync-object operations, shootdown
//!    broadcasts) at their exact recorded cycles through a deterministic
//!    `(time, seq)`-ordered control queue, and re-broadcasts the canonical
//!    state to all replicas.
//!
//! Because shards touch disjoint state inside a window and every
//! cross-shard effect is processed in a deterministic order at barriers,
//! the parallel execution ([`ExecMode::Parallel`]) is **bit-identical** to
//! running the same shards sequentially on one host thread
//! ([`ExecMode::SingleWheel`], the oracle): same makespan, same stats,
//! same memory bytes, same snapshot images. `tests/shard_equivalence.rs`
//! proves this across workloads, placements, and shard counts.
//!
//! Snapshots taken at barriers use the same image format as the serial
//! engine (`crate::sim::write_snapshot`), so checkpoints restore across
//! engines and shard counts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use svmsyn_mem::merge::{
    calendar_base, counter_base, fold_and_refresh_calendars, fold_stores, merged_memory,
    refresh_stores, CalendarBase, CounterBase,
};
use svmsyn_mem::{MemorySystem, VirtAddr};
use svmsyn_os::os::Os;
use svmsyn_sim::{Cycle, StepQueue};
use svmsyn_vm::tlb::Asid;

use crate::checkpoint::Checkpoint;
use crate::flow::{Placement, SystemDesign};
use crate::sim::{
    boot_system, read_snapshot, write_snapshot, Phase, RunProgress, ShardSyncStats, SimConfig,
    SimError, SimOutcome, SnapshotParts, SnapshotView, ThreadRt,
};
use crate::step::{
    fire_next, outcome, run_phase, sync_step, with_checkpoint, FaultStreak, RunParts, StepModel,
    SyncHost, Watchdog,
};

mod crew;
use crew::with_crew;

/// Hard ceiling on shards: the fabric's transaction-id lanes need a
/// power-of-two stride dividing its record ring, and no host this targets
/// has more cores anyway.
const MAX_SHARDS: usize = 64;

/// How the shards of one window execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One host thread per shard: shard 0 runs inline on the coordinator
    /// thread, and a crew of `shards − 1` workers, started once per
    /// [`ShardedSim::run`] call, runs the others. Between windows the
    /// workers spin briefly, then park. Each window the coordinator moves
    /// every worker's shard into that worker's slot, bumps an epoch, runs
    /// shard 0, and takes the shards back when all workers signal done. A
    /// panic in a worker's window is re-raised on the caller's thread with
    /// the worker's own payload; a panic or early return on the
    /// coordinator stops and joins the crew first.
    Parallel,
    /// All shards sequentially on the coordinator thread, in shard order —
    /// the sequential oracle the conformance suite compares against.
    SingleWheel,
}

/// The shard assignment for a design under a config.
struct ShardPlan {
    shards: usize,
    /// `owner[i]` = shard of application thread `i`.
    owner: Vec<usize>,
}

fn plan(design: &SystemDesign, cfg: &SimConfig) -> ShardPlan {
    let n = design.placements.len();
    let requested = (cfg.shards.max(1) as usize).min(n.max(1)).min(MAX_SHARDS);
    let has_sw = design.placements.contains(&Placement::Software);
    // A software thread faulting under a frame budget reclaims frames
    // inline, mid-window, invisible to the other shards until the barrier
    // — force those designs serial rather than approximate them.
    let shards = if has_sw && design.platform.os.frame_budget.is_some() {
        1
    } else {
        requested
    };
    if shards <= 1 {
        return ShardPlan {
            shards: 1,
            owner: vec![0; n],
        };
    }
    let mut owner = vec![0usize; n];
    let mut hw = 0usize;
    for (i, p) in design.placements.iter().enumerate() {
        owner[i] = match p {
            // Software threads share the OS CPU scheduler: they all live
            // on shard 0, where the OS resides during a window.
            Placement::Software => 0,
            Placement::Hardware => {
                let s = if has_sw {
                    (1 + hw) % shards
                } else {
                    hw % shards
                };
                hw += 1;
                s
            }
        };
    }
    ShardPlan { shards, owner }
}

/// The effective shard count the planner grants `design` under `cfg`:
/// `cfg.shards` clamped to the thread count (and to 64 shards), forced
/// to 1 for software-under-pressure designs. [`crate::sim::simulate`]
/// dispatches to the sharded engine exactly when this exceeds 1.
pub fn planned_shards(design: &SystemDesign, cfg: &SimConfig) -> usize {
    plan(design, cfg).shards
}

/// A cross-shard interaction recorded by a shard mid-window, exchanged at
/// the next barrier.
#[derive(Debug, Clone, Copy)]
enum Crossing {
    /// A hardware thread page-faulted and parked; the OS services the
    /// fault at the barrier at the recorded cycle.
    Fault {
        thread: u32,
        at: Cycle,
        va: VirtAddr,
        write: bool,
    },
    /// A kernel finished; its post-sync script runs on the coordinator.
    Finish { thread: u32, at: Cycle },
}

/// A coordinator control-queue entry, totally ordered by `(at, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CtrlItem {
    at: Cycle,
    seq: u64,
    thread: u32,
    kind: CtrlKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlKind {
    /// Advance the thread's pre/post sync script (or deliver it into its
    /// shard if it reached the run phase).
    Step,
    /// Service a hardware page fault against the canonical memory.
    FaultService { va: VirtAddr, write: bool },
}

impl Ord for CtrlItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for CtrlItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Mutable state one shard owns during a window. Thread slots are indexed
/// by *application* thread id; only the slots this shard owns are `Some`.
struct ShardState {
    mem: MemorySystem,
    /// The OS lives on shard 0 while a window executes (software threads
    /// and their inline minor faults need it) and on the coordinator
    /// between windows. `None` on every other shard, always.
    os: Option<Os>,
    threads: Vec<Option<ThreadRt>>,
    quantum: u64,
    retry_budget: u32,
    /// Full-size mirror of the global fault-streak table; only the slots
    /// of owned threads are ever written here.
    fault_streaks: Vec<FaultStreak>,
    /// Outbox: cross-shard interactions recorded this window.
    crossings: Vec<Crossing>,
    /// First error this shard hit (stops its window immediately; the
    /// coordinator picks the globally-first one at the barrier).
    error: Option<(Cycle, SimError)>,
    /// Events this shard may still fire this window before flagging
    /// `cap_hit` (its deterministic share of `max_events`).
    window_fired: u64,
    window_budget: u64,
    cap_hit: bool,
    /// Shootdowns applied to local threads mid-window (shard 0's inline
    /// software faults only).
    local_shootdowns: u64,
    /// Those same invalidations, queued for remote application at the
    /// barrier.
    shootdown_out: Vec<(Asid, VirtAddr)>,
}

struct Shard {
    state: ShardState,
    /// This shard's pending steps. Its seq lane restarts at `base + s`
    /// (stride `N`) every window.
    queue: StepQueue,
}

/// Applies shootdowns queued by an inline software fault to this shard's
/// own threads immediately (matching the serial engine's every-event
/// drain) and queues them for the other shards at the barrier.
fn drain_local_shootdowns(st: &mut ShardState) {
    let Some(os) = st.os.as_mut() else {
        return;
    };
    for (asid, va) in os.drain_shootdowns() {
        for t in st.threads.iter_mut().flatten() {
            t.body.shootdown(asid, va);
            st.local_shootdowns += 1;
        }
        st.shootdown_out.push((asid, va));
    }
}

/// A shard's step model: run-phase follow-ups book in the shard's seq
/// lane, while faults and kernel completions leave as crossings for the
/// coordinator to handle at the barrier.
impl StepModel for ShardState {
    fn step(&mut self, q: &mut StepQueue, i: usize) {
        // Only run-phase bodies live on shard queues; pre/post sync scripts
        // execute on the coordinator's control queue.
        let running = self.threads[i]
            .as_ref()
            .is_some_and(|t| t.phase == Phase::Run);
        if self.error.is_none() && running {
            run_phase(self, q, i);
            // Inline software faults may have queued reclaim shootdowns.
            drain_local_shootdowns(self);
        }
    }

    fn run_parts(&mut self, i: usize) -> RunParts<'_> {
        RunParts {
            rt: self.threads[i].as_mut().expect("step for unowned thread"),
            streak: &mut self.fault_streaks[i],
            mem: &mut self.mem,
            os: self.os.as_mut(),
            quantum: self.quantum,
            retry_budget: self.retry_budget,
        }
    }

    /// A hardware fault parks the thread until the barrier services it.
    fn fault(&mut self, _: &mut StepQueue, i: usize, at: Cycle, va: VirtAddr, write: bool) {
        self.crossings.push(Crossing::Fault {
            thread: i as u32,
            at,
            va,
            write,
        });
    }

    fn finished(&mut self, _: &mut StepQueue, i: usize, at: Cycle) {
        self.crossings.push(Crossing::Finish {
            thread: i as u32,
            at,
        });
    }

    /// Stops this shard's window; the coordinator picks the globally-first
    /// error at the barrier.
    fn fail(&mut self, at: Cycle, error: SimError) {
        self.error = Some((at, error));
    }
}

/// Fires one shard's queue through the window `[.., end)`. Stops early on
/// a shard-local error or when the shard's deterministic event budget for
/// this window runs out.
fn run_window(sh: &mut Shard, end: Cycle) {
    loop {
        if sh.state.error.is_some() || sh.state.cap_hit {
            return;
        }
        match sh.queue.peek_time() {
            Some(at) if at < end => {
                fire_next(&mut sh.state, &mut sh.queue);
                sh.state.window_fired += 1;
                if sh.state.window_fired >= sh.state.window_budget {
                    sh.state.cap_hit = true;
                }
            }
            _ => return,
        }
    }
}

/// The first error of a run, ordered by `(cycle, shard)` so the pick is
/// independent of host-thread interleaving (`usize::MAX` = coordinator).
struct PendingError {
    at: Cycle,
    shard: usize,
    error: SimError,
}

/// A sharded full-system simulation: the coordinator plus its shards.
///
/// Mirrors the [`crate::sim::Sim`] driver API (`new` / `run` / `finish` /
/// `snapshot` / `restore`), produces the same [`SimOutcome`] (plus
/// [`ShardSyncStats`]), and reads/writes the same checkpoint format.
pub struct ShardedSim<'d> {
    design: &'d SystemDesign,
    cfg: SimConfig,
    mode: ExecMode,
    owner: Vec<usize>,
    /// `master_owner[m]` = shard owning fabric master `m` (master `i + 1`
    /// belongs to thread `i`; master 0 to shard 0).
    master_owner: Vec<usize>,
    n_shards: usize,
    shards: Vec<Shard>,
    /// The canonical memory: ground truth between windows, written only by
    /// the coordinator (barrier fault services and store folds).
    canon: MemorySystem,
    os: Option<Os>,
    asid: Asid,
    sync_ids: Vec<u32>,
    buffer_vas: Vec<VirtAddr>,
    /// Barrier control queue, processed in `(at, seq)` order.
    heap: BinaryHeap<Reverse<CtrlItem>>,
    /// Run-phase activations staged during control processing, delivered
    /// into shard queues (clamped to the window start) before dispatch.
    deliveries: Vec<(Cycle, u32)>,
    finished: usize,
    error: Option<PendingError>,
    shootdowns: u64,
    /// Global seq floor: heap items and barrier deliveries draw from it
    /// directly; window lanes start above it and it absorbs their maximum
    /// after every window.
    next_seq: u64,
    /// End of the last executed window; windows never re-open earlier
    /// time.
    clock: Cycle,
    /// The lookahead window length `W`.
    window: u64,
    /// Control-queue items processed (they count as events, as they do on
    /// the serial queue).
    ctrl_fired: u64,
    /// Events fired before this instance existed (restore carry-over).
    base_fired: u64,
    watchdog: Watchdog,
    last_pause_events: u64,
    cal_bases: Vec<CalendarBase>,
    ctr_bases: Vec<CounterBase>,
    sync_stats: ShardSyncStats,
}

fn align_up(x: u64, stride: u64) -> u64 {
    x.div_ceil(stride) * stride
}

/// Clones the canonical memory into one replica per shard, with store
/// journaling on and disjoint fabric transaction-id lanes, and captures
/// the calendar/counter bases the barrier folds diff against.
fn build_replicas(
    canon: &MemorySystem,
    n_shards: usize,
) -> (Vec<MemorySystem>, Vec<CalendarBase>, Vec<CounterBase>) {
    let stride = (n_shards.next_power_of_two() as u64).max(1);
    let start = align_up(canon.fabric_next_txn_id(), stride);
    let mut mems = Vec::with_capacity(n_shards);
    let mut cals = Vec::with_capacity(n_shards);
    let mut ctrs = Vec::with_capacity(n_shards);
    for s in 0..n_shards {
        let mut m = canon.clone();
        m.enable_store_journal();
        m.set_fabric_id_lane(start + s as u64, stride);
        cals.push(calendar_base(&m));
        ctrs.push(counter_base(&m));
        mems.push(m);
    }
    (mems, cals, ctrs)
}

impl<'d> ShardedSim<'d> {
    /// Boots the system (same elaboration as [`crate::sim::Sim::new`]) and
    /// partitions it across the planned shards.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Os`] when setup fails.
    pub fn new(
        design: &'d SystemDesign,
        cfg: &SimConfig,
        mode: ExecMode,
    ) -> Result<ShardedSim<'d>, SimError> {
        // Every booted thread starts in its pre-sync phase, so its first
        // step lands on the control queue.
        Ok(Self::from_parts(design, cfg, mode, boot_system(design)?))
    }

    /// The conservative lookahead window: an override when configured,
    /// otherwise the larger of the quantum (threads re-book their queue at
    /// most once per quantum) and the fabric's minimum issue-to-complete
    /// latency (nothing crosses shards faster than one transaction).
    fn window_len(cfg: &SimConfig, mem: &MemorySystem) -> u64 {
        if cfg.shard_window > 0 {
            cfg.shard_window
        } else {
            cfg.quantum.max(mem.min_issue_to_complete()).max(1)
        }
    }

    /// The end of the last executed window (the barrier the coordinator is
    /// at).
    pub fn now(&self) -> Cycle {
        self.clock
    }

    /// Total events fired across all shard queues and the control queue.
    pub fn events_fired(&self) -> u64 {
        self.base_fired
            + self.ctrl_fired
            + self
                .shards
                .iter()
                .map(|s| s.queue.events_fired())
                .sum::<u64>()
    }

    fn note_error(&mut self, at: Cycle, shard: usize, error: SimError) {
        let better = match &self.error {
            None => true,
            Some(e) => (at, shard) < (e.at, e.shard),
        };
        if better {
            self.error = Some(PendingError { at, shard, error });
        }
    }

    fn take_error(&mut self) -> Option<SimError> {
        let e = self.error.take()?;
        Some(with_checkpoint(e.error, || self.snapshot()))
    }

    fn push_ctrl(&mut self, at: Cycle, thread: u32, kind: CtrlKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(CtrlItem {
            at,
            seq,
            thread,
            kind,
        }));
    }

    /// Broadcasts shootdowns queued by a barrier-time fault service to
    /// every thread on every shard (the serial engine's per-event drain,
    /// at barrier granularity).
    fn drain_coordinator_shootdowns(&mut self) {
        let os = self.os.as_mut().expect("os home");
        for (asid, va) in os.drain_shootdowns() {
            for sh in &mut self.shards {
                for t in sh.state.threads.iter_mut().flatten() {
                    t.body.shootdown(asid, va);
                    self.shootdowns += 1;
                }
            }
        }
    }

    fn ctrl_step(&mut self, item: CtrlItem) {
        let i = item.thread as usize;
        match item.kind {
            CtrlKind::FaultService { va, write } => {
                let asid = self.asid;
                let os = self.os.as_mut().expect("os home");
                match os.service_fault(asid, va, write, true, &mut self.canon, item.at) {
                    Ok(done) => self.deliveries.push((done, item.thread)),
                    Err(fault) => {
                        let name = self.thread(i).name.clone();
                        self.note_error(
                            item.at,
                            usize::MAX,
                            SimError::Segv {
                                thread: name,
                                fault,
                            },
                        );
                    }
                }
            }
            CtrlKind::Step => match self.thread(i).phase {
                Phase::Pre(_) | Phase::Post(_) => sync_step(self, item.at, i),
                // A step for a run-phase thread is an activation (restore
                // routing, wake handoffs): deliver it into its shard.
                Phase::Run => self.deliveries.push((item.at, item.thread)),
                Phase::Done => {}
            },
        }
    }

    /// Processes every control item strictly before `end`, at its exact
    /// recorded cycle, in deterministic `(at, seq)` order.
    fn process_control(&mut self, end: Cycle) {
        while self.error.is_none() {
            match self.heap.peek() {
                Some(&Reverse(item)) if item.at < end => {
                    self.heap.pop();
                    self.ctrl_fired += 1;
                    self.ctrl_step(item);
                    self.drain_coordinator_shootdowns();
                }
                _ => break,
            }
        }
    }

    /// Delivers staged run-phase activations into their shards' queues,
    /// clamped to the window start `t` (conservative-exact: a completion
    /// computed in a past window cannot re-open closed time).
    fn flush_deliveries(&mut self, t: Cycle) {
        let deliveries = std::mem::take(&mut self.deliveries);
        for (at, thread) in deliveries {
            let s = self.owner[thread as usize];
            let seq = self.next_seq;
            self.next_seq += 1;
            self.shards[s].queue.push_seq(at.max(t), seq, thread);
        }
    }

    /// Executes one window `[t, e)` on every shard through `dispatch` (the
    /// configured mode). The OS migrates to shard 0 for the window's
    /// duration.
    fn run_windows(&mut self, e: Cycle, dispatch: &mut impl FnMut(&mut Vec<Shard>, Cycle)) {
        let fired_base = self.events_fired();
        let lane_base = self.next_seq;
        // Each shard gets the full remaining event budget as its
        // deterministic cap: the authoritative total check happens at the
        // barrier, this only bounds a runaway single window.
        let budget = (self.cfg.max_events + 1).saturating_sub(fired_base).max(1);
        for (s, sh) in self.shards.iter_mut().enumerate() {
            sh.queue.set_next_seq(lane_base + s as u64);
            sh.state.window_fired = 0;
            sh.state.window_budget = budget;
            sh.state.cap_hit = false;
        }
        self.shards[0].state.os = self.os.take();
        dispatch(&mut self.shards, e);
        self.os = self.shards[0].state.os.take();
        let lane_max = self
            .shards
            .iter()
            .map(|sh| sh.queue.next_seq())
            .max()
            .unwrap_or(lane_base);
        self.next_seq = self.next_seq.max(lane_max);
    }

    /// Collects every shard's outbox into the control queue (shard order,
    /// then emission order — deterministic) and accounts the barrier-wait
    /// cost of the window `[t, e)`.
    fn collect_crossings(&mut self, t: Cycle, e: Cycle) {
        self.sync_stats.windows += 1;
        for s in 0..self.n_shards {
            let queue_now = self.shards[s].queue.now();
            let reached = queue_now.max(t).min(e);
            self.sync_stats.barrier_wait_cycles += (e - reached).0;
            let crossings = std::mem::take(&mut self.shards[s].state.crossings);
            self.sync_stats.crossings += crossings.len() as u64;
            for c in crossings {
                match c {
                    Crossing::Fault {
                        thread,
                        at,
                        va,
                        write,
                    } => self.push_ctrl(at, thread, CtrlKind::FaultService { va, write }),
                    Crossing::Finish { thread, at } => self.push_ctrl(at, thread, CtrlKind::Step),
                }
            }
        }
    }

    /// Applies shootdowns a shard broadcast locally mid-window to the
    /// *other* shards' threads, and folds the local counts into the global
    /// one — every thread sees each invalidation exactly once.
    fn apply_remote_shootdowns(&mut self) {
        for s in 0..self.n_shards {
            self.shootdowns += self.shards[s].state.local_shootdowns;
            self.shards[s].state.local_shootdowns = 0;
            let out = std::mem::take(&mut self.shards[s].state.shootdown_out);
            for (asid, va) in out {
                for (r, sh) in self.shards.iter_mut().enumerate() {
                    if r == s {
                        continue;
                    }
                    for t in sh.state.threads.iter_mut().flatten() {
                        t.body.shootdown(asid, va);
                        self.shootdowns += 1;
                    }
                }
            }
        }
    }

    /// Runs windows until completion, an error, or (with
    /// `checkpoint_every` set) a periodic barrier pause.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::sim::Sim::run`]: [`SimError::EventLimit`]
    /// and [`SimError::Thrashing`] carry a resumable barrier checkpoint.
    ///
    /// # Panics
    ///
    /// A panic inside any shard's window propagates with its own payload;
    /// an [`ExecMode::Parallel`] crew is stopped and joined first.
    pub fn run(&mut self) -> Result<RunProgress, SimError> {
        match self.mode {
            // One crew for the whole call: it parks between windows and is
            // joined on every way out (completion, error, pause, panic).
            ExecMode::Parallel if self.n_shards > 1 => {
                with_crew(self.n_shards - 1, run_window, |crew| {
                    self.run_loop(|shards, e| crew.run(shards, e))
                })
            }
            _ => self.run_loop(|shards, e| {
                for sh in shards {
                    run_window(sh, e);
                }
            }),
        }
    }

    /// The coordinator loop behind [`run`](Self::run); `dispatch` executes
    /// one window on every shard.
    fn run_loop(
        &mut self,
        mut dispatch: impl FnMut(&mut Vec<Shard>, Cycle),
    ) -> Result<RunProgress, SimError> {
        loop {
            // 1. The earliest pending activity anywhere decides the next
            //    window; silence means the run is over.
            let mut mn: Option<Cycle> = self.heap.peek().map(|&Reverse(it)| it.at);
            for sh in &self.shards {
                if let Some(t) = sh.queue.peek_time() {
                    mn = Some(mn.map_or(t, |m| m.min(t)));
                }
            }
            let Some(mn) = mn else {
                return Ok(RunProgress::Complete);
            };
            // 2. Window bounds: align down to the W grid, never behind the
            //    clock (closed time stays closed).
            let t = self.clock.max(Cycle(mn.0 / self.window * self.window));
            let e = t + self.window;
            // 3. Barrier control: sync scripts, fault services, wake
            //    handoffs — at exact cycles, in (time, seq) order.
            self.process_control(e);
            if let Some(err) = self.take_error() {
                return Err(err);
            }
            // 4. Deliver activations, then broadcast the canonical store
            //    writes (including the PTEs the fault services just
            //    wrote — a stale PTE would make the retry refault
            //    forever).
            self.flush_deliveries(t);
            {
                let mut mems: Vec<&mut MemorySystem> =
                    self.shards.iter_mut().map(|s| &mut s.state.mem).collect();
                refresh_stores(&mut self.canon, &mut mems);
            }
            // 5. The window itself.
            self.run_windows(e, &mut dispatch);
            self.clock = e;
            // 6. Exchange: crossings into the control queue, replica
            //    stores and calendars folded back into the canon, deferred
            //    shootdowns applied.
            self.collect_crossings(t, e);
            {
                let mut mems: Vec<&mut MemorySystem> =
                    self.shards.iter_mut().map(|s| &mut s.state.mem).collect();
                fold_and_refresh_calendars(&mut self.canon, &mut mems, &mut self.cal_bases);
                fold_stores(&mut self.canon, &mut mems);
            }
            self.apply_remote_shootdowns();
            // 7. Errors and watchdogs, on post-fold (snapshot-consistent)
            //    state.
            for s in 0..self.n_shards {
                if let Some((at, error)) = self.shards[s].state.error.take() {
                    self.note_error(at, s, error);
                }
            }
            if let Some(err) = self.take_error() {
                return Err(err);
            }
            let fired = self.events_fired();
            if let Some(e) = self.watchdog.check(
                &self.cfg,
                self.clock,
                fired,
                self.os.as_ref().expect("os home"),
                homes(&self.shards, &self.owner),
            ) {
                return Err(with_checkpoint(e, || self.snapshot()));
            }
            if self.cfg.checkpoint_every > 0
                && self.events_fired() - self.last_pause_events >= self.cfg.checkpoint_every
            {
                self.last_pause_events = self.events_fired();
                return Ok(RunProgress::Paused(self.snapshot()));
            }
        }
    }

    /// Serializes the run at the current barrier into the engine-shared
    /// checkpoint format: the canonical memory with every replica's
    /// progress merged in, threads in application order, and all pending
    /// activity (shard queues + control queue) as the pending-step set.
    ///
    /// The image is deterministic and identical between
    /// [`ExecMode::Parallel`] and [`ExecMode::SingleWheel`]; it restores
    /// into either engine at any shard count.
    pub fn snapshot(&self) -> Checkpoint {
        let mut steps: Vec<(Cycle, u64, u32)> = Vec::new();
        for sh in &self.shards {
            steps.extend(sh.queue.iter());
        }
        for &Reverse(it) in self.heap.iter() {
            steps.push((it.at, it.seq, it.thread));
        }
        let now = steps
            .iter()
            .map(|&(at, _, _)| at)
            .min()
            .unwrap_or(self.clock);
        let fired = self.events_fired();
        let n = self.owner.len();
        let fault_streaks: Vec<FaultStreak> = (0..n)
            .map(|i| self.shards[self.owner[i]].state.fault_streaks[i])
            .collect();
        let threads: Vec<&ThreadRt> = homes(&self.shards, &self.owner).collect();
        let mems: Vec<&MemorySystem> = self.shards.iter().map(|s| &s.state.mem).collect();
        let mem = merged_memory(&self.canon, &mems, &self.ctr_bases, &self.master_owner);
        write_snapshot(
            self.design,
            SnapshotView {
                now,
                fired,
                watchdog: self.watchdog,
                buffer_vas: &self.buffer_vas,
                mem: &mem,
                os: self.os.as_ref().expect("os home"),
                asid: self.asid,
                sync_ids: &self.sync_ids,
                finished: self.finished,
                fault_streaks,
                shootdowns: self.shootdowns,
                threads,
                next_step_seq: self.next_seq,
                steps,
            },
        )
    }

    /// Rebuilds a sharded simulation from a checkpoint image — one taken
    /// by this engine at any shard count *or* by the serial engine
    /// (pending steps route by thread phase: run-phase bodies onto their
    /// shard's queue, sync-phase scripts onto the control queue).
    ///
    /// A resumed run completes with the same outputs and final memory
    /// bytes as the uninterrupted one; exact event-count parity across a
    /// resume is only guaranteed when the shard plan matches the writer's.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] describing exactly what was
    /// rejected.
    pub fn restore(
        design: &'d SystemDesign,
        cfg: &SimConfig,
        mode: ExecMode,
        checkpoint: &Checkpoint,
    ) -> Result<ShardedSim<'d>, SimError> {
        let parts = read_snapshot(design, checkpoint)?;
        Ok(Self::from_parts(design, cfg, mode, parts))
    }

    /// Partitions a checkpointed position (the boot position for
    /// [`new`](Self::new)) across the planned shards.
    fn from_parts(
        design: &'d SystemDesign,
        cfg: &SimConfig,
        mode: ExecMode,
        parts: SnapshotParts,
    ) -> ShardedSim<'d> {
        let p = plan(design, cfg);
        let n = parts.threads.len();
        let mut canon = parts.mem;
        canon.enable_store_journal();

        let mut heap = BinaryHeap::new();
        let mut queue_steps: Vec<(Cycle, u64, u32)> = Vec::new();
        for &(at, seq, th) in &parts.steps {
            match parts.threads[th as usize].phase {
                Phase::Run => queue_steps.push((at, seq, th)),
                _ => heap.push(Reverse(CtrlItem {
                    at,
                    seq,
                    thread: th,
                    kind: CtrlKind::Step,
                })),
            }
        }

        let (mems, cal_bases, ctr_bases) = build_replicas(&canon, p.shards);
        let mut slots: Vec<Vec<Option<ThreadRt>>> = (0..p.shards)
            .map(|_| (0..n).map(|_| None).collect())
            .collect();
        for (i, t) in parts.threads.into_iter().enumerate() {
            slots[p.owner[i]][i] = Some(t);
        }
        let mut shards: Vec<Shard> = mems
            .into_iter()
            .zip(slots)
            .map(|(mem, threads)| {
                let state = ShardState {
                    mem,
                    os: None,
                    threads,
                    quantum: cfg.quantum,
                    retry_budget: cfg.fault_retry_budget,
                    fault_streaks: parts.fault_streaks.clone(),
                    crossings: Vec::new(),
                    error: None,
                    window_fired: 0,
                    window_budget: u64::MAX,
                    cap_hit: false,
                    local_shootdowns: 0,
                    shootdown_out: Vec::new(),
                };
                // The lane is set at the start of every window.
                let queue = StepQueue::new(parts.now, 0, 0, p.shards as u64);
                Shard { state, queue }
            })
            .collect();
        for (at, seq, th) in queue_steps {
            shards[p.owner[th as usize]].queue.push_seq(at, seq, th);
        }

        let mut master_owner = vec![0usize; n + 1];
        master_owner[1..=n].copy_from_slice(&p.owner[..n]);
        let window = Self::window_len(cfg, &canon);
        ShardedSim {
            design,
            cfg: *cfg,
            mode,
            owner: p.owner,
            master_owner,
            n_shards: p.shards,
            shards,
            canon,
            os: Some(parts.os),
            asid: parts.asid,
            sync_ids: parts.sync_ids,
            buffer_vas: parts.buffer_vas,
            heap,
            deliveries: Vec::new(),
            finished: parts.finished,
            error: None,
            shootdowns: parts.shootdowns,
            next_seq: parts.next_step_seq,
            clock: parts.now,
            window,
            ctrl_fired: 0,
            base_fired: parts.fired,
            watchdog: parts.watchdog,
            last_pause_events: parts.fired,
            cal_bases,
            ctr_bases,
            sync_stats: ShardSyncStats {
                shards: p.shards as u64,
                window_len: window,
                ..ShardSyncStats::default()
            },
        }
    }

    /// Consumes the simulation and assembles the outcome (with
    /// [`SimOutcome::sync`] filled in). Call after [`run`](Self::run)
    /// returns [`RunProgress::Complete`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when threads remain blocked.
    pub fn finish(mut self) -> Result<SimOutcome, SimError> {
        if let Some(err) = self.take_error() {
            return Err(err);
        }
        let mems: Vec<&MemorySystem> = self.shards.iter().map(|s| &s.state.mem).collect();
        let mem = merged_memory(&self.canon, &mems, &self.ctr_bases, &self.master_owner);
        let threads = (0..self.owner.len())
            .map(|i| self.shards[self.owner[i]].state.threads[i].take())
            .map(|t| t.expect("thread home"))
            .collect();
        outcome(
            threads,
            self.buffer_vas,
            mem,
            self.os.take().expect("os home"),
            self.asid,
            self.shootdowns,
            Some(self.sync_stats),
        )
    }
}

/// Every thread runtime in application order, each from its home shard.
fn homes<'a>(shards: &'a [Shard], owner: &'a [usize]) -> impl Iterator<Item = &'a ThreadRt> {
    owner
        .iter()
        .enumerate()
        .map(|(i, &s)| shards[s].state.threads[i].as_ref().expect("thread home"))
}

/// The coordinator as a sync-script host: follow-ups go on the control
/// queue, and a thread entering its run phase is delivered into its shard
/// before the next window.
impl SyncHost for ShardedSim<'_> {
    fn thread(&mut self, i: usize) -> &mut ThreadRt {
        self.shards[self.owner[i]].state.threads[i]
            .as_mut()
            .expect("thread home")
    }

    fn os(&mut self) -> (&mut Os, &[u32]) {
        (self.os.as_mut().expect("os home"), &self.sync_ids)
    }

    fn book(&mut self, at: Cycle, i: usize) {
        self.push_ctrl(at, i as u32, CtrlKind::Step);
    }

    fn retire(&mut self) {
        self.finished += 1;
    }

    fn enter_run(&mut self, at: Cycle, i: usize) {
        self.deliveries.push((at, i as u32));
    }
}

/// Simulates a design on the sharded engine to completion (resuming
/// transparently through `checkpoint_every` pauses), regardless of the
/// planner outcome — a 1-shard plan still runs through the coordinator
/// (useful as its own degenerate oracle).
///
/// # Errors
///
/// Same contract as [`crate::sim::simulate`].
pub fn simulate_sharded(
    design: &SystemDesign,
    cfg: &SimConfig,
    mode: ExecMode,
) -> Result<SimOutcome, SimError> {
    let mut sim = ShardedSim::new(design, cfg, mode)?;
    while !matches!(sim.run()?, RunProgress::Complete) {}
    sim.finish()
}

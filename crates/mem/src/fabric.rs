//! The split-transaction memory fabric.
//!
//! The fabric replaces the blocking `Bus::grant()` call-return of the early
//! model (retained as [`reference::FcfsBus`](crate::reference::FcfsBus))
//! with an **issue/complete** transaction interface: a master
//! [`issue`](SplitFabric::issue)s a [`TxnDesc`] and receives a [`TxnId`];
//! completion is observed later via [`poll`](SplitFabric::poll) or by
//! draining the per-master completion queue. Three mechanisms let
//! independent masters overlap where the blocking bus serialized them:
//!
//! * a per-master **outstanding window** (configurable depth): up to
//!   `window` transactions of one master may be in flight at once, so a
//!   master's own DRAM latencies overlap instead of round-tripping;
//! * **MSHR-style miss registers**: concurrent reads that land on the same
//!   `mshr_line_bytes` line — from *any* master — merge onto the
//!   transaction already in flight and complete with it, paying no second
//!   bus or DRAM occupancy;
//! * separate **address and data-beat phases**: the address phase occupies
//!   the address channel for `arb_cycles` only, the data beats occupy the
//!   data channel once DRAM delivers — so master B's address phase and data
//!   beats interleave with master A's DRAM latency instead of queueing
//!   behind A's whole transaction.
//!
//! **The degenerate point is the old bus.** With `window == 1` and
//! `mshrs == 0` ([`FabricConfig::blocking`]) the fabric holds the (unified)
//! channel for the whole address+data occupancy and completes at
//! `max(bus_done, bank_done)` — cycle-identical to the FCFS oracle. The
//! differential suite in `tests/fabric_conformance.rs` replays
//! proptest-generated multi-master streams against
//! [`reference::FcfsBus`](crate::reference::FcfsBus) to pin this down.
//!
//! Timing is calendar-analytic like the rest of the stack: completion times
//! are computed at issue. Channel slots are granted in *issue order* (the
//! in-order slotting of a real pipelined bus without reordering buffers), so
//! no master starves — the fairness property tests assert bounded per-
//! transaction latency under adversarial streams.

use std::collections::VecDeque;

use svmsyn_sim::{Cycle, FcfsResource, StatSet};

use crate::addr::PhysAddr;
use crate::dram::Dram;

/// Identifies a bus master for windowing and accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MasterId(pub u16);

impl std::fmt::Display for MasterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Direction of a transaction (reads are MSHR-mergeable, writes are not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// A read: data flows memory → master.
    Read,
    /// A write (or writeback): data flows master → memory.
    Write,
}

/// One transaction request, as handed to [`SplitFabric::issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnDesc {
    /// The issuing master.
    pub master: MasterId,
    /// Physical start address.
    pub addr: PhysAddr,
    /// Transfer length in bytes (at most one burst; callers split larger
    /// transfers).
    pub bytes: u64,
    /// Read or write.
    pub kind: TxnKind,
}

/// Handle of an issued transaction, used to poll its completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId(u64);

/// Fabric parameters (times in fabric cycles).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FabricConfig {
    /// Data bytes transferred per cycle.
    pub width_bytes: u64,
    /// Address-phase (arbitration) cost per transaction.
    pub arb_cycles: u64,
    /// Per-master outstanding-transaction window. `1` means a blocking
    /// master; together with `mshrs == 0` it selects the FCFS-oracle path.
    pub window: u32,
    /// Miss-status holding registers: concurrently tracked in-flight read
    /// lines. `0` disables same-line merging.
    pub mshrs: u32,
    /// Merge granularity of the MSHRs in bytes (power of two).
    pub mshr_line_bytes: u64,
}

impl Default for FabricConfig {
    /// The `DESIGN.md` §4 channel (8 B/cycle, 4-cycle address phase) with a
    /// modest AXI-class outstanding capability: 4-deep windows, 4 MSHRs over
    /// 64 B lines.
    fn default() -> Self {
        FabricConfig {
            width_bytes: 8,
            arb_cycles: 4,
            window: 4,
            mshrs: 4,
            mshr_line_bytes: 64,
        }
    }
}

impl FabricConfig {
    /// The degenerate blocking configuration: depth-1 windows, no MSHRs.
    /// Cycle-identical to [`reference::FcfsBus`](crate::reference::FcfsBus).
    pub fn blocking() -> Self {
        FabricConfig {
            window: 1,
            mshrs: 0,
            ..FabricConfig::default()
        }
    }

    /// Whether this configuration runs the split (phase-decoupled) path.
    /// Depth-1 windows with no MSHRs degenerate to the held-bus oracle.
    pub fn split(&self) -> bool {
        self.window > 1 || self.mshrs > 0
    }

    /// Data beats a transfer of `len` bytes occupies the data channel for.
    pub fn beats(&self, len: u64) -> u64 {
        len.div_ceil(self.width_bytes).max(1)
    }
}

/// Depth of the transaction-record ring: completions must be polled within
/// this many subsequently issued transactions (every in-tree master polls
/// immediately or within one batch).
const RECORD_RING: usize = 4096;

/// Per-master completion-queue depth beyond the window (a hardware
/// completion FIFO is sized to the window; the slack absorbs merged reads).
const COMPLETION_SLACK: usize = 8;

#[derive(Debug, Clone, Copy)]
pub(crate) struct TxnRecord {
    pub(crate) id: u64,
    pub(crate) completion: Cycle,
    pub(crate) next_issue: Cycle,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct MasterStats {
    transactions: u64,
    bytes: u64,
    /// Cycles spent waiting for the address channel (post-window).
    wait_cycles: u64,
    /// Cycles transaction issue was deferred because the window was full.
    window_stall_cycles: u64,
    /// Reads merged onto an in-flight same-line transaction.
    merges: u64,
    /// Σ (completion − arrival): the occupancy integral. Divided by the
    /// master's busy span this is its mean outstanding depth.
    inflight_cycles: u64,
    /// Completions evicted from the bounded completion FIFO before a
    /// FIFO-consuming master drained them — a lost event, asserted zero by
    /// the conformance suite. Analytic (poll-only) masters never consume
    /// the FIFO and are not counted.
    dropped_completions: u64,
    first_issue: Option<Cycle>,
    last_completion: Cycle,
}

#[derive(Debug, Clone)]
pub(crate) struct MasterState {
    /// Completion times of the last `window` transactions, a ring indexed by
    /// issue count: transaction `n` may not issue before transaction
    /// `n − window` completed.
    window_ring: Vec<Cycle>,
    issued: u64,
    /// Undrained completions, oldest first, capped at
    /// `window + COMPLETION_SLACK`.
    completions: VecDeque<(TxnId, Cycle)>,
    /// Whether this master has ever drained its completion FIFO. Analytic
    /// masters that only `poll` never consume the FIFO, so its recycling
    /// is not a lost event for them; drops are only counted for consumers.
    fifo_consumer: bool,
    /// Registered completion waiters `(txn, completion)`, in registration
    /// order. A waiter survives until [`SplitFabric::drain_woken`] removes
    /// it — it never ages out, so a registered wakeup cannot be lost.
    waiters: Vec<(TxnId, Cycle)>,
    stats: MasterStats,
}

impl MasterState {
    fn new(window: u32) -> Self {
        MasterState {
            window_ring: vec![Cycle::ZERO; window.max(1) as usize],
            issued: 0,
            completions: VecDeque::new(),
            fifo_consumer: false,
            waiters: Vec::new(),
            stats: MasterStats::default(),
        }
    }
}

/// The split-transaction fabric arbiter: address channel, data channel,
/// per-master windows, and the MSHR file.
///
/// # Example
///
/// ```
/// use svmsyn_mem::{Dram, DramConfig, FabricConfig, MasterId, PhysAddr, SplitFabric, TxnDesc, TxnKind};
/// use svmsyn_sim::Cycle;
/// let mut fabric = SplitFabric::new(FabricConfig::default());
/// let mut dram = Dram::new(DramConfig::default());
/// let desc = |m: u16, addr: u64| TxnDesc {
///     master: MasterId(m),
///     addr: PhysAddr(addr),
///     bytes: 64,
///     kind: TxnKind::Read,
/// };
/// // Two independent masters issue at the same cycle and stay outstanding.
/// let a = fabric.issue(&mut dram, desc(0, 0x0000), Cycle(0));
/// let b = fabric.issue(&mut dram, desc(1, 0x4000), Cycle(0));
/// assert!(fabric.poll(b) > Cycle(0));
/// assert!(fabric.poll(a) > Cycle(0));
/// ```
#[derive(Debug, Clone)]
pub struct SplitFabric {
    cfg: FabricConfig,
    /// Address channel; in the blocking configuration it is the unified bus
    /// and holds each transaction for the full address+data occupancy.
    pub(crate) addr_bus: FcfsResource,
    /// Data channel (split mode only).
    pub(crate) data_bus: FcfsResource,
    pub(crate) masters: Vec<MasterState>,
    /// In-flight read lines: `(line base, completion)`.
    pub(crate) mshrs: Vec<(u64, Cycle)>,
    /// Every in-flight transaction's `(master, first line, last line,
    /// completion)`. A merged read's completion is clamped to no earlier
    /// than its own master's in-flight traffic on the same line — the MSHR
    /// bypass must never reorder a master's same-line transactions
    /// (reads, writes, or earlier merges alike). Purged as entries retire,
    /// so the list stays at most `window` entries per master.
    pub(crate) inflight_lines: Vec<(MasterId, u64, u64, Cycle)>,
    pub(crate) records: Vec<Option<TxnRecord>>,
    pub(crate) next_id: u64,
    /// Transaction-id lane stride. The serial simulator keeps the default of
    /// 1 (dense ids). The sharded core gives each shard's fabric replica a
    /// disjoint id lane (`start + k * stride`) so transactions issued
    /// concurrently on different shards can never collide — and, because the
    /// stride is a power of two dividing [`RECORD_RING`], different lanes can
    /// never alias the same record-ring slot. Transient merge bookkeeping:
    /// deliberately not serialized (restore re-derives lanes).
    pub(crate) id_stride: u64,
}

impl SplitFabric {
    /// Creates an idle fabric.
    ///
    /// # Panics
    ///
    /// Panics if `width_bytes` or `window` is zero, or `mshr_line_bytes` is
    /// not a power of two.
    pub fn new(cfg: FabricConfig) -> Self {
        assert!(cfg.width_bytes > 0, "fabric width must be positive");
        assert!(cfg.window > 0, "outstanding window must be at least 1");
        assert!(
            cfg.mshr_line_bytes.is_power_of_two(),
            "mshr_line_bytes must be a power of two"
        );
        SplitFabric {
            cfg,
            addr_bus: FcfsResource::new("fabric.addr"),
            data_bus: FcfsResource::new("fabric.data"),
            masters: Vec::new(),
            mshrs: Vec::new(),
            inflight_lines: Vec::new(),
            records: vec![None; RECORD_RING],
            next_id: 0,
            id_stride: 1,
        }
    }

    /// Moves this fabric replica onto a disjoint transaction-id lane: ids
    /// issue as `start, start + stride, start + 2*stride, ...`. Used by the
    /// sharded simulation core; the serial path never calls this and keeps
    /// dense ids (`stride == 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `stride` is a power of two dividing the record ring
    /// (lanes must never alias a ring slot) and `start` is at least the
    /// current `next_id` (ids stay monotone).
    pub fn set_id_lane(&mut self, start: u64, stride: u64) {
        assert!(
            stride.is_power_of_two() && (RECORD_RING as u64).is_multiple_of(stride),
            "id lane stride must be a power of two dividing the record ring"
        );
        assert!(start >= self.next_id, "id lane must not reuse issued ids");
        self.next_id = start;
        self.id_stride = stride;
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    pub(crate) fn master_state(&mut self, master: MasterId) -> &mut MasterState {
        let idx = master.0 as usize;
        if idx >= self.masters.len() {
            let window = self.cfg.window;
            self.masters
                .resize_with(idx + 1, || MasterState::new(window));
        }
        &mut self.masters[idx]
    }

    /// Whether `desc` is a read contained in one MSHR line (merge-eligible).
    fn mergeable(&self, desc: &TxnDesc) -> bool {
        let line = self.cfg.mshr_line_bytes;
        desc.kind == TxnKind::Read
            && self.cfg.mshrs > 0
            && desc.bytes <= line
            && (desc.addr.0 & !(line - 1)) == ((desc.addr.0 + desc.bytes.max(1) - 1) & !(line - 1))
    }

    /// Issues a transaction arriving at `now`; DRAM timing comes from
    /// `dram`. Returns the transaction's id; the completion time is
    /// available immediately via [`poll`](Self::poll) (the model is
    /// calendar-analytic) and is also pushed onto the master's completion
    /// queue.
    pub fn issue(&mut self, dram: &mut Dram, desc: TxnDesc, now: Cycle) -> TxnId {
        let split = self.cfg.split();
        let window = self.cfg.window as u64;

        // Window throttle: transaction n waits for transaction n − window.
        let (ready, stall) = {
            let m = self.master_state(desc.master);
            let slot = (m.issued % window) as usize;
            let ready = if split {
                now.max(m.window_ring[slot])
            } else {
                // Blocking configuration: the master's own call-return
                // discipline enforces depth 1, exactly as the FCFS oracle.
                now
            };
            (ready, (ready - now).0)
        };

        // Per-master purge of the retired in-flight records, once per
        // issue: `ready` is monotonic per master but NOT across masters,
        // so using it as a global clock would evict other masters'
        // still-in-flight entries and break their ordering clamps. The
        // MSHR file is never bulk-purged — `done > ready` in the probe
        // itself decides in-flight-ness relative to *this* requester, so
        // merge behavior cannot depend on unrelated masters' clock skew.
        if split && self.cfg.mshrs > 0 {
            self.inflight_lines
                .retain(|&(m, _, _, done)| m != desc.master || done > ready);
        }

        // MSHR probe: ride an in-flight read of the same line. The merged
        // completion is clamped to the issuing master's own in-flight
        // same-line traffic, so the bypass never reorders a master's
        // transactions to one line.
        let mut merged = None;
        if split && self.mergeable(&desc) {
            let line = desc.addr.0 & !(self.cfg.mshr_line_bytes - 1);
            if let Some(&(_, done)) = self
                .mshrs
                .iter()
                .find(|&&(l, done)| l == line && done > ready)
            {
                let own_order_floor = self
                    .inflight_lines
                    .iter()
                    .filter(|&&(m, first, last, _)| {
                        m == desc.master && first <= line && line <= last
                    })
                    .map(|&(_, _, _, d)| d)
                    .max()
                    .unwrap_or(Cycle::ZERO);
                merged = Some(done.max(own_order_floor));
            }
        }

        let (completion, next_issue, wait) = match merged {
            Some(done) => (done, ready, 0),
            None => {
                let beats = self.cfg.beats(desc.bytes);
                if split {
                    let (a_start, a_done) = self.addr_bus.acquire(ready, self.cfg.arb_cycles);
                    // The bank starts as the address phase delivers the
                    // command (same overlap the blocking oracle assumes),
                    // and the data beats stream onto the channel as the
                    // bank produces them: the channel slot begins `beats`
                    // before the bank finishes, never before the address
                    // phase ends — so an uncontended transaction completes
                    // at `max(bank_done, a_done + beats)`.
                    let bank_done = dram.access(desc.addr, desc.bytes, a_start);
                    let stream = Cycle(bank_done.0.saturating_sub(beats)).max(a_done);
                    let (_, d_done) = self.data_bus.acquire(stream, beats);
                    (d_done.max(bank_done), a_done, (a_start - ready).0)
                } else {
                    let (start, bus_done) =
                        self.addr_bus.acquire(ready, self.cfg.arb_cycles + beats);
                    let bank_done = dram.access(desc.addr, desc.bytes, start);
                    (bus_done.max(bank_done), bus_done, (start - ready).0)
                }
            }
        };

        // Track the new in-flight line if an MSHR is free, and record every
        // in-flight transaction (merged ones too) for the same-line
        // ordering clamp above.
        if split && self.cfg.mshrs > 0 {
            if merged.is_none() && self.mergeable(&desc) {
                let line = desc.addr.0 & !(self.cfg.mshr_line_bytes - 1);
                // Capacity reclaim happens only at allocation, and only of
                // the single earliest-completing retired entry — never a
                // bulk purge against this requester's clock, which is not
                // a global clock and would evict entries that masters
                // running behind it could still legitimately merge with.
                // A full file of still-in-flight entries means the new
                // miss simply goes untracked, as in hardware.
                if self.mshrs.len() as u32 >= self.cfg.mshrs {
                    if let Some(i) = (0..self.mshrs.len())
                        .filter(|&i| self.mshrs[i].1 <= ready)
                        .min_by_key(|&i| self.mshrs[i].1)
                    {
                        self.mshrs.swap_remove(i);
                    }
                }
                if (self.mshrs.len() as u32) < self.cfg.mshrs {
                    self.mshrs.push((line, completion));
                }
            }
            let line = self.cfg.mshr_line_bytes;
            let first = desc.addr.0 & !(line - 1);
            let last = (desc.addr.0 + desc.bytes.max(1) - 1) & !(line - 1);
            self.inflight_lines
                .push((desc.master, first, last, completion));
        }

        let id = TxnId(self.next_id);
        self.next_id += self.id_stride;
        self.records[(id.0 % RECORD_RING as u64) as usize] = Some(TxnRecord {
            id: id.0,
            completion,
            next_issue,
        });

        let m = self.master_state(desc.master);
        let slot = (m.issued % window) as usize;
        m.window_ring[slot] = completion;
        m.issued += 1;
        m.completions.push_back((id, completion));
        let cap = window as usize + COMPLETION_SLACK;
        while m.completions.len() > cap {
            // Every eviction is counted; `stats()` reports the count only
            // for FIFO-consuming masters (so a master that starts draining
            // late still surfaces its earlier losses, while analytic
            // poll-only masters — which are expected to let the FIFO
            // recycle — don't read as lossy).
            m.completions.pop_front();
            m.stats.dropped_completions += 1;
        }
        let s = &mut m.stats;
        s.transactions += 1;
        s.bytes += desc.bytes;
        s.wait_cycles += wait;
        s.window_stall_cycles += stall;
        if merged.is_some() {
            s.merges += 1;
        }
        s.inflight_cycles += (completion - now).0;
        s.first_issue.get_or_insert(now);
        s.last_completion = s.last_completion.max(completion);
        id
    }

    fn record(&self, id: TxnId) -> &TxnRecord {
        let rec = self.records[(id.0 % RECORD_RING as u64) as usize]
            .as_ref()
            .expect("polled a transaction that was never issued");
        assert_eq!(
            rec.id, id.0,
            "transaction record retired from the ring — poll completions promptly"
        );
        rec
    }

    /// Completion time of transaction `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued or its record has been retired from
    /// the bounded ring (issue more than about 4,096 transactions without
    /// polling and the oldest records recycle).
    pub fn poll(&self, id: TxnId) -> Cycle {
        self.record(id).completion
    }

    /// The earliest time the issuing master may hand the fabric its next
    /// *sequenced* transaction (the address-channel handshake of `id`): the
    /// split path releases at the end of the address phase, the blocking
    /// path at bus release. Dependent work (a walk's leaf read, a burst
    /// chain) keys off this instead of the full completion.
    pub fn next_issue(&self, id: TxnId) -> Cycle {
        self.record(id).next_issue
    }

    /// Drains `master`'s completion queue up to and including `upto`,
    /// oldest first. Completions older than the queue depth
    /// (`window + 8`) are dropped at issue time, mirroring a completion
    /// FIFO sized to the window; each drop is counted in
    /// `m{i}.dropped_completions` — a lost wakeup under event-driven
    /// delivery, so well-behaved masters keep it at zero (or register a
    /// [waiter](Self::register_waiter), which never ages out).
    pub fn drain_completions(&mut self, master: MasterId, upto: Cycle) -> Vec<(TxnId, Cycle)> {
        let m = self.master_state(master);
        m.fifo_consumer = true;
        let mut out = Vec::new();
        while let Some(&(id, done)) = m.completions.front() {
            if done > upto {
                break;
            }
            out.push((id, done));
            m.completions.pop_front();
        }
        out
    }

    /// Transactions currently waiting in `master`'s completion queue.
    pub fn pending_completions(&self, master: MasterId) -> usize {
        self.masters
            .get(master.0 as usize)
            .map_or(0, |m| m.completions.len())
    }

    /// Attaches `master` to the fabric without issuing anything: its
    /// per-master stats row is emitted (all zeros until it transacts), so a
    /// configured-but-wedged master stays visible in
    /// [`stats`](Self::stats) instead of silently vanishing.
    pub fn attach(&mut self, master: MasterId) {
        self.master_state(master);
    }

    // ------------------------------------------------------------------
    // Completion-event hook: registered waiters per (master, TxnId).
    //
    // The timing model is calendar-analytic — a transaction's completion
    // cycle is known at issue — so "delivering" a completion event means
    // scheduling a wake at exactly that cycle. A consumer that parks on a
    // transaction registers a waiter; the returned cycle is the exact wake
    // time to hand the discrete-event scheduler, and `drain_woken` confirms
    // delivery (waiters never age out, unlike the bounded completion FIFO,
    // so a registered wakeup cannot be lost).
    // ------------------------------------------------------------------

    /// Registers a completion waiter for `(master, id)` and returns the
    /// exact completion cycle to schedule the wake at.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued or already retired from the record
    /// ring (register promptly, like polling).
    pub fn register_waiter(&mut self, master: MasterId, id: TxnId) -> Cycle {
        let done = self.record(id).completion;
        self.master_state(master).waiters.push((id, done));
        done
    }

    /// The earliest wake cycle among `master`'s registered waiters.
    pub fn next_wake(&self, master: MasterId) -> Option<Cycle> {
        self.masters
            .get(master.0 as usize)
            .and_then(|m| m.waiters.iter().map(|&(_, done)| done).min())
    }

    /// Removes and returns every registered waiter of `master` whose
    /// transaction has completed by `now`, in registration order.
    pub fn drain_woken(&mut self, master: MasterId, now: Cycle) -> Vec<(TxnId, Cycle)> {
        let m = self.master_state(master);
        let mut woken = Vec::new();
        m.waiters.retain(|&(id, done)| {
            if done <= now {
                woken.push((id, done));
                false
            } else {
                true
            }
        });
        woken
    }

    /// Total cycles the data-carrying channel spent busy (the unified bus in
    /// the blocking configuration; the data channel in split mode).
    pub fn busy_cycles(&self) -> u64 {
        if self.cfg.split() {
            self.data_bus.busy_cycles()
        } else {
            self.addr_bus.busy_cycles()
        }
    }

    /// Data-channel utilization over `elapsed`.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed.0 == 0 {
            0.0
        } else {
            (self.busy_cycles() as f64 / elapsed.0 as f64).min(1.0)
        }
    }

    /// Bytes transferred by `master` so far.
    pub fn master_bytes(&self, master: MasterId) -> u64 {
        self.masters
            .get(master.0 as usize)
            .map_or(0, |m| m.stats.bytes)
    }

    /// Reads merged onto in-flight same-line transactions, all masters.
    pub fn merges(&self) -> u64 {
        self.masters.iter().map(|m| m.stats.merges).sum()
    }

    /// Counter snapshot, including per-master overlap/occupancy breakdowns.
    ///
    /// Per master `N`: `mN.transactions`, `mN.bytes`, `mN.wait_cycles`
    /// (address-channel wait), `mN.window_stall_cycles` (issue deferred by a
    /// full window), `mN.merges`, `mN.inflight_cycles` (occupancy integral),
    /// and `mN.overlap` — mean outstanding depth over the master's busy
    /// span, `1.0` for a perfectly blocking master, above it when
    /// transactions overlap.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("busy_cycles", self.busy_cycles() as f64);
        s.put("addr_busy_cycles", self.addr_bus.busy_cycles() as f64);
        s.put("data_busy_cycles", self.data_bus.busy_cycles() as f64);
        // Issued transactions, merged reads included, so the aggregate
        // always equals the per-master sums; `addr_phases` is the subset
        // that actually occupied the address channel.
        s.put(
            "transactions",
            self.masters
                .iter()
                .map(|m| m.stats.transactions)
                .sum::<u64>() as f64,
        );
        s.put("addr_phases", self.addr_bus.ops() as f64);
        s.put("mean_wait", self.addr_bus.mean_wait());
        s.put("max_wait", self.addr_bus.max_wait() as f64);
        s.put("merges", self.merges() as f64);
        // Reported for FIFO-consuming masters only: a poll-only master is
        // expected to let the bounded FIFO recycle (no event is lost for
        // it), while a draining master's evictions — including any from
        // before its first drain — are lost wakeups.
        s.put(
            "dropped_completions",
            self.masters
                .iter()
                .filter(|m| m.fifo_consumer)
                .map(|m| m.stats.dropped_completions)
                .sum::<u64>() as f64,
        );
        let mut inflight_total = 0.0;
        // Every attached master gets a row — an all-zeros row for a
        // configured-but-wedged master is exactly how starvation shows up.
        for (i, m) in self.masters.iter().enumerate() {
            let st = &m.stats;
            s.put(format!("m{i}.transactions"), st.transactions as f64);
            s.put(format!("m{i}.bytes"), st.bytes as f64);
            s.put(format!("m{i}.wait_cycles"), st.wait_cycles as f64);
            s.put(
                format!("m{i}.window_stall_cycles"),
                st.window_stall_cycles as f64,
            );
            s.put(format!("m{i}.merges"), st.merges as f64);
            s.put(format!("m{i}.inflight_cycles"), st.inflight_cycles as f64);
            s.put(
                format!("m{i}.dropped_completions"),
                if m.fifo_consumer {
                    st.dropped_completions as f64
                } else {
                    0.0
                },
            );
            let span = (st.last_completion - st.first_issue.unwrap_or(Cycle::ZERO)).0;
            s.put(
                format!("m{i}.overlap"),
                if span == 0 {
                    0.0
                } else {
                    st.inflight_cycles as f64 / span as f64
                },
            );
            inflight_total += st.inflight_cycles as f64;
        }
        s.put("inflight_cycles", inflight_total);
        s
    }

    /// Resets the calendars and all counters.
    pub fn reset(&mut self) {
        self.addr_bus.reset();
        self.data_bus.reset();
        self.masters.clear();
        self.mshrs.clear();
        self.inflight_lines.clear();
        self.records.fill(None);
        self.next_id = 0;
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

use svmsyn_snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for TxnId {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TxnId(r.take_u64()?))
    }
}

impl Snap for MasterId {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u16(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(MasterId(r.take_u16()?))
    }
}

impl Snap for TxnRecord {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.id);
        self.completion.save(w);
        self.next_issue.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TxnRecord {
            id: r.take_u64()?,
            completion: Cycle::load(r)?,
            next_issue: Cycle::load(r)?,
        })
    }
}

impl Snap for MasterStats {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.transactions);
        w.put_u64(self.bytes);
        w.put_u64(self.wait_cycles);
        w.put_u64(self.window_stall_cycles);
        w.put_u64(self.merges);
        w.put_u64(self.inflight_cycles);
        w.put_u64(self.dropped_completions);
        self.first_issue.save(w);
        self.last_completion.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(MasterStats {
            transactions: r.take_u64()?,
            bytes: r.take_u64()?,
            wait_cycles: r.take_u64()?,
            window_stall_cycles: r.take_u64()?,
            merges: r.take_u64()?,
            inflight_cycles: r.take_u64()?,
            dropped_completions: r.take_u64()?,
            first_issue: Option::<Cycle>::load(r)?,
            last_completion: Cycle::load(r)?,
        })
    }
}

impl Snap for MasterState {
    fn save(&self, w: &mut SnapWriter) {
        self.window_ring.save(w);
        w.put_u64(self.issued);
        self.completions.save(w);
        w.put_bool(self.fifo_consumer);
        self.waiters.save(w);
        self.stats.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(MasterState {
            window_ring: Vec::<Cycle>::load(r)?,
            issued: r.take_u64()?,
            completions: std::collections::VecDeque::load(r)?,
            fifo_consumer: r.take_bool()?,
            waiters: Vec::load(r)?,
            stats: MasterStats::load(r)?,
        })
    }
}

impl SplitFabric {
    /// Serializes the arbiter state: channel calendars, per-master windows,
    /// completion FIFOs and waiters, the MSHR file, in-flight line records,
    /// and the bounded transaction-record ring. The configuration is *not*
    /// captured — restore re-supplies it from the design.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.addr_bus.save(w);
        self.data_bus.save(w);
        self.masters.save(w);
        self.mshrs.save(w);
        self.inflight_lines.save(w);
        self.records.save(w);
        w.put_u64(self.next_id);
    }

    /// Rebuilds a fabric captured by [`save_state`](Self::save_state) under
    /// configuration `cfg` (which must be the design's — channel widths and
    /// window depths are config, not state).
    pub fn restore_state(cfg: FabricConfig, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut f = SplitFabric::new(cfg);
        f.addr_bus = FcfsResource::load(r)?;
        f.data_bus = FcfsResource::load(r)?;
        f.masters = Vec::load(r)?;
        f.mshrs = Vec::load(r)?;
        f.inflight_lines = Vec::load(r)?;
        f.records = Vec::load(r)?;
        if f.records.len() != RECORD_RING {
            return Err(SnapError::Corrupt("fabric record ring length"));
        }
        for m in &f.masters {
            if m.window_ring.len() != f.cfg.window.max(1) as usize {
                return Err(SnapError::Corrupt("fabric window ring length"));
            }
        }
        f.next_id = r.take_u64()?;
        Ok(f)
    }
}

/// Simulated end-to-end cycles for the canonical two-master overlap
/// scenario: two independent masters each streaming `reads` bank-strided
/// 64 B reads. The issue discipline follows the configuration — a blocking
/// fabric's masters round-trip each read (chain on [`poll`]), a split
/// fabric's masters stream (chain on [`next_issue`]) — so the ratio of a
/// [`FabricConfig::blocking`] run to a windowed run *is* the overlap
/// speedup. Both the `fabric_overlapped_reads_per_sec` benchmark and the
/// conformance suite's >1.3× bar call this one definition, so they cannot
/// drift apart.
///
/// [`poll`]: SplitFabric::poll
/// [`next_issue`]: SplitFabric::next_issue
pub fn two_master_stream_cycles(cfg: FabricConfig, reads: u64) -> u64 {
    let blocking = !cfg.split();
    let mut fabric = SplitFabric::new(cfg);
    let mut dram = Dram::new(crate::dram::DramConfig::default());
    let mut clocks = [Cycle::ZERO; 2];
    let mut end = Cycle::ZERO;
    for i in 0..reads {
        for m in 0..2u16 {
            let id = fabric.issue(
                &mut dram,
                TxnDesc {
                    master: MasterId(m),
                    addr: PhysAddr(((m as u64) << 22) | ((i % 64) * 8192)),
                    bytes: 64,
                    kind: TxnKind::Read,
                },
                clocks[m as usize],
            );
            end = end.max(fabric.poll(id));
            clocks[m as usize] = if blocking {
                fabric.poll(id)
            } else {
                fabric.next_issue(id)
            };
        }
    }
    end.0
}

/// A master's handle on the fabric: its [`MasterId`] plus the issue-side
/// convenience API. Every master in the stack (MEMIF burst engine,
/// page-table walker, CPU cache fills, the copy-baseline DMA engine) holds
/// one and goes through it — the fabric-facing half of the split-transaction
/// redesign.
///
/// The port is deliberately state-free (`Copy`): all shared arbiter state
/// lives in the [`SplitFabric`] inside the
/// [`MemorySystem`](crate::MemorySystem), which callers pass in as they
/// always have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricPort {
    master: MasterId,
}

impl FabricPort {
    /// Creates the port for `master`.
    pub fn new(master: MasterId) -> Self {
        FabricPort { master }
    }

    /// The master this port issues as.
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// Builds the descriptor for a transaction from this port.
    pub fn desc(&self, addr: PhysAddr, bytes: u64, kind: TxnKind) -> TxnDesc {
        TxnDesc {
            master: self.master,
            addr,
            bytes,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    fn read(m: u16, addr: u64, bytes: u64) -> TxnDesc {
        TxnDesc {
            master: MasterId(m),
            addr: PhysAddr(addr),
            bytes,
            kind: TxnKind::Read,
        }
    }

    #[test]
    fn blocking_config_matches_fcfs_formula() {
        let cfg = FabricConfig::blocking();
        assert!(!cfg.split());
        let mut f = SplitFabric::new(cfg.clone());
        let mut d = dram();
        let a = f.issue(&mut d, read(0, 0, 64), Cycle(0));
        // occupancy = arb 4 + 8 beats = 12; bank = 48 + 8 = 56 from start 0.
        assert_eq!(f.poll(a), Cycle(56));
        assert_eq!(f.next_issue(a), Cycle(12));
        let b = f.issue(&mut d, read(1, 8192, 64), Cycle(0));
        // Second master queues behind the whole first transaction on the
        // unified channel (starts at 12, different bank so dram from 12).
        assert_eq!(f.next_issue(b), Cycle(24));
        assert_eq!(f.poll(b), Cycle(12 + 56));
    }

    #[test]
    fn split_mode_overlaps_independent_masters() {
        let mut blocking = SplitFabric::new(FabricConfig::blocking());
        let mut db = dram();
        let mut split = SplitFabric::new(FabricConfig::default());
        let mut ds = dram();
        // Two masters, four reads each, bank-strided: the split fabric must
        // finish strictly earlier than the blocking one even with each
        // master chaining its own transactions dependently.
        let mut end_blocking = Cycle::ZERO;
        let mut end_split = Cycle::ZERO;
        for m in 0..2u16 {
            let (mut tb, mut ts) = (Cycle::ZERO, Cycle::ZERO);
            for i in 0..4u64 {
                let addr = ((m as u64) << 20) | (i * 8192);
                let idb = blocking.issue(&mut db, read(m, addr, 64), tb);
                tb = blocking.poll(idb); // blocking master round-trips
                end_blocking = end_blocking.max(tb);
                let ids = split.issue(&mut ds, read(m, addr, 64), ts);
                ts = split.next_issue(ids); // windowed master streams
                end_split = end_split.max(split.poll(ids));
            }
        }
        assert!(
            end_split < end_blocking,
            "split {end_split} must beat blocking {end_blocking}"
        );
    }

    #[test]
    fn window_throttles_outstanding_depth() {
        let cfg = FabricConfig {
            window: 2,
            mshrs: 0,
            ..FabricConfig::default()
        };
        let mut f = SplitFabric::new(cfg);
        let mut d = dram();
        // Issue four reads at cycle 0 from one master: the third must stall
        // until the first completes.
        let ids: Vec<_> = (0..4)
            .map(|i| f.issue(&mut d, read(0, i * 8192, 64), Cycle(0)))
            .collect();
        let c0 = f.poll(ids[0]);
        let s = f.stats();
        assert!(s.get("m0.window_stall_cycles").unwrap() > 0.0);
        assert!(f.poll(ids[2]) > c0, "txn 2 issued only after txn 0 done");
        // Completions are non-decreasing in issue order (in-order slotting).
        for w in ids.windows(2) {
            assert!(f.poll(w[0]) <= f.poll(w[1]));
        }
    }

    #[test]
    fn mshr_merges_same_line_reads_across_masters() {
        let mut f = SplitFabric::new(FabricConfig::default());
        let mut d = dram();
        let a = f.issue(&mut d, read(0, 0x100, 64), Cycle(0));
        let b = f.issue(&mut d, read(1, 0x120, 8), Cycle(1));
        assert_eq!(f.poll(b), f.poll(a), "same-line read rides the MSHR");
        assert_eq!(f.merges(), 1);
        assert_eq!(f.stats().get("m1.merges"), Some(1.0));
        // A read to a different line pays its own way.
        let c = f.issue(&mut d, read(1, 0x4000, 64), Cycle(1));
        assert!(f.poll(c) > f.poll(a));
        assert_eq!(f.merges(), 1);
    }

    #[test]
    fn mshr_capacity_bounds_tracked_lines() {
        let cfg = FabricConfig {
            mshrs: 1,
            ..FabricConfig::default()
        };
        let mut f = SplitFabric::new(cfg);
        let mut d = dram();
        let a = f.issue(&mut d, read(0, 0x000, 64), Cycle(0));
        let _b = f.issue(&mut d, read(0, 0x1000, 64), Cycle(0)); // no MSHR left
        let c = f.issue(&mut d, read(1, 0x1000, 64), Cycle(0)); // cannot merge
        assert!(f.poll(c) > f.poll(a));
        assert_eq!(f.merges(), 0);
        // Writes never merge, even to a tracked line.
        let w = f.issue(
            &mut d,
            TxnDesc {
                kind: TxnKind::Write,
                ..read(1, 0x000, 64)
            },
            Cycle(0),
        );
        assert!(f.poll(w) > f.poll(a));
    }

    #[test]
    fn completion_queue_drains_in_order() {
        let mut f = SplitFabric::new(FabricConfig::default());
        let mut d = dram();
        let a = f.issue(&mut d, read(0, 0, 64), Cycle(0));
        let b = f.issue(&mut d, read(0, 8192, 64), Cycle(0));
        assert_eq!(f.pending_completions(MasterId(0)), 2);
        let drained = f.drain_completions(MasterId(0), f.poll(a));
        assert_eq!(drained, vec![(a, f.poll(a))]);
        let drained = f.drain_completions(MasterId(0), Cycle::MAX);
        assert_eq!(drained, vec![(b, f.poll(b))]);
        assert_eq!(f.pending_completions(MasterId(0)), 0);
    }

    #[test]
    fn waiters_wake_at_exact_completion_and_never_age_out() {
        let mut f = SplitFabric::new(FabricConfig::default());
        let mut d = dram();
        let a = f.issue(&mut d, read(0, 0, 64), Cycle(0));
        let wake = f.register_waiter(MasterId(0), a);
        assert_eq!(wake, f.poll(a), "wake must be the exact completion cycle");
        assert_eq!(f.next_wake(MasterId(0)), Some(wake));
        // Mark the master as a FIFO consumer, then flood enough subsequent
        // transactions to recycle the completion FIFO: the drops are
        // counted, but the registered waiter must survive regardless.
        f.drain_completions(MasterId(0), Cycle::ZERO);
        for i in 0..64u64 {
            f.issue(&mut d, read(0, 0x10000 + i * 8192, 64), wake);
        }
        assert!(f.stats().get("m0.dropped_completions").unwrap() > 0.0);
        assert_eq!(f.drain_woken(MasterId(0), wake - Cycle(1)), vec![]);
        assert_eq!(f.drain_woken(MasterId(0), wake), vec![(a, wake)]);
        assert_eq!(f.next_wake(MasterId(0)), None);
    }

    #[test]
    fn attached_master_reports_a_zero_row() {
        let mut f = SplitFabric::new(FabricConfig::default());
        let mut d = dram();
        f.attach(MasterId(1));
        f.issue(&mut d, read(0, 0, 64), Cycle(0));
        let s = f.stats();
        assert_eq!(s.get("m1.transactions"), Some(0.0));
        assert_eq!(s.get("m1.window_stall_cycles"), Some(0.0));
        assert_eq!(s.get("m0.transactions"), Some(1.0));
        assert_eq!(s.get("dropped_completions"), Some(0.0));
    }

    #[test]
    fn pre_drain_drops_surface_once_the_master_drains() {
        let mut f = SplitFabric::new(FabricConfig::default());
        let mut d = dram();
        for i in 0..20u64 {
            f.issue(&mut d, read(0, i * 8192, 64), Cycle(0));
        }
        // Poll-only so far: the recycling FIFO loses nothing for this
        // master, so it reads as lossless.
        assert_eq!(f.stats().get("m0.dropped_completions"), Some(0.0));
        // The first drain marks it a FIFO consumer: the earlier evictions
        // were real losses for it and surface retroactively.
        f.drain_completions(MasterId(0), Cycle::MAX);
        assert!(f.stats().get("m0.dropped_completions").unwrap() > 0.0);
        assert!(f.stats().get("dropped_completions").unwrap() > 0.0);
    }

    #[test]
    fn prompt_drains_never_drop_completions() {
        let mut f = SplitFabric::new(FabricConfig::default());
        let mut d = dram();
        let mut t = Cycle(0);
        for i in 0..64u64 {
            let id = f.issue(&mut d, read(0, (i % 8) * 8192, 64), t);
            t = f.next_issue(id);
            f.drain_completions(MasterId(0), t);
        }
        f.drain_completions(MasterId(0), Cycle::MAX);
        assert_eq!(f.stats().get("m0.dropped_completions"), Some(0.0));
    }

    #[test]
    fn per_master_accounting_and_overlap() {
        let mut f = SplitFabric::new(FabricConfig::default());
        let mut d = dram();
        let mut t = Cycle(0);
        for i in 0..4u64 {
            let id = f.issue(&mut d, read(2, i * 8192, 64), t);
            t = f.next_issue(id);
        }
        let s = f.stats();
        assert_eq!(s.get("m2.transactions"), Some(4.0));
        assert_eq!(s.get("m2.bytes"), Some(256.0));
        assert!(
            s.get("m2.overlap").unwrap() > 1.0,
            "streamed reads must overlap"
        );
        assert_eq!(f.master_bytes(MasterId(2)), 256);
        assert_eq!(f.master_bytes(MasterId(9)), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = SplitFabric::new(FabricConfig::default());
        let mut d = dram();
        f.issue(&mut d, read(0, 0, 64), Cycle(0));
        assert!(f.busy_cycles() > 0);
        f.reset();
        assert_eq!(f.busy_cycles(), 0);
        assert_eq!(f.master_bytes(MasterId(0)), 0);
        assert_eq!(f.pending_completions(MasterId(0)), 0);
    }

    #[test]
    fn port_builds_descs() {
        let p = FabricPort::new(MasterId(7));
        let d = p.desc(PhysAddr(64), 8, TxnKind::Write);
        assert_eq!(d.master, MasterId(7));
        assert_eq!(d.bytes, 8);
        assert_eq!(p.master(), MasterId(7));
        assert_eq!(MasterId(3).to_string(), "m3");
    }
}

//! The hardware page-table walker.
//!
//! On a TLB miss the walker issues *real* timed reads on the system bus: one
//! for the first-level directory entry, one for the leaf PTE — two dependent
//! DRAM accesses, which is exactly why TLB misses are expensive. A two-level
//! walk cache short-circuits them:
//!
//! * the **L1 walk cache** holds decoded directory entries keyed by
//!   `(asid, l1 index)`. On a hit the walker is *pipelined*: the directory
//!   probe overlaps with issuing the leaf read, so the walk costs a single
//!   bus access instead of two dependent ones;
//! * the **L2 walk cache** holds decoded leaf PTEs, direct-mapped on the
//!   low VPN bits and tagged `(asid, vpn)`. On a hit the walk completes in
//!   one probe cycle with **zero** bus accesses — the level that matters
//!   once the TLB thrashes.
//!
//! [`walk_many`](PageTableWalker::walk_many) is the batched entry point:
//! concurrent misses that land on the same directory line share one
//! directory read (miss coalescing), the behaviour of a walker serving
//! several outstanding requests in the same epoch.
//!
//! Since the split-transaction fabric redesign the walker is a first-class
//! fabric master behind a [`FabricPort`]: every directory and leaf read is
//! an *issued transaction*, not a blocking call. `walk_many` issues all of
//! a batch's directory reads up front — they sit outstanding in the
//! walker's fabric window and their DRAM latencies overlap — and each leaf
//! read issues at its directory's completion. On the degenerate blocking
//! fabric each transaction still holds the single channel end to end in
//! issue order (no overlap), though a multi-miss batch's reads now slot
//! dirs-then-leaves rather than the old interleaved dir/leaf order — read
//! *counts* are unchanged and remain oracle-checked by the conformance
//! suite.

use svmsyn_mem::{FabricPort, MemorySystem, PhysAddr, VirtAddr};
use svmsyn_sim::{Cycle, StatSet};

use crate::pte::{DirEntry, Pte};
use crate::tlb::Asid;

/// Walker configuration: entries per walk-cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalkerConfig {
    /// Entries in the L1 (directory) walk cache; `0` disables the level.
    pub l1_entries: usize,
    /// Entries in the L2 (leaf-PTE) walk cache; `0` disables the level.
    pub l2_entries: usize,
}

impl Default for WalkerConfig {
    /// The platform default (ARCHITECTURE.md, "Platform defaults"): a
    /// 4-entry directory cache plus an 8-entry leaf cache.
    fn default() -> Self {
        WalkerConfig {
            l1_entries: 4,
            l2_entries: 8,
        }
    }
}

impl WalkerConfig {
    /// A walker with no walk cache at all (the naive two-read walker).
    pub fn disabled() -> Self {
        WalkerConfig {
            l1_entries: 0,
            l2_entries: 0,
        }
    }

    /// The pre-two-level shape: a directory cache only.
    pub fn l1_only(entries: usize) -> Self {
        WalkerConfig {
            l1_entries: entries,
            l2_entries: 0,
        }
    }

    /// A two-level configuration.
    pub fn two_level(l1_entries: usize, l2_entries: usize) -> Self {
        WalkerConfig {
            l1_entries,
            l2_entries,
        }
    }
}

/// Why a walk failed to produce a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// The first-level entry was invalid: no L2 table exists.
    NoTable {
        /// Faulting virtual address.
        va: VirtAddr,
    },
    /// The leaf PTE was invalid: the page is not present.
    NotPresent {
        /// Faulting virtual address.
        va: VirtAddr,
    },
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::NoTable { va } => write!(f, "no second-level table for {va}"),
            WalkError::NotPresent { va } => write!(f, "page not present for {va}"),
        }
    }
}

impl std::error::Error for WalkError {}

/// A successful walk: the leaf PTE, where it lives, and when the walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// The decoded leaf entry (valid).
    pub pte: Pte,
    /// Physical address of the leaf entry (for status-bit write-back).
    pub pte_addr: PhysAddr,
    /// Completion time of the walk.
    pub done: Cycle,
}

/// Result of a walk: the outcome or the error, plus the time consumed either
/// way (discovering a fault costs real bus cycles too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// Outcome of the walk.
    pub outcome: Result<WalkOutcome, WalkError>,
    /// Completion time of the walk, success or not.
    pub done: Cycle,
}

/// One L1 walk-cache slot: a cached `(asid, l1_index) -> DirEntry` mapping.
/// The entry is stored *decoded* — a hit skips both the L1 bus read and the
/// `DirEntry::decode` of the raw bits.
#[derive(Debug, Clone, Copy)]
struct DirCacheEntry {
    valid: bool,
    asid: Asid,
    l1: u32,
    dir: DirEntry,
}

/// One L2 walk-cache slot: a cached `(asid, vpn) -> (Pte, pte_addr)` leaf.
#[derive(Debug, Clone, Copy)]
struct LeafCacheEntry {
    valid: bool,
    asid: Asid,
    vpn: u64,
    pte: Pte,
    pte_addr: PhysAddr,
}

/// A directory read issued earlier in the same `walk_many` batch; later
/// requests on the same line reuse it instead of re-reading the bus.
#[derive(Debug, Clone, Copy)]
struct PendingDir {
    l1: usize,
    dir: DirEntry,
    ready: Cycle,
}

/// The hardware page-table walker with a two-level walk cache.
///
/// # Example
///
/// ```
/// use svmsyn_mem::{FabricPort, MasterId, MemConfig, MemorySystem, PhysAddr, VirtAddr};
/// use svmsyn_sim::Cycle;
/// use svmsyn_vm::pte::{DirEntry, Pte, PteFlags};
/// use svmsyn_vm::tlb::Asid;
/// use svmsyn_vm::walker::{PageTableWalker, WalkerConfig};
///
/// let mut mem = MemorySystem::new(MemConfig::default());
/// // Build a one-page mapping by hand: root at frame 16, L2 at frame 17,
/// // VA 0 -> PFN 0x42.
/// let root = PhysAddr::from_frame(16);
/// mem.poke_u32(root, DirEntry::table(17).encode());
/// mem.poke_u32(PhysAddr::from_frame(17), Pte::leaf(0x42, PteFlags::default()).encode());
///
/// let mut w = PageTableWalker::new(WalkerConfig::default());
/// let port = FabricPort::new(MasterId(0));
/// let r = w.walk(&mut mem, port, root, Asid(0), VirtAddr(0), Cycle(0));
/// assert_eq!(r.outcome.unwrap().pte.pfn(), 0x42);
/// // A re-walk of the same page hits the leaf cache: no bus read at all.
/// let r2 = w.walk(&mut mem, port, root, Asid(0), VirtAddr(0), r.done);
/// assert_eq!((r2.done - r.done).0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageTableWalker {
    cfg: WalkerConfig,
    /// Flat FIFO L1 (directory) cache: a fixed ring scanned linearly (it is
    /// tiny) and replaced at `l1_next`, so no `Vec` shifting on eviction.
    l1_cache: Box<[DirCacheEntry]>,
    l1_next: usize,
    /// Direct-mapped L2 (leaf) cache: indexed by the low VPN bits like a
    /// hardware RAM array, tagged `(asid, vpn)` — a single probe per walk,
    /// never a scan.
    l2_cache: Box<[LeafCacheEntry]>,
    walks: u64,
    l1_reads: u64,
    l2_reads: u64,
    l1_hits: u64,
    l2_hits: u64,
    dir_coalesced: u64,
    no_table_faults: u64,
    not_present_faults: u64,
}

impl PageTableWalker {
    /// Creates a walker with cold walk caches.
    pub fn new(cfg: WalkerConfig) -> Self {
        let dir_empty = DirCacheEntry {
            valid: false,
            asid: Asid(0),
            l1: 0,
            dir: DirEntry::decode(0),
        };
        let leaf_empty = LeafCacheEntry {
            valid: false,
            asid: Asid(0),
            vpn: 0,
            pte: Pte::decode(0),
            pte_addr: PhysAddr(0),
        };
        PageTableWalker {
            cfg,
            l1_cache: vec![dir_empty; cfg.l1_entries].into_boxed_slice(),
            l1_next: 0,
            l2_cache: vec![leaf_empty; cfg.l2_entries].into_boxed_slice(),
            walks: 0,
            l1_reads: 0,
            l2_reads: 0,
            l1_hits: 0,
            l2_hits: 0,
            dir_coalesced: 0,
            no_table_faults: 0,
            not_present_faults: 0,
        }
    }

    /// The configuration this walker was built with.
    pub fn config(&self) -> &WalkerConfig {
        &self.cfg
    }

    fn l1_lookup(&self, asid: Asid, l1: usize) -> Option<DirEntry> {
        self.l1_cache
            .iter()
            .find(|c| c.valid && c.asid == asid && c.l1 == l1 as u32)
            .map(|c| c.dir)
    }

    fn l1_insert(&mut self, asid: Asid, l1: usize, e: DirEntry) {
        if self.l1_cache.is_empty() {
            return;
        }
        if let Some(slot) = self
            .l1_cache
            .iter_mut()
            .find(|c| c.valid && c.asid == asid && c.l1 == l1 as u32)
        {
            slot.dir = e;
            return;
        }
        // FIFO ring replacement: overwrite the oldest slot in place.
        self.l1_cache[self.l1_next] = DirCacheEntry {
            valid: true,
            asid,
            l1: l1 as u32,
            dir: e,
        };
        self.l1_next = (self.l1_next + 1) % self.l1_cache.len();
    }

    /// Direct-mapped slot for `vpn` (index by low VPN bits, as the RAM
    /// array of a hardware leaf cache would).
    #[inline]
    fn l2_slot(&self, vpn: u64) -> usize {
        (vpn as usize) % self.l2_cache.len()
    }

    fn l2_lookup(&self, asid: Asid, vpn: u64) -> Option<(Pte, PhysAddr)> {
        if self.l2_cache.is_empty() {
            return None;
        }
        let e = &self.l2_cache[self.l2_slot(vpn)];
        if e.valid && e.asid == asid && e.vpn == vpn {
            Some((e.pte, e.pte_addr))
        } else {
            None
        }
    }

    fn l2_insert(&mut self, asid: Asid, vpn: u64, pte: Pte, pte_addr: PhysAddr) {
        if self.l2_cache.is_empty() {
            return;
        }
        let slot = self.l2_slot(vpn);
        self.l2_cache[slot] = LeafCacheEntry {
            valid: true,
            asid,
            vpn,
            pte,
            pte_addr,
        };
    }

    /// Drops all cached entries, both levels (context teardown, full
    /// shootdown).
    pub fn invalidate_cache(&mut self) {
        for c in self.l1_cache.iter_mut() {
            c.valid = false;
        }
        for c in self.l2_cache.iter_mut() {
            c.valid = false;
        }
        self.l1_next = 0;
    }

    /// Precise single-page shootdown (after the OS maps, unmaps, or
    /// re-protects one page): clears the page's leaf slot exactly, plus the
    /// directory entry of its line — the same OS operation may have
    /// installed or replaced that line's table. Other pages' leaf entries
    /// stay warm, which is what keeps `l2_walk_hit_rate` honest through
    /// demand-paging phases.
    pub fn invalidate_page(&mut self, asid: Asid, va: VirtAddr) {
        if !self.l2_cache.is_empty() {
            let e = &mut self.l2_cache[self.l2_slot(va.vpn())];
            if e.valid && e.asid == asid && e.vpn == va.vpn() {
                e.valid = false;
            }
        }
        let l1 = va.l1_index() as u32;
        for c in self.l1_cache.iter_mut() {
            if c.valid && c.asid == asid && c.l1 == l1 {
                c.valid = false;
            }
        }
    }

    /// Finishes a walk whose directory entry is already in hand: issues the
    /// dependent leaf read as an outstanding transaction at `t_issue` and
    /// classifies the result at its completion.
    fn finish_with_dir(
        &mut self,
        mem: &mut MemorySystem,
        port: FabricPort,
        asid: Asid,
        va: VirtAddr,
        dir: DirEntry,
        t_issue: Cycle,
    ) -> WalkResult {
        if !dir.is_valid() {
            self.no_table_faults += 1;
            return WalkResult {
                outcome: Err(WalkError::NoTable { va }),
                done: t_issue,
            };
        }
        let pte_addr = PhysAddr::from_frame(dir.table_pfn()).offset(4 * va.l2_index() as u64);
        self.l2_reads += 1;
        let (raw, txn) = mem.read_u32_txn(port.master(), pte_addr, t_issue);
        let t_after_l2 = mem.completion(txn);
        let pte = Pte::decode(raw);
        if !pte.is_valid() {
            self.not_present_faults += 1;
            return WalkResult {
                outcome: Err(WalkError::NotPresent { va }),
                done: t_after_l2,
            };
        }
        self.l2_insert(asid, va.vpn(), pte, pte_addr);
        WalkResult {
            outcome: Ok(WalkOutcome {
                pte,
                pte_addr,
                done: t_after_l2,
            }),
            done: t_after_l2,
        }
    }

    /// Resolves the directory entry for `va` inside a batch: an in-flight
    /// batch read of the same line (coalesced), the L1 walk cache, or a
    /// fresh directory-read transaction issued at `now`.
    #[allow(clippy::too_many_arguments)] // internal batch helper; the tuple of walk context is deliberate
    fn resolve_dir(
        &mut self,
        mem: &mut MemorySystem,
        port: FabricPort,
        root: PhysAddr,
        asid: Asid,
        l1: usize,
        pending: &mut Vec<PendingDir>,
        now: Cycle,
    ) -> (DirEntry, Cycle) {
        // Probe the in-flight batch reads *before* the L1 cache: a line
        // read earlier in this batch is also in the cache by now, but its
        // data is only ready at the read's completion time.
        if let Some(p) = pending.iter().find(|p| p.l1 == l1).copied() {
            self.dir_coalesced += 1;
            return (p.dir, p.ready);
        }
        if let Some(dir) = self.l1_lookup(asid, l1) {
            self.l1_hits += 1;
            return (dir, now);
        }
        self.l1_reads += 1;
        let (raw, txn) = mem.read_u32_txn(port.master(), root.offset(4 * l1 as u64), now);
        let ready = mem.completion(txn);
        let dir = DirEntry::decode(raw);
        if dir.is_valid() {
            self.l1_insert(asid, l1, dir);
        }
        pending.push(PendingDir { l1, dir, ready });
        (dir, ready)
    }

    /// Walks the two-level table rooted at `root` for `va`, issuing read
    /// transactions on `mem` through `port`.
    ///
    /// Cost shape: an L2 hit is one probe cycle and zero bus reads; an L1
    /// (directory) hit issues the leaf read immediately (the probe overlaps
    /// with issue — the pipelined path), one bus read; a full miss pays the
    /// two dependent reads.
    pub fn walk(
        &mut self,
        mem: &mut MemorySystem,
        port: FabricPort,
        root: PhysAddr,
        asid: Asid,
        va: VirtAddr,
        now: Cycle,
    ) -> WalkResult {
        self.walks += 1;

        if let Some((pte, pte_addr)) = self.l2_lookup(asid, va.vpn()) {
            self.l2_hits += 1;
            let done = now + 1;
            return WalkResult {
                outcome: Ok(WalkOutcome {
                    pte,
                    pte_addr,
                    done,
                }),
                done,
            };
        }

        let l1 = va.l1_index();
        match self.l1_lookup(asid, l1) {
            Some(dir) => {
                // Pipelined: the directory probe overlaps with issuing the
                // leaf read, so the walk is one bus access end to end.
                self.l1_hits += 1;
                self.finish_with_dir(mem, port, asid, va, dir, now)
            }
            None => {
                self.l1_reads += 1;
                let (raw, txn) = mem.read_u32_txn(port.master(), root.offset(4 * l1 as u64), now);
                let t_after_l1 = mem.completion(txn);
                let dir = DirEntry::decode(raw);
                if dir.is_valid() {
                    self.l1_insert(asid, l1, dir);
                }
                self.finish_with_dir(mem, port, asid, va, dir, t_after_l1)
            }
        }
    }

    /// Batched walk: all of `vas` issue in the same epoch starting at `now`,
    /// and misses that land on the same directory line share one directory
    /// read (miss coalescing). Results come back in request order.
    ///
    /// Split-transaction issue order: the batch's directory reads all issue
    /// first (outstanding together at `now`, throttled only by the walker's
    /// fabric window), then each miss's dependent leaf read issues at its
    /// directory's completion. On a windowed fabric the directory reads'
    /// DRAM latencies overlap; on the blocking configuration the calendar
    /// serializes them exactly as the old call-return walker did.
    ///
    /// This is the entry point the MMU uses when several accesses miss the
    /// TLB at once (page-crossing bursts, multi-threaded miss epochs).
    pub fn walk_many(
        &mut self,
        mem: &mut MemorySystem,
        port: FabricPort,
        root: PhysAddr,
        asid: Asid,
        vas: &[VirtAddr],
        now: Cycle,
    ) -> Vec<WalkResult> {
        /// Phase-1 classification of one request.
        enum Cls {
            /// Pre-batch L2 walk-cache hit: complete, one probe cycle.
            Hit(Pte, PhysAddr),
            /// Needs a leaf read; the directory entry is in hand (data
            /// ready at the carried cycle).
            Miss(DirEntry, Cycle),
            /// Same VPN as an earlier miss in this batch: resolves in
            /// phase 2 against the leader's leaf read.
            Dup,
        }

        // Directory reads issued in this batch, newest last. Batches are
        // short, so a linear scan beats a map.
        let mut pending: Vec<PendingDir> = Vec::new();
        let mut miss_vpns: Vec<u64> = Vec::new();
        let mut cls: Vec<Cls> = Vec::with_capacity(vas.len());

        // Phase 1: probe the leaf cache and issue every distinct miss's
        // directory read up front, so they sit outstanding together.
        for &va in vas {
            self.walks += 1;
            if let Some((pte, pte_addr)) = self.l2_lookup(asid, va.vpn()) {
                self.l2_hits += 1;
                cls.push(Cls::Hit(pte, pte_addr));
                continue;
            }
            if miss_vpns.contains(&va.vpn()) {
                cls.push(Cls::Dup);
                continue;
            }
            miss_vpns.push(va.vpn());
            let (dir, ready) =
                self.resolve_dir(mem, port, root, asid, va.l1_index(), &mut pending, now);
            cls.push(Cls::Miss(dir, ready));
        }

        // Phase 2: chase the dependent leaf reads in request order. Leaves
        // fetched earlier in the batch (`pending_leaf`) serve duplicates at
        // their read's completion time, not one probe cycle into the epoch.
        let mut pending_leaf: Vec<(u64, Cycle)> = Vec::new();
        let mut out = Vec::with_capacity(vas.len());
        for (&va, c) in vas.iter().zip(cls) {
            let r = match c {
                Cls::Hit(pte, pte_addr) => {
                    let done = now + 1;
                    WalkResult {
                        outcome: Ok(WalkOutcome {
                            pte,
                            pte_addr,
                            done,
                        }),
                        done,
                    }
                }
                Cls::Miss(dir, ready) => self.finish_with_dir(mem, port, asid, va, dir, ready),
                Cls::Dup => match self.l2_lookup(asid, va.vpn()) {
                    // Reuse happens through the leaf cache, exactly like a
                    // serial re-walk would: the leader's insert is only
                    // there if the cache is enabled and the slot survived
                    // the rest of the batch. Data fetched in this batch is
                    // ready at its read's completion, not one probe cycle
                    // into the epoch.
                    Some((pte, pte_addr)) => {
                        self.l2_hits += 1;
                        let done = pending_leaf
                            .iter()
                            .find(|p| p.0 == va.vpn())
                            .map_or(now + 1, |p| p.1);
                        WalkResult {
                            outcome: Ok(WalkOutcome {
                                pte,
                                pte_addr,
                                done,
                            }),
                            done,
                        }
                    }
                    None => {
                        // The leader faulted, the leaf cache is disabled,
                        // or the slot was evicted mid-batch: re-walk,
                        // riding the batch's directory read where one
                        // exists.
                        let (dir, ready) = self.resolve_dir(
                            mem,
                            port,
                            root,
                            asid,
                            va.l1_index(),
                            &mut pending,
                            now,
                        );
                        self.finish_with_dir(mem, port, asid, va, dir, ready)
                    }
                },
            };
            if r.outcome.is_ok() {
                pending_leaf.push((va.vpn(), r.done));
            }
            out.push(r);
        }
        out
    }

    /// Fraction of walks whose directory level was served without a bus read
    /// (L1 walk-cache hits plus batch-coalesced reads), in `[0, 1]`.
    pub fn l1_walk_hit_rate(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            (self.l1_hits + self.dir_coalesced) as f64 / self.walks as f64
        }
    }

    /// Fraction of walks served entirely by the L2 (leaf) walk cache — zero
    /// bus reads — in `[0, 1]`.
    pub fn l2_walk_hit_rate(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.walks as f64
        }
    }

    /// The cost model's prediction of the bus reads this walker issued:
    /// every walk costs two reads, minus two for each leaf-cache hit, one
    /// for each directory hit or coalesced directory read, and one for each
    /// walk that stopped at an invalid directory entry.
    ///
    /// [`stats`](Self::stats) exposes the actual read counters; the
    /// conformance suite asserts this prediction equals both the counters
    /// and the memory system's observed read count.
    pub fn predicted_bus_reads(&self) -> u64 {
        2 * self.walks - 2 * self.l2_hits - self.l1_hits - self.dir_coalesced - self.no_table_faults
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("walks", self.walks as f64);
        s.put("l1_reads", self.l1_reads as f64);
        s.put("l2_reads", self.l2_reads as f64);
        s.put("l1_walk_hits", self.l1_hits as f64);
        s.put("l2_walk_hits", self.l2_hits as f64);
        s.put("dir_coalesced", self.dir_coalesced as f64);
        s.put("l1_walk_hit_rate", self.l1_walk_hit_rate());
        s.put("l2_walk_hit_rate", self.l2_walk_hit_rate());
        s.put(
            "walk_faults",
            (self.no_table_faults + self.not_present_faults) as f64,
        );
        s
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl PageTableWalker {
    /// Serializes both walk-cache levels (decoded entries re-encoded through
    /// the PTE codec), the L1 FIFO cursor and the counters. Geometry is
    /// config.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        w.put_usize(self.l1_cache.len());
        for c in self.l1_cache.iter() {
            w.put_bool(c.valid);
            c.asid.save(w);
            w.put_u32(c.l1);
            c.dir.save(w);
        }
        w.put_usize(self.l1_next);
        w.put_usize(self.l2_cache.len());
        for c in self.l2_cache.iter() {
            w.put_bool(c.valid);
            c.asid.save(w);
            w.put_u64(c.vpn);
            c.pte.save(w);
            w.put_u64(c.pte_addr.0);
        }
        w.put_u64(self.walks);
        w.put_u64(self.l1_reads);
        w.put_u64(self.l2_reads);
        w.put_u64(self.l1_hits);
        w.put_u64(self.l2_hits);
        w.put_u64(self.dir_coalesced);
        w.put_u64(self.no_table_faults);
        w.put_u64(self.not_present_faults);
    }

    /// Rebuilds a walker captured by [`save_state`](Self::save_state) under
    /// the design's `cfg`.
    pub fn restore_state(
        cfg: WalkerConfig,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let mut w = PageTableWalker::new(cfg);
        if r.take_len()? != w.l1_cache.len() {
            return Err(SnapError::Corrupt("walker l1 cache size"));
        }
        for c in w.l1_cache.iter_mut() {
            c.valid = r.take_bool()?;
            c.asid = Asid::load(r)?;
            c.l1 = r.take_u32()?;
            c.dir = DirEntry::load(r)?;
        }
        w.l1_next = r.take_usize()?;
        if w.l1_next >= w.l1_cache.len().max(1) {
            return Err(SnapError::Corrupt("walker l1 cursor"));
        }
        if r.take_len()? != w.l2_cache.len() {
            return Err(SnapError::Corrupt("walker l2 cache size"));
        }
        for c in w.l2_cache.iter_mut() {
            c.valid = r.take_bool()?;
            c.asid = Asid::load(r)?;
            c.vpn = r.take_u64()?;
            c.pte = Pte::load(r)?;
            c.pte_addr = PhysAddr(r.take_u64()?);
        }
        w.walks = r.take_u64()?;
        w.l1_reads = r.take_u64()?;
        w.l2_reads = r.take_u64()?;
        w.l1_hits = r.take_u64()?;
        w.l2_hits = r.take_u64()?;
        w.dir_coalesced = r.take_u64()?;
        w.no_table_faults = r.take_u64()?;
        w.not_present_faults = r.take_u64()?;
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;
    use svmsyn_mem::{MasterId, MemConfig};

    fn setup() -> (MemorySystem, PhysAddr) {
        let mut mem = MemorySystem::new(MemConfig::default());
        let root = PhysAddr::from_frame(100);
        // l1[0] -> table at frame 101; l2[0] -> pfn 7, l2[1] -> invalid
        mem.poke_u32(root, DirEntry::table(101).encode());
        mem.poke_u32(
            PhysAddr::from_frame(101),
            Pte::leaf(
                7,
                PteFlags {
                    writable: true,
                    ..PteFlags::default()
                },
            )
            .encode(),
        );
        (mem, root)
    }

    #[test]
    fn successful_walk_reads_two_levels() {
        let (mut mem, root) = setup();
        let mut w = PageTableWalker::new(WalkerConfig::disabled());
        let r = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            Cycle(0),
        );
        let out = r.outcome.unwrap();
        assert_eq!(out.pte.pfn(), 7);
        assert!(out.pte.flags().writable);
        assert_eq!(out.pte_addr, PhysAddr::from_frame(101));
        assert!(r.done > Cycle(0));
        assert_eq!(w.stats().get("l1_reads"), Some(1.0));
        assert_eq!(w.stats().get("l2_reads"), Some(1.0));
        assert_eq!(w.predicted_bus_reads(), 2);
    }

    #[test]
    fn l1_hit_pipelines_the_leaf_read() {
        let (mut mem, root) = setup();
        let mut w = PageTableWalker::new(WalkerConfig::l1_only(4));
        let r1 = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            Cycle(0),
        );
        let t1 = r1.done - Cycle(0);
        let r2 = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            r1.done,
        );
        let t2 = r2.done - r1.done;
        assert!(t2 < t1, "pipelined walk must be faster ({t2} vs {t1})");
        assert_eq!(w.stats().get("l1_walk_hits"), Some(1.0));
        assert_eq!(w.stats().get("l1_reads"), Some(1.0));
        assert_eq!(w.stats().get("l1_walk_hit_rate"), Some(0.5));
        assert_eq!(w.l1_walk_hit_rate(), 0.5);
        assert_eq!(w.predicted_bus_reads(), 3);
    }

    #[test]
    fn l2_hit_costs_no_bus_read() {
        let (mut mem, root) = setup();
        let mut w = PageTableWalker::new(WalkerConfig::default());
        let r1 = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            Cycle(0),
        );
        let reads_after_first = mem.stats().get("reads").unwrap();
        let r2 = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            r1.done,
        );
        assert_eq!((r2.done - r1.done).0, 1, "leaf hit is one probe cycle");
        assert_eq!(mem.stats().get("reads"), Some(reads_after_first));
        assert_eq!(r2.outcome.unwrap().pte.pfn(), 7);
        assert_eq!(w.l2_walk_hit_rate(), 0.5);
        assert_eq!(w.predicted_bus_reads(), 2);
    }

    #[test]
    fn missing_table_faults_after_one_read() {
        let (mut mem, root) = setup();
        let mut w = PageTableWalker::new(WalkerConfig::default());
        // l1 index 1 was never written -> invalid
        let va = VirtAddr(1 << 22);
        let r = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            va,
            Cycle(0),
        );
        assert_eq!(r.outcome.unwrap_err(), WalkError::NoTable { va });
        assert_eq!(w.stats().get("l2_reads"), Some(0.0));
        assert_eq!(w.stats().get("walk_faults"), Some(1.0));
        assert_eq!(w.predicted_bus_reads(), 1);
    }

    #[test]
    fn missing_page_faults_after_two_reads() {
        let (mut mem, root) = setup();
        let mut w = PageTableWalker::new(WalkerConfig::default());
        let va = VirtAddr(1 << 12); // l2 index 1: invalid leaf
        let r = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            va,
            Cycle(0),
        );
        assert_eq!(r.outcome.unwrap_err(), WalkError::NotPresent { va });
        assert_eq!(w.stats().get("l2_reads"), Some(1.0));
        assert_eq!(w.predicted_bus_reads(), 2);
        // The invalid leaf must not have been cached.
        let r2 = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            va,
            r.done,
        );
        assert!(r2.outcome.is_err());
        assert_eq!(w.stats().get("l2_walk_hits"), Some(0.0));
    }

    #[test]
    fn walk_caches_are_bounded() {
        let (mut mem, root) = setup();
        // Map four more directories so distinct l1 indices are valid.
        for i in 1..6u64 {
            mem.poke_u32(root.offset(4 * i), DirEntry::table(101).encode());
        }
        let mut w = PageTableWalker::new(WalkerConfig::two_level(2, 2));
        let mut t = Cycle(0);
        for i in 0..3u64 {
            let r = w.walk(
                &mut mem,
                FabricPort::new(MasterId(0)),
                root,
                Asid(0),
                VirtAddr(i << 22),
                t,
            );
            t = r.done;
        }
        // Entry for l1=0 was evicted by l1=2; a re-walk reads L1 again (and
        // its direct-mapped leaf slot was overwritten by the conflicting
        // vpn of the l1=2 walk).
        w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            t,
        );
        assert_eq!(w.stats().get("l1_reads"), Some(4.0));
        assert_eq!(w.stats().get("l1_walk_hits"), Some(0.0));
        assert_eq!(w.stats().get("l2_walk_hits"), Some(0.0));
    }

    #[test]
    fn invalidate_page_is_precise() {
        let (mut mem, root) = setup();
        mem.poke_u32(
            PhysAddr::from_frame(101).offset(4),
            Pte::leaf(8, PteFlags::default()).encode(),
        );
        let mut w = PageTableWalker::new(WalkerConfig::default());
        let t = w
            .walk(
                &mut mem,
                FabricPort::new(MasterId(0)),
                root,
                Asid(0),
                VirtAddr(0),
                Cycle(0),
            )
            .done;
        let t = w
            .walk(
                &mut mem,
                FabricPort::new(MasterId(0)),
                root,
                Asid(0),
                VirtAddr(1 << 12),
                t,
            )
            .done;
        // Shoot down page 0 only: page 1's leaf entry must stay warm.
        w.invalidate_page(Asid(0), VirtAddr(0));
        let t = w
            .walk(
                &mut mem,
                FabricPort::new(MasterId(0)),
                root,
                Asid(0),
                VirtAddr(1 << 12),
                t,
            )
            .done;
        assert_eq!(w.stats().get("l2_walk_hits"), Some(1.0), "page 1 cached");
        w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            t,
        );
        assert_eq!(
            w.stats().get("l1_reads"),
            Some(2.0),
            "page 0's directory line was dropped and re-read"
        );
    }

    #[test]
    fn invalidate_cache_forces_reread() {
        let (mut mem, root) = setup();
        let mut w = PageTableWalker::new(WalkerConfig::default());
        let r = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            Cycle(0),
        );
        w.invalidate_cache();
        w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            r.done,
        );
        assert_eq!(w.stats().get("l1_reads"), Some(2.0));
        assert_eq!(w.stats().get("l2_walk_hits"), Some(0.0));
    }

    #[test]
    fn walk_many_coalesces_same_directory_line() {
        let (mut mem, root) = setup();
        // Three mapped pages under the same directory line.
        let flags = PteFlags::default();
        for p in 1..3u64 {
            mem.poke_u32(
                PhysAddr::from_frame(101).offset(4 * p),
                Pte::leaf(7 + p, flags).encode(),
            );
        }
        let mut w = PageTableWalker::new(WalkerConfig::disabled());
        let vas = [VirtAddr(0), VirtAddr(1 << 12), VirtAddr(2 << 12)];
        let rs = w.walk_many(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            &vas,
            Cycle(0),
        );
        assert_eq!(rs.len(), 3);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.outcome.unwrap().pte.pfn(), 7 + i as u64);
        }
        // One directory read serves all three; three leaf reads.
        assert_eq!(w.stats().get("l1_reads"), Some(1.0));
        assert_eq!(w.stats().get("dir_coalesced"), Some(2.0));
        assert_eq!(w.stats().get("l2_reads"), Some(3.0));
        assert_eq!(w.predicted_bus_reads(), 4);
        assert_eq!(mem.stats().get("reads"), Some(4.0));
    }

    #[test]
    fn walk_many_matches_serial_walks_functionally() {
        let (mut mem, root) = setup();
        let flags = PteFlags::default();
        mem.poke_u32(
            PhysAddr::from_frame(101).offset(4),
            Pte::leaf(9, flags).encode(),
        );
        let vas = [VirtAddr(0), VirtAddr(1 << 12), VirtAddr(5 << 22)];
        let mut batched = PageTableWalker::new(WalkerConfig::default());
        let rs = batched.walk_many(
            &mut mem.clone(),
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            &vas,
            Cycle(0),
        );
        let mut serial = PageTableWalker::new(WalkerConfig::default());
        for (va, r) in vas.iter().zip(&rs) {
            let s = serial.walk(
                &mut mem,
                FabricPort::new(MasterId(0)),
                root,
                Asid(0),
                *va,
                Cycle(0),
            );
            match (s.outcome, r.outcome) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.pte, b.pte);
                    assert_eq!(a.pte_addr, b.pte_addr);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("batched/serial diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn walk_many_duplicate_waits_for_the_in_flight_leaf() {
        let (mut mem, root) = setup();
        let mut w = PageTableWalker::new(WalkerConfig::default());
        let vas = [VirtAddr(0), VirtAddr(0)];
        let rs = w.walk_many(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            &vas,
            Cycle(0),
        );
        let leader = rs[0].outcome.unwrap();
        let follower = rs[1].outcome.unwrap();
        assert_eq!(follower.pte, leader.pte);
        assert_eq!(
            follower.done, leader.done,
            "batch-internal reuse completes when the leader's read lands, \
             not one probe cycle into the epoch"
        );
        assert_eq!(w.stats().get("l2_walk_hits"), Some(1.0));
        assert_eq!(mem.stats().get("reads"), Some(2.0), "dir + one leaf only");
        // A later, separate walk of the same page is a normal cache probe.
        let r3 = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            VirtAddr(0),
            leader.done,
        );
        assert_eq!((r3.done - leader.done).0, 1);
    }

    #[test]
    fn walk_many_coalesced_invalid_directory_faults_without_reads() {
        let (mut mem, root) = setup();
        let mut w = PageTableWalker::new(WalkerConfig::disabled());
        let vas = [VirtAddr(7 << 22), VirtAddr((7 << 22) | (3 << 12))];
        let rs = w.walk_many(
            &mut mem,
            FabricPort::new(MasterId(0)),
            root,
            Asid(0),
            &vas,
            Cycle(0),
        );
        for r in &rs {
            assert!(matches!(r.outcome, Err(WalkError::NoTable { .. })));
        }
        // One directory read discovered the invalid line for both requests.
        assert_eq!(w.stats().get("l1_reads"), Some(1.0));
        assert_eq!(w.predicted_bus_reads(), 1);
        assert_eq!(mem.stats().get("reads"), Some(1.0));
    }

    #[test]
    fn errors_display() {
        let e = WalkError::NotPresent {
            va: VirtAddr(0x1000),
        };
        assert!(e.to_string().contains("not present"));
        let e = WalkError::NoTable {
            va: VirtAddr(0x1000),
        };
        assert!(e.to_string().contains("second-level"));
    }
}

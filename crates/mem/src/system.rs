//! The memory-system façade: backing store + split-transaction fabric +
//! DRAM timing.
//!
//! [`MemorySystem`] is the single component every master talks to. The
//! transaction API ([`issue`](MemorySystem::issue) /
//! [`completion`](MemorySystem::completion) /
//! [`drain_completions`](MemorySystem::drain_completions)) is the native
//! interface: a master issues a [`TxnDesc`] and observes completion later.
//! [`read`](MemorySystem::read) / [`write`](MemorySystem::write) remain as
//! thin *sequenced* wrappers over it — they split a transfer into bursts,
//! chain each burst's issue on the previous address handshake, and return
//! the last completion — for callers that genuinely block (loaders, the
//! software page-fault path). Functional (`load`/`dump`) accesses move
//! bytes with no timing, for loaders and checkers outside the simulated
//! machine.

use svmsyn_sim::{Cycle, StatSet};

use crate::addr::PhysAddr;
use crate::dram::{Dram, DramConfig};
use crate::fabric::{FabricConfig, MasterId, SplitFabric, TxnDesc, TxnId, TxnKind};
use crate::store::SparseMemory;

/// Configuration of the whole memory path.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Physical memory size in bytes (page-aligned).
    pub size_bytes: u64,
    /// Split-transaction fabric parameters.
    pub fabric: FabricConfig,
    /// DRAM timing parameters.
    pub dram: DramConfig,
    /// Largest single bus transaction; longer transfers are split into
    /// back-to-back bursts of at most this size.
    pub max_burst_bytes: u64,
}

impl Default for MemConfig {
    /// The default platform (ARCHITECTURE.md, "Platform defaults"): 512 MiB,
    /// 8 B/cycle channel, 256 B bursts, 4-deep outstanding windows with 4
    /// MSHRs.
    fn default() -> Self {
        MemConfig {
            size_bytes: 512 << 20,
            fabric: FabricConfig::default(),
            dram: DramConfig::default(),
            max_burst_bytes: 256,
        }
    }
}

/// Little-endian scalar moved by the typed timed accessors. Sealed: the
/// widths the simulated machine has (`u32` PTEs, `u64` words).
trait LeScalar: Copy {
    const BYTES: usize;
    fn from_le(buf: &[u8]) -> Self;
    fn to_le(self, buf: &mut [u8]);
}

impl LeScalar for u32 {
    const BYTES: usize = 4;
    fn from_le(buf: &[u8]) -> Self {
        u32::from_le_bytes(buf.try_into().expect("u32 width"))
    }
    fn to_le(self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.to_le_bytes());
    }
}

impl LeScalar for u64 {
    const BYTES: usize = 8;
    fn from_le(buf: &[u8]) -> Self {
        u64::from_le_bytes(buf.try_into().expect("u64 width"))
    }
    fn to_le(self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.to_le_bytes());
    }
}

/// The complete memory system seen by all bus masters.
///
/// # Example
///
/// ```
/// use svmsyn_mem::{MemConfig, MemorySystem, MasterId, PhysAddr};
/// use svmsyn_sim::Cycle;
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let done = mem.write(MasterId(0), PhysAddr(0x1000), &[1, 2, 3, 4], Cycle(0));
/// let mut buf = [0u8; 4];
/// let done2 = mem.read(MasterId(0), PhysAddr(0x1000), &mut buf, done);
/// assert_eq!(buf, [1, 2, 3, 4]);
/// assert!(done2 > done);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    pub(crate) store: SparseMemory,
    pub(crate) fabric: SplitFabric,
    pub(crate) dram: Dram,
    max_burst: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
}

impl MemorySystem {
    /// Creates a zeroed memory system.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (zero/unaligned sizes); see
    /// [`SparseMemory::new`], [`SplitFabric::new`], [`Dram::new`].
    pub fn new(cfg: MemConfig) -> Self {
        assert!(cfg.max_burst_bytes > 0, "max_burst_bytes must be positive");
        MemorySystem {
            store: SparseMemory::new(cfg.size_bytes),
            fabric: SplitFabric::new(cfg.fabric),
            dram: Dram::new(cfg.dram),
            max_burst: cfg.max_burst_bytes,
            reads: 0,
            writes: 0,
        }
    }

    /// Physical memory size in bytes.
    pub fn size(&self) -> u64 {
        self.store.size()
    }

    // ------------------------------------------------------------------
    // The transaction API — the native interface of the split fabric.
    // ------------------------------------------------------------------

    /// Issues one fabric transaction (at most one burst; use the sequenced
    /// wrappers for longer transfers). Timing only — pair with
    /// [`read_txn`](Self::read_txn)/[`write_txn`](Self::write_txn) or the
    /// functional accessors to move bytes.
    ///
    /// # Panics
    ///
    /// Panics if `desc.bytes` exceeds `max_burst_bytes` — longer transfers
    /// must be burst-split (see [`transfer`](Self::transfer)), as the old
    /// blocking path always did.
    pub fn issue(&mut self, desc: TxnDesc, now: Cycle) -> TxnId {
        assert!(
            desc.bytes <= self.max_burst,
            "transaction of {} bytes exceeds max_burst_bytes ({}); burst-split it",
            desc.bytes,
            self.max_burst
        );
        self.fabric.issue(&mut self.dram, desc, now)
    }

    /// Completion time of an issued transaction.
    pub fn completion(&self, id: TxnId) -> Cycle {
        self.fabric.poll(id)
    }

    /// Earliest time the issuing master may hand the fabric its next
    /// sequenced transaction (the address-channel handshake of `id`).
    pub fn next_issue(&self, id: TxnId) -> Cycle {
        self.fabric.next_issue(id)
    }

    /// Drains `master`'s completion queue up to `upto`, oldest first.
    pub fn drain_completions(&mut self, master: MasterId, upto: Cycle) -> Vec<(TxnId, Cycle)> {
        self.fabric.drain_completions(master, upto)
    }

    /// Attaches `master` to the fabric so its stats row is emitted even if
    /// it never transacts (starvation stays visible).
    pub fn attach_master(&mut self, master: MasterId) {
        self.fabric.attach(master);
    }

    /// Registers a completion waiter for `(master, id)`; returns the exact
    /// wake cycle for the discrete-event scheduler.
    pub fn register_waiter(&mut self, master: MasterId, id: TxnId) -> Cycle {
        self.fabric.register_waiter(master, id)
    }

    /// Removes and returns `master`'s waiters whose transactions completed
    /// by `now`. [`retire_woken`](Self::retire_woken) removes the same
    /// waiters without building the list.
    pub fn drain_woken(&mut self, master: MasterId, now: Cycle) -> Vec<(TxnId, Cycle)> {
        self.fabric.drain_woken(master, now)
    }

    /// Removes `master`'s waiters whose transactions completed by `now`,
    /// without allocating: the per-access retire of the MEMIF and the CPU
    /// model.
    #[inline]
    pub fn retire_woken(&mut self, master: MasterId, now: Cycle) {
        self.fabric.retire_woken(master, now);
    }

    /// Issues a read transaction *and* moves the bytes into `buf`
    /// (functionally, at issue — the completion time says when the data is
    /// architecturally visible to the master).
    ///
    /// # Panics
    ///
    /// Panics if the physical range is out of bounds or `buf` exceeds one
    /// burst.
    pub fn read_txn(
        &mut self,
        master: MasterId,
        addr: PhysAddr,
        buf: &mut [u8],
        now: Cycle,
    ) -> TxnId {
        assert!(
            buf.len() as u64 <= self.max_burst,
            "read_txn is single-burst; use read() for longer transfers"
        );
        self.store.read(addr, buf);
        self.reads += 1;
        self.issue(
            TxnDesc {
                master,
                addr,
                bytes: buf.len() as u64,
                kind: TxnKind::Read,
            },
            now,
        )
    }

    /// Issues a write transaction and moves `data` into memory.
    ///
    /// # Panics
    ///
    /// Panics if the physical range is out of bounds or `data` exceeds one
    /// burst.
    pub fn write_txn(
        &mut self,
        master: MasterId,
        addr: PhysAddr,
        data: &[u8],
        now: Cycle,
    ) -> TxnId {
        assert!(
            data.len() as u64 <= self.max_burst,
            "write_txn is single-burst; use write() for longer transfers"
        );
        self.store.write(addr, data);
        self.writes += 1;
        self.issue(
            TxnDesc {
                master,
                addr,
                bytes: data.len() as u64,
                kind: TxnKind::Write,
            },
            now,
        )
    }

    // ------------------------------------------------------------------
    // Sequenced wrappers: blocking-style transfers over the fabric.
    // ------------------------------------------------------------------

    /// Times a transfer of `len` bytes at `addr` arriving at `now` as a
    /// chain of burst transactions: each burst issues at the previous
    /// burst's address handshake (so a windowed fabric overlaps their DRAM
    /// latencies), and the transfer completes when the last outstanding
    /// burst does.
    pub fn transfer(
        &mut self,
        master: MasterId,
        addr: PhysAddr,
        len: u64,
        kind: TxnKind,
        now: Cycle,
    ) -> Cycle {
        self.transfer_handshake(master, addr, len, kind, now).0
    }

    /// The shared burst-chaining engine behind both transfer flavors:
    /// returns `(done, next, tail)` — chain completion, final address
    /// handshake, and the id of the burst the chain completes with (not
    /// necessarily the last *issued* one: an MSHR-merged burst rides an
    /// earlier transaction and may land before its predecessors).
    fn transfer_chain(
        &mut self,
        master: MasterId,
        addr: PhysAddr,
        len: u64,
        kind: TxnKind,
        now: Cycle,
    ) -> (Cycle, Cycle, Option<TxnId>) {
        let mut t = now;
        let mut done = now;
        let mut tail: Option<TxnId> = None;
        let mut off = 0u64;
        let len = len.max(1);
        while off < len {
            let blen = self.max_burst.min(len - off);
            let id = self.issue(
                TxnDesc {
                    master,
                    addr: addr.offset(off),
                    bytes: blen,
                    kind,
                },
                t,
            );
            t = self.fabric.next_issue(id);
            let completion = self.fabric.poll(id);
            if completion >= done {
                done = completion;
                tail = Some(id);
            }
            off += blen;
        }
        (done, t, tail)
    }

    /// Like [`transfer`](Self::transfer) but also returns the chain's final
    /// address handshake — when the master may hand the fabric its next
    /// sequenced transfer. Masters that stream dependent work (MEMIF line
    /// fills, CPU cache fills) key off the handshake; blocking callers use
    /// the completion.
    pub fn transfer_handshake(
        &mut self,
        master: MasterId,
        addr: PhysAddr,
        len: u64,
        kind: TxnKind,
        now: Cycle,
    ) -> (Cycle, Cycle) {
        let (done, t, _) = self.transfer_chain(master, addr, len, kind, now);
        (done, t)
    }

    /// Like [`transfer_handshake`](Self::transfer_handshake) but also
    /// registers a completion **waiter** for the burst that completes the
    /// chain: the returned completion is the exact cycle at which
    /// [`drain_woken`](Self::drain_woken) will surface the wake. Masters
    /// whose consumers may park on the transfer (the non-blocking MEMIF's
    /// line fills, the CPU model's store-miss fills) issue through this so
    /// the wakeup can never be lost to the bounded completion FIFO; they
    /// retire landed waiters with [`retire_woken`](Self::retire_woken) at
    /// each later access.
    pub fn transfer_waited(
        &mut self,
        master: MasterId,
        addr: PhysAddr,
        len: u64,
        kind: TxnKind,
        now: Cycle,
    ) -> (Cycle, Cycle) {
        let (done, t, tail) = self.transfer_chain(master, addr, len, kind, now);
        if let Some(id) = tail {
            let wake = self.fabric.register_waiter(master, id);
            debug_assert_eq!(wake, done, "chain tail must complete the chain");
        }
        (done, t)
    }

    /// Timed read: copies bytes into `buf` and returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the physical range is out of bounds (addresses here are
    /// post-translation; an out-of-range access is a simulator bug).
    pub fn read(&mut self, master: MasterId, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        self.store.read(addr, buf);
        self.reads += 1;
        self.transfer(master, addr, buf.len() as u64, TxnKind::Read, now)
    }

    /// Timed write: copies `data` into memory and returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the physical range is out of bounds.
    pub fn write(&mut self, master: MasterId, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        self.store.write(addr, data);
        self.writes += 1;
        self.transfer(master, addr, data.len() as u64, TxnKind::Write, now)
    }

    /// Timed little-endian scalar read (one transaction) behind the typed
    /// `read_u32`/`read_u64` pair.
    fn read_scalar<T: LeScalar>(
        &mut self,
        master: MasterId,
        addr: PhysAddr,
        now: Cycle,
    ) -> (T, Cycle) {
        let mut b = [0u8; 8];
        let id = self.read_txn(master, addr, &mut b[..T::BYTES], now);
        (T::from_le(&b[..T::BYTES]), self.completion(id))
    }

    /// Timed little-endian scalar write behind the typed pair.
    fn write_scalar<T: LeScalar>(
        &mut self,
        master: MasterId,
        addr: PhysAddr,
        v: T,
        now: Cycle,
    ) -> Cycle {
        let mut b = [0u8; 8];
        v.to_le(&mut b[..T::BYTES]);
        let id = self.write_txn(master, addr, &b[..T::BYTES], now);
        self.completion(id)
    }

    /// Timed little-endian `u32` read (one bus transaction), as used by the
    /// page-table walker.
    pub fn read_u32(&mut self, master: MasterId, addr: PhysAddr, now: Cycle) -> (u32, Cycle) {
        self.read_scalar(master, addr, now)
    }

    /// Like [`read_u32`](Self::read_u32) but returns the outstanding
    /// transaction instead of its completion — the walker's issue-side
    /// entry point.
    pub fn read_u32_txn(&mut self, master: MasterId, addr: PhysAddr, now: Cycle) -> (u32, TxnId) {
        let mut b = [0u8; 4];
        let id = self.read_txn(master, addr, &mut b, now);
        (u32::from_le_bytes(b), id)
    }

    /// Timed little-endian `u32` write.
    pub fn write_u32(&mut self, master: MasterId, addr: PhysAddr, v: u32, now: Cycle) -> Cycle {
        self.write_scalar(master, addr, v, now)
    }

    /// Timed little-endian `u64` read.
    pub fn read_u64(&mut self, master: MasterId, addr: PhysAddr, now: Cycle) -> (u64, Cycle) {
        self.read_scalar(master, addr, now)
    }

    /// Timed little-endian `u64` write.
    pub fn write_u64(&mut self, master: MasterId, addr: PhysAddr, v: u64, now: Cycle) -> Cycle {
        self.write_scalar(master, addr, v, now)
    }

    /// Functional write with no timing (loaders, OS metadata setup whose cost
    /// is charged via explicit cost constants instead).
    pub fn load(&mut self, addr: PhysAddr, data: &[u8]) {
        self.store.write(addr, data);
    }

    /// Functional read with no timing (checkers, debuggers).
    pub fn dump(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.store.read(addr, buf);
    }

    /// Functionally swaps the page at `pa` with the one-page buffer `page`,
    /// with no timing and no copy: the page now holds `page`'s bytes and
    /// `page` receives the page's old bytes. The swap device's swap-in
    /// moves a whole page this way.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not page-aligned or out of range, or `page` is not
    /// exactly one page long.
    pub fn exchange_frame(&mut self, pa: PhysAddr, page: &mut Box<[u8]>) {
        assert!(pa.is_page_aligned(), "exchange_frame needs a page address");
        self.store.exchange_frame(pa.frame(), page);
    }

    /// Functional `u32` read.
    pub fn peek_u32(&self, addr: PhysAddr) -> u32 {
        self.store.read_u32(addr)
    }

    /// Functional `u32` write.
    pub fn poke_u32(&mut self, addr: PhysAddr, v: u32) {
        self.store.write_u32(addr, v);
    }

    /// Functional `u64` read.
    pub fn peek_u64(&self, addr: PhysAddr) -> u64 {
        self.store.read_u64(addr)
    }

    /// Functional `u64` write.
    pub fn poke_u64(&mut self, addr: PhysAddr, v: u64) {
        self.store.write_u64(addr, v);
    }

    /// Zero-fills a physical range functionally (page zeroing is charged by
    /// the OS cost model, not per byte here).
    pub fn zero(&mut self, addr: PhysAddr, len: u64) {
        self.store.fill(addr, len, 0);
    }

    /// Fabric view (for utilization and overlap reporting).
    /// Minimum cycles between a master issuing a transaction and its
    /// earliest possible completion: the address-phase arbitration plus a
    /// row-hit access of a single beat. The sharded simulation core derives
    /// its conservative lookahead window from this bound.
    pub fn min_issue_to_complete(&self) -> u64 {
        self.fabric.config().arb_cycles + self.dram.config().t_row_hit + 1
    }

    /// Starts (or clears) dirty-frame journaling on the backing store (see
    /// [`SparseMemory::enable_journal`]).
    pub fn enable_store_journal(&mut self) {
        self.store.enable_journal();
    }

    /// Drains the backing store's dirty-frame journal.
    pub fn take_store_journal(&mut self) -> Vec<u64> {
        self.store.take_journal()
    }

    /// Moves this replica's fabric onto a disjoint transaction-id lane (see
    /// [`SplitFabric::set_id_lane`]).
    pub fn set_fabric_id_lane(&mut self, start: u64, stride: u64) {
        self.fabric.set_id_lane(start, stride);
    }

    /// The fabric's next unissued transaction id (lane-aware).
    pub fn fabric_next_txn_id(&self) -> u64 {
        self.fabric.next_id
    }

    pub fn fabric(&self) -> &SplitFabric {
        &self.fabric
    }

    /// DRAM view (for row-buffer statistics).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Counter snapshot including fabric and DRAM sub-stats.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("reads", self.reads as f64);
        s.put("writes", self.writes as f64);
        s.absorb("fabric", self.fabric.stats());
        s.absorb("dram", self.dram.stats());
        s
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl MemorySystem {
    /// Serializes the whole memory path: backing store, fabric arbiter,
    /// DRAM banks, and the access counters.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        self.store.save_state(w);
        self.fabric.save_state(w);
        self.dram.save_state(w);
        w.put_u64(self.reads);
        w.put_u64(self.writes);
    }

    /// Rebuilds a memory system captured by
    /// [`save_state`](Self::save_state) under the design's `cfg`.
    pub fn restore_state(
        cfg: &MemConfig,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::SnapError;
        let store = SparseMemory::restore_state(r)?;
        if store.size() != cfg.size_bytes {
            return Err(SnapError::Corrupt("memory size differs from config"));
        }
        let fabric = SplitFabric::restore_state(cfg.fabric.clone(), r)?;
        let dram = Dram::restore_state(cfg.dram.clone(), r)?;
        Ok(MemorySystem {
            store,
            fabric,
            dram,
            max_burst: cfg.max_burst_bytes,
            reads: r.take_u64()?,
            writes: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig {
            size_bytes: 1 << 20,
            ..MemConfig::default()
        })
    }

    #[test]
    fn timed_roundtrip_moves_bytes() {
        let mut m = mem();
        let t = m.write(MasterId(0), PhysAddr(64), b"hello!!!", Cycle(0));
        let mut buf = [0u8; 8];
        m.read(MasterId(0), PhysAddr(64), &mut buf, t);
        assert_eq!(&buf, b"hello!!!");
    }

    #[test]
    fn longer_transfers_take_longer() {
        let mut a = mem();
        let short = a.transfer(MasterId(0), PhysAddr(0), 8, TxnKind::Read, Cycle(0));
        let mut b = mem();
        let long = b.transfer(MasterId(0), PhysAddr(0), 4096, TxnKind::Read, Cycle(0));
        assert!(long > short);
    }

    #[test]
    fn bursts_split_at_max_burst() {
        let mut m = MemorySystem::new(MemConfig {
            size_bytes: 1 << 20,
            max_burst_bytes: 64,
            ..MemConfig::default()
        });
        m.transfer(MasterId(0), PhysAddr(0), 256, TxnKind::Read, Cycle(0));
        // 256 bytes at 64 B/burst = 4 fabric transactions.
        assert_eq!(m.fabric().stats().get("transactions"), Some(4.0));
    }

    #[test]
    fn contention_between_masters() {
        let mut m = mem();
        let alone = {
            let mut solo = mem();
            solo.transfer(MasterId(0), PhysAddr(0), 4096, TxnKind::Read, Cycle(0))
        };
        m.transfer(MasterId(1), PhysAddr(65536), 4096, TxnKind::Read, Cycle(0));
        let contended = m.transfer(MasterId(0), PhysAddr(0), 4096, TxnKind::Read, Cycle(0));
        assert!(
            contended > alone,
            "sharing the data channel must slow master 0 down"
        );
    }

    #[test]
    fn windowed_fabric_overlaps_bank_strided_reads() {
        // Bank-strided 64 B reads (8 KiB stride rotates DRAM banks): a
        // blocking master round-trips each one; a windowed master keeps
        // several outstanding, so independent bank latencies overlap.
        let run = |fabric: FabricConfig, blocking: bool| {
            let mut m = MemorySystem::new(MemConfig {
                size_bytes: 1 << 20,
                fabric,
                ..MemConfig::default()
            });
            let mut t = Cycle(0);
            let mut end = Cycle(0);
            for i in 0..8u64 {
                let id = m.issue(
                    TxnDesc {
                        master: MasterId(0),
                        addr: PhysAddr(i * 8192),
                        bytes: 64,
                        kind: TxnKind::Read,
                    },
                    t,
                );
                end = end.max(m.completion(id));
                t = if blocking {
                    m.completion(id)
                } else {
                    m.next_issue(id)
                };
            }
            end
        };
        let serial = run(FabricConfig::blocking(), true);
        let overlapped = run(FabricConfig::default(), false);
        assert!(
            overlapped < serial,
            "outstanding reads must overlap DRAM latency ({overlapped} vs {serial})"
        );
    }

    #[test]
    fn issue_poll_drain_roundtrip() {
        let mut m = mem();
        let desc = TxnDesc {
            master: MasterId(2),
            addr: PhysAddr(128),
            bytes: 64,
            kind: TxnKind::Read,
        };
        let id = m.issue(desc, Cycle(0));
        let done = m.completion(id);
        assert!(done > Cycle(0));
        assert!(m.next_issue(id) <= done);
        let drained = m.drain_completions(MasterId(2), done);
        assert_eq!(drained, vec![(id, done)]);
    }

    #[test]
    fn functional_access_has_no_timing() {
        let mut m = mem();
        m.load(PhysAddr(0), &[9, 9]);
        let mut b = [0u8; 2];
        m.dump(PhysAddr(0), &mut b);
        assert_eq!(b, [9, 9]);
        assert_eq!(m.fabric().busy_cycles(), 0);
        assert_eq!(m.stats().get("reads"), Some(0.0));
    }

    #[test]
    fn typed_timed_accessors() {
        let mut m = mem();
        let t = m.write_u32(MasterId(0), PhysAddr(16), 0xCAFE_F00D, Cycle(0));
        let (v, t2) = m.read_u32(MasterId(0), PhysAddr(16), t);
        assert_eq!(v, 0xCAFE_F00D);
        assert!(t2 > t);
        let t3 = m.write_u64(MasterId(0), PhysAddr(24), 0x1122_3344_5566_7788, t2);
        let (w, _) = m.read_u64(MasterId(0), PhysAddr(24), t3);
        assert_eq!(w, 0x1122_3344_5566_7788);
        let (v2, id) = m.read_u32_txn(MasterId(0), PhysAddr(16), t3);
        assert_eq!(v2, 0xCAFE_F00D);
        assert!(m.completion(id) > t3);
    }

    #[test]
    fn zero_and_peek_poke() {
        let mut m = mem();
        m.poke_u32(PhysAddr(0), 0xFFFF_FFFF);
        m.zero(PhysAddr(0), 4);
        assert_eq!(m.peek_u32(PhysAddr(0)), 0);
        m.poke_u64(PhysAddr(8), 7);
        assert_eq!(m.peek_u64(PhysAddr(8)), 7);
    }

    #[test]
    fn stats_absorb_subcomponents() {
        let mut m = mem();
        m.write(MasterId(0), PhysAddr(0), &[1], Cycle(0));
        let s = m.stats();
        assert_eq!(s.get("writes"), Some(1.0));
        assert!(s.get("fabric.busy_cycles").unwrap() > 0.0);
        assert!(s.get("dram.accesses").unwrap() > 0.0);
    }
}

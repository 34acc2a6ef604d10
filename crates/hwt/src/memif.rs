//! MEMIF — the hardware thread's memory interface.
//!
//! Every access goes through the thread's private MMU (virtual addresses —
//! the point of the paper), then through a small BRAM-backed **burst
//! cache** (write-back, write-allocate): sequential and blocked access
//! patterns coalesce into line-sized bus bursts, the multi-line capacity
//! lets several streams coexist (`dst[i] = a[i] + b[i]` touches three), and
//! dirty lines write back on eviction or at the final flush.
//!
//! The cache is timing-only: bytes always move through the shared
//! [`MemorySystem`] functionally, so hardware and software threads stay
//! coherent by construction. Lines never cross a page, so one translation
//! covers a line. Faults are *returned*, not handled: the hardware thread
//! raises them to its delegate and retries after OS service.

use svmsyn_mem::{
    CacheConfig, CacheOutcome, FabricPort, L1Cache, MasterId, MemorySystem, PhysAddr, TxnKind,
    VirtAddr,
};
use svmsyn_sim::{Cycle, StatSet};
use svmsyn_vm::mmu::{Access, Mmu, MmuConfig, VmFault};
use svmsyn_vm::tlb::Asid;

/// Addressing mode of the interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemifMode {
    /// Virtual addressing through the MMU (the paper's SVM threads).
    #[default]
    Virtual,
    /// Raw physical addressing, no MMU: the classical copy-based DMA
    /// accelerator that only ever sees pinned, contiguous buffers.
    Physical,
}

/// MEMIF configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemifConfig {
    /// Burst line size in bytes (power of two, at most a page).
    pub line_bytes: u64,
    /// Burst-cache lines (BRAM capacity of the interface).
    pub cache_lines: usize,
    /// The MMU behind the interface.
    pub mmu: MmuConfig,
    /// Addressing mode.
    pub mode: MemifMode,
    /// Outstanding line-fill depth of the non-blocking interface (its
    /// interface-level MSHRs): how many misses may be in flight before a
    /// new miss must wait for the oldest fill. `1` selects the blocking
    /// (pre-event-delivery) discipline — the hardware thread stalls at
    /// every miss, cycle-identical to the analytic-poll path.
    pub miss_depth: u32,
}

impl Default for MemifConfig {
    /// 64 lines of 64 B (a 4 KiB burst cache, two BRAMs) over the default
    /// MMU, virtual addressing, 4 outstanding line fills (matching the
    /// default fabric window).
    fn default() -> Self {
        MemifConfig {
            line_bytes: 64,
            cache_lines: 64,
            mmu: MmuConfig::default(),
            mode: MemifMode::Virtual,
            miss_depth: 4,
        }
    }
}

impl MemifConfig {
    fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.line_bytes * self.cache_lines as u64,
            line_bytes: self.line_bytes,
            // Fully associative: the line count is small.
            ways: self.cache_lines,
        }
    }
}

/// A failed access: the fault to raise and the time it was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemifFault {
    /// The fault for the OS.
    pub fault: VmFault,
    /// Detection time.
    pub done: Cycle,
}

/// Most chunks a single access can split into: accesses are at most 8
/// bytes and lines at least 8 (enforced in [`Memif::new`]), so an access
/// straddles at most one full line plus a partial one on each side.
const MAX_CHUNKS: usize = 3;

/// Splits an access into its per-line chunks: `(start va, byte count)`.
/// Accesses are at most 8 bytes, so this is one chunk in the common case
/// and two or three when the access straddles line boundaries — the result
/// is a fixed-size inline buffer plus a count, so the hot path never heap-
/// allocates a chunk list.
fn access_chunks(
    line_bytes: u64,
    va: VirtAddr,
    len: u64,
) -> ([(VirtAddr, u64); MAX_CHUNKS], usize) {
    // Only called once the single-line fast path has been ruled out, so
    // there are always at least two chunks.
    let mut chunks = [(VirtAddr(0), 0u64); MAX_CHUNKS];
    let mut count = 0usize;
    let mut off = 0u64;
    while off < len {
        let cur = VirtAddr(va.0 + off);
        let line_end = (cur.0 & !(line_bytes - 1)) + line_bytes;
        let n = (line_end - cur.0).min(len - off);
        chunks[count] = (cur, n);
        count += 1;
        off += n;
    }
    (chunks, count)
}

/// One non-blocking access's timing, as returned by
/// [`Memif::read_nb`]/[`Memif::write_nb`].
///
/// The split mirrors the split-transaction fabric: `next` is the
/// handshake — when the interface can take the thread's *next* access —
/// and `done` is when this access's data is architecturally in hand. For a
/// burst-cache hit the two coincide (`now + 1`); for a miss `next` is the
/// fill's address handshake while `done` is its completion, so the thread
/// keeps running hit-under-miss and only a *dependent* micro-op parks
/// until `done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbAccess {
    /// Loaded raw value (zero for writes).
    pub raw: u64,
    /// When the data is in hand (hit: `now + 1`; miss: fill completion).
    pub done: Cycle,
    /// When the interface may take the next access.
    pub next: Cycle,
    /// Completion cycle of the outstanding line fill this access rides on
    /// (a new miss, or a secondary hit merging onto an in-flight fill);
    /// `None` for a plain hit.
    pub fill: Option<Cycle>,
}

/// The per-thread memory interface (MMU + burst cache).
///
/// # Example
///
/// ```
/// use svmsyn_hwt::memif::{Memif, MemifConfig};
/// use svmsyn_mem::{MasterId, MemConfig, MemorySystem, PhysAddr, VirtAddr};
/// use svmsyn_sim::Cycle;
/// use svmsyn_vm::pte::{DirEntry, Pte, PteFlags};
/// use svmsyn_vm::tlb::Asid;
/// use svmsyn_hls::ir::Width;
///
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let root = PhysAddr::from_frame(5);
/// mem.poke_u32(root, DirEntry::table(6).encode());
/// let flags = PteFlags { writable: true, user: true, ..PteFlags::default() };
/// mem.poke_u32(PhysAddr::from_frame(6), Pte::leaf(7, flags).encode());
///
/// let mut memif = Memif::new(MemifConfig::default(), MasterId(3));
/// memif.set_context(Asid(1), root);
/// let done = memif.write(&mut mem, VirtAddr(8), Width::W32, 0xAB, Cycle(0)).unwrap();
/// let (raw, _) = memif.read(&mut mem, VirtAddr(8), Width::W32, done).unwrap();
/// assert_eq!(raw, 0xAB);
/// ```
#[derive(Debug, Clone)]
pub struct Memif {
    cfg: MemifConfig,
    mmu: Mmu,
    port: FabricPort,
    cache: L1Cache,
    loads: u64,
    stores: u64,
    faults: u64,
    flush_writebacks: u64,
    /// Outstanding line fills of the non-blocking path: `(physical line
    /// base, fill completion)`. Bounded by `cfg.miss_depth`; populated only
    /// by [`read_nb`](Self::read_nb)/[`write_nb`](Self::write_nb) — the
    /// blocking wrappers keep their pre-event-delivery timing untouched.
    outstanding: Vec<(u64, Cycle)>,
    /// Accesses that proceeded while at least one fill was outstanding.
    hit_under_miss: u64,
    /// Σ fill latency (completion − access arrival) of non-blocking fills.
    fill_latency_cycles: u64,
    /// Cycles the consumer actually stalled on outstanding fills (reported
    /// via [`note_miss_stall`](Self::note_miss_stall), plus depth-full
    /// waits). `fill_latency − stall` is the hidden (overlapped) portion.
    miss_stall_cycles: u64,
    /// Of `miss_stall_cycles`, the part caused by a full miss window.
    mshr_stall_cycles: u64,
}

impl Memif {
    /// Creates a cold interface acting as bus master `master`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two between one access
    /// width (8 B) and a page, or `cache_lines` is zero.
    pub fn new(cfg: MemifConfig, master: MasterId) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes <= svmsyn_mem::PAGE_SIZE,
            "line_bytes must be a power of two within a page"
        );
        // A line narrower than the widest access (8 B) would split one
        // access into more than MAX_CHUNKS pieces — and makes no sense as
        // a burst unit anyway.
        assert!(cfg.line_bytes >= 8, "line_bytes must cover one access");
        assert!(cfg.cache_lines > 0, "cache_lines must be positive");
        assert!(cfg.miss_depth >= 1, "miss_depth must be at least 1");
        Memif {
            cfg,
            mmu: Mmu::new(cfg.mmu, master),
            port: FabricPort::new(master),
            cache: L1Cache::new(cfg.cache_config()),
            loads: 0,
            stores: 0,
            faults: 0,
            flush_writebacks: 0,
            outstanding: Vec::new(),
            hit_under_miss: 0,
            fill_latency_cycles: 0,
            miss_stall_cycles: 0,
            mshr_stall_cycles: 0,
        }
    }

    /// The configured outstanding-miss depth.
    pub fn miss_depth(&self) -> u32 {
        self.cfg.miss_depth
    }

    /// Binds the interface to an address space.
    pub fn set_context(&mut self, asid: Asid, root: PhysAddr) {
        self.mmu.set_context(asid, root);
    }

    /// The MMU (for TLB statistics and shootdowns).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Mutable MMU access.
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// Resolves an address per the configured mode: MMU translation (with
    /// fault reporting) or raw physical pass-through.
    fn resolve(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        access: Access,
        now: Cycle,
    ) -> Result<(PhysAddr, Cycle), MemifFault> {
        match self.cfg.mode {
            MemifMode::Physical => Ok((PhysAddr(va.0), now)),
            MemifMode::Virtual => match self.mmu.translate(mem, va, access, now) {
                Ok(tr) => Ok((tr.paddr, tr.done)),
                Err(e) => {
                    self.faults += 1;
                    Err(MemifFault {
                        fault: e.fault,
                        done: e.done,
                    })
                }
            },
        }
    }

    /// Resolves a page-crossing access's chunks as one batched MMU epoch:
    /// the translations issue together and misses share the walker's
    /// directory-coalescing [`walk_many`] path. The earliest faulting chunk
    /// wins (the retry re-executes the whole access).
    ///
    /// [`walk_many`]: svmsyn_vm::walker::PageTableWalker::walk_many
    fn resolve_batch(
        &mut self,
        mem: &mut MemorySystem,
        chunks: &[(VirtAddr, u64)],
        access: Access,
        now: Cycle,
    ) -> Result<Vec<(PhysAddr, Cycle)>, MemifFault> {
        let accesses: Vec<(VirtAddr, Access)> =
            chunks.iter().map(|&(va, _)| (va, access)).collect();
        let mut out = Vec::with_capacity(chunks.len());
        for tr in self.mmu.translate_many(mem, &accesses, now) {
            match tr {
                Ok(tr) => out.push((tr.paddr, tr.done)),
                Err(e) => {
                    self.faults += 1;
                    return Err(MemifFault {
                        fault: e.fault,
                        done: e.done,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Batches the chunk translations when the access crosses a page
    /// boundary (only then can more than one translation miss at once);
    /// same-page chunks keep the incremental per-chunk resolve.
    fn maybe_batch(
        &mut self,
        mem: &mut MemorySystem,
        chunks: &[(VirtAddr, u64)],
        access: Access,
        now: Cycle,
    ) -> Result<Option<Vec<(PhysAddr, Cycle)>>, MemifFault> {
        let crosses_page = chunks.first().map(|c| c.0.vpn()) != chunks.last().map(|c| c.0.vpn());
        if self.cfg.mode == MemifMode::Virtual && crosses_page {
            Ok(Some(self.resolve_batch(mem, chunks, access, now)?))
        } else {
            Ok(None)
        }
    }

    /// Whether an access of `len` bytes at `va` stays within one burst line.
    #[inline]
    fn fits_one_line(&self, va: VirtAddr, len: u64) -> bool {
        va.0 + len <= (va.0 & !(self.cfg.line_bytes - 1)) + self.cfg.line_bytes
    }

    /// Charges the timing of one cached access at physical address `pa`.
    /// Returns `(data ready, next issue)`: when the access's data is in
    /// hand, and when the interface may hand the fabric its next sequenced
    /// transaction.
    fn charge(
        &mut self,
        mem: &mut MemorySystem,
        pa: PhysAddr,
        write: bool,
        now: Cycle,
    ) -> (Cycle, Cycle) {
        let line = self.cfg.line_bytes;
        match self.cache.access(pa, write) {
            CacheOutcome::Hit => (now + 1, now + 1),
            CacheOutcome::Miss { writeback } => {
                let master = self.port.master();
                let mut t = now;
                if let Some(victim) = writeback {
                    // Fire-and-forget: the victim drains from a writeback
                    // buffer; the fill waits only for its address handshake,
                    // not its completion.
                    let (_, next) = mem.transfer_handshake(master, victim, line, TxnKind::Write, t);
                    t = next;
                }
                mem.transfer_handshake(master, PhysAddr(pa.0 & !(line - 1)), line, TxnKind::Read, t)
            }
        }
    }

    /// Retires outstanding fills completed by `now` — and their registered
    /// fabric waiters with them, so the waiter list stays bounded by the
    /// miss window — and returns whether any fill is still in flight
    /// afterwards (the hit-under-miss condition). Runs on every
    /// non-blocking access, so the waiters go through
    /// [`MemorySystem::retire_woken`], which allocates nothing and rewrites
    /// the list only when a waiter is due.
    fn purge_fills(&mut self, mem: &mut MemorySystem, now: Cycle) -> bool {
        mem.retire_woken(self.port.master(), now);
        self.outstanding.retain(|&(_, done)| done > now);
        !self.outstanding.is_empty()
    }

    /// Charges one *non-blocking* cached access at `pa`: returns
    /// `(done, next, fill)` — data-in-hand time, next-access handshake, and
    /// the completion of the line fill the data rides on (if any).
    ///
    /// A miss issues its fill as an outstanding transaction (with a
    /// registered fabric completion waiter) and returns at the address
    /// handshake; a *secondary* access to a line whose fill is still in
    /// flight merges onto it — no second transaction, data at the fill's
    /// completion — the interface-level MSHR discipline.
    fn charge_nb(
        &mut self,
        mem: &mut MemorySystem,
        pa: PhysAddr,
        write: bool,
        now: Cycle,
    ) -> (Cycle, Cycle, Option<Cycle>) {
        let line = self.cfg.line_bytes;
        let base = pa.0 & !(line - 1);
        match self.cache.access(pa, write) {
            CacheOutcome::Hit => {
                match self
                    .outstanding
                    .iter()
                    .find(|&&(l, done)| l == base && done > now)
                {
                    // Secondary hit under an in-flight fill: data lands
                    // with the fill; the interface itself is free.
                    Some(&(_, done)) => (done, now + 1, Some(done)),
                    None => (now + 1, now + 1, None),
                }
            }
            CacheOutcome::Miss { writeback } => {
                let mut t = now;
                // Depth throttle: a full miss window waits for the oldest
                // outstanding fill before issuing a new one.
                if self.outstanding.len() >= self.cfg.miss_depth as usize {
                    let earliest = self
                        .outstanding
                        .iter()
                        .map(|&(_, d)| d)
                        .min()
                        .expect("full window is non-empty");
                    if earliest > t {
                        let stall = (earliest - t).0;
                        self.mshr_stall_cycles += stall;
                        self.miss_stall_cycles += stall;
                        t = earliest;
                    }
                    self.outstanding.retain(|&(_, d)| d > t);
                }
                let master = self.port.master();
                if let Some(victim) = writeback {
                    // Fire-and-forget: the victim drains from a writeback
                    // buffer; the fill waits only for its address
                    // handshake, not its completion.
                    let (_, next) = mem.transfer_handshake(master, victim, line, TxnKind::Write, t);
                    t = next;
                }
                let (done, next) =
                    mem.transfer_waited(master, PhysAddr(base), line, TxnKind::Read, t);
                self.fill_latency_cycles += (done - now).0;
                self.outstanding.push((base, done));
                (done, next, Some(done))
            }
        }
    }

    /// The shared multi-chunk walk behind all four access paths (blocking
    /// and non-blocking, read and write): resolves each per-line chunk
    /// (batched through the walker when the access crosses a page),
    /// charges it through the selected discipline, and moves the bytes —
    /// `io` is written for reads and read for writes. Chunk fills chain on
    /// the previous fill's address handshake, so on a windowed fabric a
    /// page-crossing access's line fills overlap each other (and the
    /// batch's walks); the access's data is in hand when the last
    /// outstanding fill completes. `raw` in the result is left zero.
    #[allow(clippy::too_many_arguments)] // private 4-way dispatch hub
    fn chunked(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        len: u64,
        write: bool,
        nonblocking: bool,
        io: &mut [u8; 8],
        now: Cycle,
    ) -> Result<NbAccess, MemifFault> {
        let access = if write { Access::Write } else { Access::Read };
        let (chunk_buf, nchunks) = access_chunks(self.cfg.line_bytes, va, len);
        let chunks = &chunk_buf[..nchunks];
        let batched = self.maybe_batch(mem, chunks, access, now)?;
        let mut t = now;
        let mut done = now;
        let mut fill: Option<Cycle> = None;
        let mut off = 0usize;
        for (i, &(cur, n)) in chunks.iter().enumerate() {
            let (pa, ready) = match &batched {
                Some(b) => b[i],
                None => self.resolve(mem, cur, access, t)?,
            };
            let at = t.max(ready);
            let (d, next, f) = if nonblocking {
                if i == 0 && self.purge_fills(mem, at) {
                    self.hit_under_miss += 1;
                }
                self.charge_nb(mem, pa, write, at)
            } else {
                let (d, next) = self.charge(mem, pa, write, at);
                (d, next, None)
            };
            done = done.max(d);
            t = next;
            if let Some(f) = f {
                fill = Some(fill.map_or(f, |x| x.max(f)));
            }
            // Bytes move at issue (functional coherence).
            let n = n as usize;
            if write {
                mem.load(pa, &io[off..off + n]);
            } else {
                mem.dump(pa, &mut io[off..off + n]);
            }
            off += n;
        }
        Ok(NbAccess {
            raw: 0,
            done,
            next: t,
            fill,
        })
    }

    /// Non-blocking read: issues at `now`, returns the raw value with the
    /// access's [`NbAccess`] timing. The thread continues at `.next`
    /// (hit-under-miss); only consumers of the data need wait for `.done`.
    ///
    /// # Errors
    ///
    /// Returns [`MemifFault`] on a translation fault; retry after service.
    pub fn read_nb(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        width: svmsyn_hls::ir::Width,
        now: Cycle,
    ) -> Result<NbAccess, MemifFault> {
        self.loads += 1;
        let len = width.bytes();
        let mut bytes = [0u8; 8];
        if self.fits_one_line(va, len) {
            let (pa, ready) = self.resolve(mem, va, Access::Read, now)?;
            if self.purge_fills(mem, ready) {
                self.hit_under_miss += 1;
            }
            let (done, next, fill) = self.charge_nb(mem, pa, false, ready);
            mem.dump(pa, &mut bytes[..len as usize]);
            return Ok(NbAccess {
                raw: u64::from_le_bytes(bytes),
                done,
                next,
                fill,
            });
        }
        let mut acc = self.chunked(mem, va, len, false, true, &mut bytes, now)?;
        acc.raw = u64::from_le_bytes(bytes);
        Ok(acc)
    }

    /// Non-blocking (fire-and-forget) write: the store buffer absorbs the
    /// access at `.next`; a write-allocate miss's fill is tracked in the
    /// outstanding window like a read fill.
    ///
    /// # Errors
    ///
    /// Returns [`MemifFault`] on a translation fault; retry after service.
    pub fn write_nb(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        width: svmsyn_hls::ir::Width,
        raw: u64,
        now: Cycle,
    ) -> Result<NbAccess, MemifFault> {
        self.stores += 1;
        let len = width.bytes();
        let mut data = raw.to_le_bytes();
        if self.fits_one_line(va, len) {
            let (pa, ready) = self.resolve(mem, va, Access::Write, now)?;
            if self.purge_fills(mem, ready) {
                self.hit_under_miss += 1;
            }
            let (done, next, fill) = self.charge_nb(mem, pa, true, ready);
            // Bytes land in memory immediately (functional coherence).
            mem.load(pa, &data[..len as usize]);
            return Ok(NbAccess {
                raw: 0,
                done,
                next,
                fill,
            });
        }
        self.chunked(mem, va, len, true, true, &mut data, now)
    }

    /// Records `cycles` the consumer actually stalled waiting on an
    /// outstanding fill (a parked dependent micro-op). Together with the
    /// fill-latency integral this yields `miss_overlap_cycles`.
    pub fn note_miss_stall(&mut self, cycles: u64) {
        self.miss_stall_cycles += cycles;
    }

    /// Waits out every outstanding fill (kernel completion): returns when
    /// the last fill lands, clears the window (and the fills' registered
    /// fabric waiters — no phantom wakeups survive the kernel), and books
    /// the wait as stall.
    pub fn drain_outstanding(&mut self, mem: &mut MemorySystem, now: Cycle) -> Cycle {
        let end = self
            .outstanding
            .iter()
            .map(|&(_, d)| d)
            .max()
            .map_or(now, |d| d.max(now));
        self.miss_stall_cycles += (end - now).0;
        self.outstanding.clear();
        mem.retire_woken(self.port.master(), end);
        end
    }

    /// Number of line fills currently outstanding.
    pub fn outstanding_fills(&self) -> usize {
        self.outstanding.len()
    }

    /// Reads `width` bytes at `va`; returns the little-endian raw value and
    /// the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`MemifFault`] on a translation fault; retry after service.
    pub fn read(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        width: svmsyn_hls::ir::Width,
        now: Cycle,
    ) -> Result<(u64, Cycle), MemifFault> {
        self.loads += 1;
        let len = width.bytes();
        let mut bytes = [0u8; 8];
        // Fast path: the access fits inside one line (the overwhelmingly
        // common case) — one translation, one charge, no chunk list.
        if self.fits_one_line(va, len) {
            let (pa, ready) = self.resolve(mem, va, Access::Read, now)?;
            let (t, _) = self.charge(mem, pa, false, ready);
            mem.dump(pa, &mut bytes[..len as usize]);
            return Ok((u64::from_le_bytes(bytes), t));
        }
        let acc = self.chunked(mem, va, len, false, false, &mut bytes, now)?;
        Ok((u64::from_le_bytes(bytes), acc.done))
    }

    /// Writes the low `width` bytes of `raw` at `va`; returns the completion
    /// time (dirty lines are charged at eviction or final flush).
    ///
    /// # Errors
    ///
    /// Returns [`MemifFault`] on a translation fault; retry after service.
    pub fn write(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        width: svmsyn_hls::ir::Width,
        raw: u64,
        now: Cycle,
    ) -> Result<Cycle, MemifFault> {
        self.stores += 1;
        let len = width.bytes();
        let mut data = raw.to_le_bytes();
        if self.fits_one_line(va, len) {
            let (pa, ready) = self.resolve(mem, va, Access::Write, now)?;
            let (t, _) = self.charge(mem, pa, true, ready);
            // Bytes land in memory immediately (functional coherence).
            mem.load(pa, &data[..len as usize]);
            return Ok(t);
        }
        let acc = self.chunked(mem, va, len, true, false, &mut data, now)?;
        Ok(acc.done)
    }

    /// Drains all dirty lines (kernel completion) as a stream of
    /// outstanding write transactions; returns the time when the last one
    /// completes. On a windowed fabric the writebacks' DRAM latencies
    /// overlap instead of draining one round-trip at a time.
    pub fn flush(&mut self, mem: &mut MemorySystem, now: Cycle) -> Cycle {
        let mut t = now;
        let mut done = now;
        for line in self.cache.drain_dirty() {
            self.flush_writebacks += 1;
            let (d, next) = mem.transfer_handshake(
                self.port.master(),
                line,
                self.cfg.line_bytes,
                TxnKind::Write,
                t,
            );
            t = next;
            done = done.max(d);
        }
        done
    }

    /// Counter snapshot (burst cache and MMU absorbed).
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("loads", self.loads as f64);
        s.put("stores", self.stores as f64);
        s.put("faults", self.faults as f64);
        s.put("flush_writebacks", self.flush_writebacks as f64);
        s.put("hit_under_miss", self.hit_under_miss as f64);
        // Fill latency the thread did NOT stall for: the cycles of
        // outstanding-miss latency hidden behind execution (or behind the
        // other outstanding fills). Zero by construction in the blocking
        // (`miss_depth == 1`) discipline.
        s.put(
            "miss_overlap_cycles",
            self.fill_latency_cycles
                .saturating_sub(self.miss_stall_cycles) as f64,
        );
        s.put("miss_stall_cycles", self.miss_stall_cycles as f64);
        s.put("mshr_stall_cycles", self.mshr_stall_cycles as f64);
        s.absorb("cache", self.cache.stats());
        s.absorb("mmu", self.mmu.stats());
        s
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl Memif {
    /// Serializes the interface's dynamic state: the MMU (TLB + walk
    /// caches + bound context), the burst cache, the outstanding-fill
    /// window, and the counters. Geometry and mode are design-side and
    /// re-supplied at restore.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        self.mmu.save_state(w);
        self.cache.save_state(w);
        w.put_u64(self.loads);
        w.put_u64(self.stores);
        w.put_u64(self.faults);
        w.put_u64(self.flush_writebacks);
        self.outstanding.save(w);
        w.put_u64(self.hit_under_miss);
        w.put_u64(self.fill_latency_cycles);
        w.put_u64(self.miss_stall_cycles);
        w.put_u64(self.mshr_stall_cycles);
    }

    /// Rebuilds an interface captured by [`save_state`](Self::save_state)
    /// under the design's MEMIF config and bus-master identity.
    pub fn restore_state(
        cfg: MemifConfig,
        master: MasterId,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let mmu = Mmu::restore_state(cfg.mmu, master, r)?;
        let cache = L1Cache::restore_state(cfg.cache_config(), r)?;
        let loads = r.take_u64()?;
        let stores = r.take_u64()?;
        let faults = r.take_u64()?;
        let flush_writebacks = r.take_u64()?;
        let outstanding: Vec<(u64, Cycle)> = Vec::load(r)?;
        if outstanding.len() > cfg.miss_depth as usize {
            return Err(SnapError::Corrupt("outstanding-fill window depth"));
        }
        Ok(Memif {
            cfg,
            mmu,
            port: FabricPort::new(master),
            cache,
            loads,
            stores,
            faults,
            flush_writebacks,
            outstanding,
            hit_under_miss: r.take_u64()?,
            fill_latency_cycles: r.take_u64()?,
            miss_stall_cycles: r.take_u64()?,
            mshr_stall_cycles: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmsyn_hls::ir::Width;
    use svmsyn_mem::MemConfig;
    use svmsyn_vm::pte::{DirEntry, Pte, PteFlags};

    fn setup() -> (MemorySystem, Memif) {
        let mut mem = MemorySystem::new(MemConfig::default());
        let root = PhysAddr::from_frame(5);
        mem.poke_u32(root, DirEntry::table(6).encode());
        let flags = PteFlags {
            writable: true,
            user: true,
            ..PteFlags::default()
        };
        // Map VA pages 0 and 1 to PFNs 7 and 8.
        mem.poke_u32(PhysAddr::from_frame(6), Pte::leaf(7, flags).encode());
        mem.poke_u32(
            PhysAddr::from_frame(6).offset(4),
            Pte::leaf(8, flags).encode(),
        );
        let mut memif = Memif::new(MemifConfig::default(), MasterId(3));
        memif.set_context(Asid(1), root);
        (mem, memif)
    }

    #[test]
    fn sequential_reads_hit_the_burst_cache() {
        let (mut mem, mut memif) = setup();
        mem.load(PhysAddr::from_frame(7), &(0..64).collect::<Vec<u8>>());
        let (v0, t0) = memif
            .read(&mut mem, VirtAddr(0), Width::W32, Cycle(0))
            .unwrap();
        assert_eq!(v0, u32::from_le_bytes([0, 1, 2, 3]) as u64);
        let (v1, t1) = memif.read(&mut mem, VirtAddr(4), Width::W32, t0).unwrap();
        assert_eq!(v1, u32::from_le_bytes([4, 5, 6, 7]) as u64);
        // Buffered hit: TLB lookup (1) + cache hit (1).
        assert!((t1 - t0).0 <= 2, "buffered hit should be cheap");
        assert!((t0 - Cycle(0)).0 > 2, "first read fills the line");
        assert_eq!(memif.stats().get("cache.misses"), Some(1.0));
        assert_eq!(memif.stats().get("cache.hits"), Some(1.0));
    }

    #[test]
    fn multiple_streams_coexist() {
        // Alternating reads from two far-apart pages must not thrash.
        let (mut mem, mut memif) = setup();
        let mut t = Cycle(0);
        for i in 0..16u64 {
            let (_, t1) = memif
                .read(&mut mem, VirtAddr(i * 4), Width::W32, t)
                .unwrap();
            let (_, t2) = memif
                .read(&mut mem, VirtAddr(4096 + i * 4), Width::W32, t1)
                .unwrap();
            t = t2;
        }
        // 32 accesses, 2 line fills only.
        assert_eq!(memif.stats().get("cache.misses"), Some(2.0));
        assert_eq!(memif.stats().get("cache.hits"), Some(30.0));
    }

    #[test]
    fn read_across_line_boundary_fills_both() {
        let (mut mem, mut memif) = setup();
        memif
            .read(&mut mem, VirtAddr(60), Width::W64, Cycle(0))
            .unwrap();
        assert_eq!(memif.stats().get("cache.misses"), Some(2.0));
    }

    #[test]
    fn writes_coalesce_and_flush_once_per_line() {
        let (mut mem, mut memif) = setup();
        let mut t = Cycle(0);
        for i in 0..16u64 {
            t = memif
                .write(&mut mem, VirtAddr(i * 4), Width::W32, i, t)
                .unwrap();
        }
        // 16 word stores in one 64 B line: one fill (write-allocate), no
        // writebacks yet.
        assert_eq!(memif.stats().get("cache.misses"), Some(1.0));
        assert_eq!(memif.stats().get("flush_writebacks"), Some(0.0));
        let end = memif.flush(&mut mem, t);
        assert!(end > t);
        assert_eq!(memif.stats().get("flush_writebacks"), Some(1.0));
        // Data is really in memory at the translated addresses.
        assert_eq!(mem.peek_u32(PhysAddr::from_frame(7).offset(12)), 3);
    }

    #[test]
    fn read_after_write_sees_new_data() {
        let (mut mem, mut memif) = setup();
        let (_, t) = memif
            .read(&mut mem, VirtAddr(0), Width::W32, Cycle(0))
            .unwrap();
        let t = memif
            .write(&mut mem, VirtAddr(0), Width::W32, 0xDEAD, t)
            .unwrap();
        let (v, _) = memif.read(&mut mem, VirtAddr(0), Width::W32, t).unwrap();
        assert_eq!(v, 0xDEAD);
    }

    #[test]
    fn faults_are_returned_with_time() {
        let (mut mem, mut memif) = setup();
        let err = memif
            .read(&mut mem, VirtAddr(0x5000), Width::W32, Cycle(0))
            .unwrap_err();
        assert!(matches!(err.fault, VmFault::NotMapped { .. }));
        assert!(err.done > Cycle(0));
        assert_eq!(memif.stats().get("faults"), Some(1.0));
    }

    #[test]
    fn page_crossing_access_translates_both_pages() {
        let (mut mem, mut memif) = setup();
        mem.load(PhysAddr::from_frame(7).offset(4092), &[1, 2, 3, 4]);
        mem.load(PhysAddr::from_frame(8), &[5, 6, 7, 8]);
        let (v, _) = memif
            .read(&mut mem, VirtAddr(4092), Width::W64, Cycle(0))
            .unwrap();
        assert_eq!(v.to_le_bytes(), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn flush_without_writes_is_free() {
        let (mut mem, mut memif) = setup();
        assert_eq!(memif.flush(&mut mem, Cycle(5)), Cycle(5));
    }

    #[test]
    fn physical_mode_skips_translation() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut memif = Memif::new(
            MemifConfig {
                mode: MemifMode::Physical,
                ..MemifConfig::default()
            },
            MasterId(3),
        );
        // No context bound: physical mode must not need one.
        let t = memif
            .write(&mut mem, VirtAddr(0x2000), Width::W32, 77, Cycle(0))
            .unwrap();
        let (v, _) = memif
            .read(&mut mem, VirtAddr(0x2000), Width::W32, t)
            .unwrap();
        assert_eq!(v, 77);
        assert_eq!(mem.peek_u32(PhysAddr(0x2000)), 77);
        assert_eq!(memif.stats().get("mmu.translations"), Some(0.0));
    }

    #[test]
    fn nb_miss_frees_the_interface_before_the_fill_lands() {
        let (mut mem, mut memif) = setup();
        let acc = memif
            .read_nb(&mut mem, VirtAddr(0), Width::W32, Cycle(0))
            .unwrap();
        assert!(
            acc.next < acc.done,
            "a miss must release the interface at the handshake ({} < {})",
            acc.next,
            acc.done
        );
        assert_eq!(acc.fill, Some(acc.done));
        assert_eq!(memif.outstanding_fills(), 1);
        // An independent same-page access issues while the fill is
        // outstanding (a cross-page access would pay a page walk first).
        let acc2 = memif
            .read_nb(&mut mem, VirtAddr(512), Width::W32, acc.next)
            .unwrap();
        assert!(
            acc2.next < acc.done,
            "hit-under-miss: second access overlaps"
        );
        assert_eq!(memif.stats().get("hit_under_miss"), Some(1.0));
        assert!(memif.stats().get("miss_overlap_cycles").unwrap() >= 0.0);
    }

    #[test]
    fn nb_secondary_hit_merges_onto_the_inflight_fill() {
        let (mut mem, mut memif) = setup();
        let acc = memif
            .read_nb(&mut mem, VirtAddr(0), Width::W32, Cycle(0))
            .unwrap();
        // Same line, one cycle later: a cache hit, but the data is only in
        // hand when the fill lands.
        let sec = memif
            .read_nb(&mut mem, VirtAddr(8), Width::W32, acc.next)
            .unwrap();
        assert_eq!(sec.done, acc.done, "secondary rides the same fill");
        assert!(sec.next < sec.done, "interface itself is free");
        assert_eq!(memif.outstanding_fills(), 1, "no second fill issued");
    }

    #[test]
    fn nb_depth_throttles_outstanding_misses() {
        let (mut mem, mut memif) = setup();
        let mut blocking = Memif::new(
            MemifConfig {
                miss_depth: 1,
                ..MemifConfig::default()
            },
            MasterId(4),
        );
        blocking.set_context(Asid(1), PhysAddr::from_frame(5));
        // Two different-line misses back to back: depth 1 stalls the second
        // until the first fill completes; depth 4 does not.
        let a = memif
            .read_nb(&mut mem, VirtAddr(0), Width::W32, Cycle(0))
            .unwrap();
        let b = memif
            .read_nb(&mut mem, VirtAddr(128), Width::W32, a.next)
            .unwrap();
        assert_eq!(memif.stats().get("mshr_stall_cycles"), Some(0.0));
        assert!(b.next < a.done, "depth 4 overlaps the two fills");
        let (mut mem2, _) = setup();
        let a1 = blocking
            .read_nb(&mut mem2, VirtAddr(0), Width::W32, Cycle(0))
            .unwrap();
        let b1 = blocking
            .read_nb(&mut mem2, VirtAddr(128), Width::W32, a1.next)
            .unwrap();
        assert!(blocking.stats().get("mshr_stall_cycles").unwrap() > 0.0);
        assert!(
            b1.next >= a1.done,
            "depth 1 issues the second fill only after the first lands"
        );
    }

    #[test]
    fn nb_consumed_blocking_matches_the_blocking_api() {
        // Degenerate use — wait for `done` before the next access — must be
        // cycle-identical to the pre-existing blocking wrappers.
        let (mut mem_a, mut memif_a) = setup();
        let (mut mem_b, mut memif_b) = setup();
        let mut ta = Cycle(0);
        let mut tb = Cycle(0);
        for i in 0..64u64 {
            let va = VirtAddr((i * 44) % 8000);
            let (_, done) = memif_a.read(&mut mem_a, va, Width::W32, ta).unwrap();
            ta = done;
            let acc = memif_b.read_nb(&mut mem_b, va, Width::W32, tb).unwrap();
            tb = acc.done;
            assert_eq!(ta, tb, "access {i} diverged");
        }
    }

    #[test]
    fn drain_outstanding_waits_for_the_last_fill() {
        let (mut mem, mut memif) = setup();
        let acc = memif
            .read_nb(&mut mem, VirtAddr(0), Width::W32, Cycle(0))
            .unwrap();
        let end = memif.drain_outstanding(&mut mem, acc.next);
        assert_eq!(end, acc.done);
        assert_eq!(memif.outstanding_fills(), 0);
        // The fill's registered waiter drained with it: no phantom wakeup.
        assert_eq!(mem.fabric().next_wake(MasterId(3)), None);
        assert_eq!(
            memif.drain_outstanding(&mut mem, end),
            end,
            "idempotent when empty"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        Memif::new(
            MemifConfig {
                line_bytes: 48,
                ..MemifConfig::default()
            },
            MasterId(0),
        );
    }
}

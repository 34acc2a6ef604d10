//! The OS façade: address spaces, frames, sync, CPUs, fault service.

use svmsyn_mem::{MemorySystem, PhysAddr, VirtAddr, PAGE_SIZE};
use svmsyn_sim::{Cycle, StatSet};
use svmsyn_vm::tlb::Asid;

use crate::addrspace::{read_leaf, AddressSpace, OsError, Sigsegv};
use crate::costs::OsCosts;
use crate::frame::{FrameAllocator, FrameError};
use crate::reclaim::{Resident, ResidentSet};
use crate::sched::CpuPool;
use crate::swap::SwapDevice;
use crate::sync::SyncTable;

/// When anonymous VMAs get their physical frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicy {
    /// Demand paging: pages are faulted in on first touch.
    #[default]
    Lazy,
    /// Every `mmap` is populated up front (as if `populate` were always
    /// set) — fewer runtime faults, more pressure at setup.
    Eager,
}

/// OS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsConfig {
    /// CPU cores available to software threads and delegates.
    pub cores: usize,
    /// The cost model.
    pub costs: OsCosts,
    /// Low physical frames reserved (boot firmware, kernel image).
    pub reserved_frames: u64,
    /// Cap on the frames managed by the allocator (`None` = all of DRAM
    /// beyond the reservation). The memory-pressure knob: working sets
    /// beyond the budget survive via reclaim + swap.
    pub frame_budget: Option<u64>,
    /// Eager vs. lazy anonymous allocation.
    pub alloc_policy: AllocPolicy,
}

impl Default for OsConfig {
    /// Two cores (Zynq-7000 shape), default costs, 16 reserved frames,
    /// unconstrained frame budget, lazy allocation.
    fn default() -> Self {
        OsConfig {
            cores: 2,
            costs: OsCosts::default(),
            reserved_frames: 16,
            frame_budget: None,
            alloc_policy: AllocPolicy::Lazy,
        }
    }
}

/// The simulated operating system.
///
/// # Example
///
/// ```
/// use svmsyn_mem::{MemConfig, MemorySystem};
/// use svmsyn_os::{Os, OsConfig};
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let mut os = Os::new(&OsConfig::default(), &mem);
/// let asid = os.create_space(&mut mem).unwrap();
/// let va = os.mmap(asid, 8192, true, false, &mut mem).unwrap();
/// assert!(va.0 > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Os {
    /// The cost model (public: the simulation loop charges from it).
    pub costs: OsCosts,
    /// Physical frame allocator.
    pub frames: FrameAllocator,
    /// Synchronization objects.
    pub sync: SyncTable,
    /// CPU cores.
    pub cpus: CpuPool,
    /// The swap device holding reclaimed page contents.
    pub swap: SwapDevice,
    spaces: Vec<AddressSpace>,
    residents: ResidentSet,
    alloc_policy: AllocPolicy,
    pending_shootdowns: Vec<(Asid, VirtAddr)>,
    hw_faults: u64,
    sw_faults: u64,
    major_faults: u64,
    reclaims: u64,
    clean_evictions: u64,
    segv: u64,
}

/// How a serviced fault was resolved (drives the cost model).
enum FaultKind {
    /// Fresh zeroed page mapped (minor fault).
    Fresh,
    /// Already present (stale TLB); no page work.
    Present,
    /// Swapped page read back from the device (major fault).
    Major,
}

impl Os {
    /// Boots the OS over the given memory system.
    pub fn new(cfg: &OsConfig, mem: &MemorySystem) -> Os {
        let total_frames = mem.size() / PAGE_SIZE;
        let pool = total_frames - cfg.reserved_frames;
        let pool = cfg.frame_budget.map_or(pool, |b| b.min(pool)).max(1);
        Os {
            costs: cfg.costs,
            frames: FrameAllocator::new(cfg.reserved_frames, pool),
            sync: SyncTable::new(),
            cpus: CpuPool::new(cfg.cores, cfg.costs.context_switch),
            swap: SwapDevice::new(),
            spaces: Vec::new(),
            residents: ResidentSet::new(),
            alloc_policy: cfg.alloc_policy,
            pending_shootdowns: Vec::new(),
            hw_faults: 0,
            sw_faults: 0,
            major_faults: 0,
            reclaims: 0,
            clean_evictions: 0,
            segv: 0,
        }
    }

    /// Creates a process address space.
    ///
    /// # Errors
    ///
    /// Returns [`OsError`] on frame exhaustion.
    pub fn create_space(&mut self, mem: &mut MemorySystem) -> Result<Asid, OsError> {
        let asid = Asid(self.spaces.len() as u16 + 1);
        let space = AddressSpace::new(asid, &mut self.frames, mem)?;
        self.spaces.push(space);
        Ok(asid)
    }

    /// The address space for `asid`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown ASID.
    pub fn space(&self, asid: Asid) -> &AddressSpace {
        &self.spaces[(asid.0 - 1) as usize]
    }

    /// `mmap` into the given space. Population (explicit `populate`, or
    /// every call under [`AllocPolicy::Eager`]) routes through the
    /// reclaim-capable fault path, so over-committed populates evict
    /// rather than fail while any victim page exists.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::mmap`]; additionally [`OsError::Frames`] when
    /// population exhausts physical memory even after reclaim.
    pub fn mmap(
        &mut self,
        asid: Asid,
        len: u64,
        write: bool,
        populate: bool,
        mem: &mut MemorySystem,
    ) -> Result<VirtAddr, OsError> {
        let idx = (asid.0 - 1) as usize;
        let va = self.spaces[idx].mmap(len, write, false, &mut self.frames, mem)?;
        if populate || self.alloc_policy == AllocPolicy::Eager {
            let aligned = VirtAddr(len).page_align_up().0;
            for off in (0..aligned).step_by(PAGE_SIZE as usize) {
                self.fault_page(idx, VirtAddr(va.0 + off), write, mem)
                    .map_err(|_| OsError::Frames(FrameError::OutOfFrames))?;
            }
        }
        Ok(va)
    }

    /// Pinned, physically contiguous `mmap` (DMA buffers for the copy-based
    /// baseline). Returns `(virtual base, physical base)`.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::mmap_pinned`].
    pub fn mmap_pinned(
        &mut self,
        asid: Asid,
        len: u64,
        write: bool,
        mem: &mut MemorySystem,
    ) -> Result<(VirtAddr, PhysAddr), OsError> {
        let idx = (asid.0 - 1) as usize;
        self.spaces[idx].mmap_pinned(len, write, &mut self.frames, mem)
    }

    /// Loads input bytes into a space (functional, pre-timing), faulting
    /// pages in through the reclaim-capable path.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::Frames`] if a page cannot be provided even after
    /// reclaim, or if the range violates its VMA permissions.
    pub fn copy_in(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        data: &[u8],
        mem: &mut MemorySystem,
    ) -> Result<(), OsError> {
        let idx = (asid.0 - 1) as usize;
        let mut off = 0usize;
        while off < data.len() {
            let cur = VirtAddr(va.0 + off as u64);
            self.fault_page(idx, cur, true, mem)
                .map_err(|_| OsError::Frames(FrameError::OutOfFrames))?;
            let (pa, _) = self.spaces[idx].translate(mem, cur).expect("just mapped");
            let n = ((PAGE_SIZE - cur.page_offset()) as usize).min(data.len() - off);
            mem.load(pa, &data[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Reads result bytes out of a space (functional, post-timing). Pages
    /// parked on the swap device at read time are served from their slots
    /// — results survive ending the run under memory pressure.
    pub fn copy_out(&self, asid: Asid, va: VirtAddr, buf: &mut [u8], mem: &MemorySystem) {
        let space = self.space(asid);
        let mut off = 0usize;
        while off < buf.len() {
            let cur = VirtAddr(va.0 + off as u64);
            let n = ((PAGE_SIZE - cur.page_offset()) as usize).min(buf.len() - off);
            let pte = space.leaf_pte(mem, cur);
            if pte.is_swapped() {
                let s = cur.page_offset() as usize;
                buf[off..off + n].copy_from_slice(&self.swap.peek(pte.swap_slot())[s..s + n]);
            } else {
                match space.translate(mem, cur) {
                    Some((pa, _)) => mem.dump(pa, &mut buf[off..off + n]),
                    None => buf[off..off + n].fill(0),
                }
            }
            off += n;
        }
    }

    /// Services a page fault raised at `now`, charging the hardware-thread
    /// path (interrupt → delegate → service) or the software path, plus
    /// swap-device time for major faults and reclaim work under pressure.
    /// Returns the completion time of the service.
    ///
    /// Reclaims performed while servicing queue TLB shootdowns; the
    /// simulation loop drains them into every MMU via
    /// [`drain_shootdowns`](Self::drain_shootdowns).
    ///
    /// # Errors
    ///
    /// Returns [`Sigsegv`] for unservicable faults — including true OOM,
    /// where even reclaim cannot produce a frame.
    pub fn service_fault(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        write: bool,
        from_hw: bool,
        mem: &mut MemorySystem,
        now: Cycle,
    ) -> Result<Cycle, Sigsegv> {
        let idx = (asid.0 - 1) as usize;
        let (kind, reclaim_cost) = match self.fault_page(idx, va, write, mem) {
            Ok(r) => r,
            Err(e) => {
                self.segv += 1;
                return Err(e);
            }
        };
        if from_hw {
            self.hw_faults += 1;
        } else {
            self.sw_faults += 1;
        }
        let base = if from_hw {
            self.costs.hw_fault_total()
        } else {
            self.costs.sw_fault_total()
        };
        let cost = match kind {
            FaultKind::Fresh => base,
            // Already present (stale TLB): no zeroing needed.
            FaultKind::Present => base - self.costs.page_zero,
            // Swap-in replaces zeroing: contents come from the device.
            FaultKind::Major => base - self.costs.page_zero + self.costs.swap_in,
        } + reclaim_cost;
        // The fault handler runs on a CPU core (competing with SW threads).
        let (_, done) = self
            .cpus
            .run_slice(crate::sync::ThreadId(u32::MAX), now, cost);
        Ok(done)
    }

    /// The reclaim-capable page-provision path shared by fault service,
    /// populate, and `copy_in`: classifies the fault (present / fresh /
    /// major), evicts victims as needed, and registers fresh residents.
    /// Returns the resolution kind and the cycles of reclaim + swap-out
    /// work performed on the way.
    fn fault_page(
        &mut self,
        idx: usize,
        va: VirtAddr,
        write: bool,
        mem: &mut MemorySystem,
    ) -> Result<(FaultKind, u64), Sigsegv> {
        let asid = self.spaces[idx].asid();
        // One walk to the leaf slot serves the whole fault: reclaim never
        // frees an L2 table, so the slot outlives the evictions below.
        let leaf = self.spaces[idx].leaf_slot(mem, va);
        let pte = read_leaf(mem, leaf);
        if pte.is_swapped() {
            // Major fault. Check permissions before touching the device so
            // a doomed access does not evict anyone.
            let vma = self.spaces[idx].check_access(va, write)?;
            let reclaim_cost = self.ensure_frames(1, mem).ok_or(Sigsegv { va, write })?;
            let frame = self.frames.alloc().map_err(|_| Sigsegv { va, write })?;
            self.swap.fetch(
                mem,
                pte.swap_slot(),
                PhysAddr::from_frame(frame),
                self.costs.swap_in,
            );
            let leaf = leaf.expect("a swapped PTE sits in an L2 table");
            self.spaces[idx].swap_in_page(mem, leaf, frame, &vma, write);
            self.residents.insert(Resident {
                frame,
                asid,
                va: va.page_base(),
            });
            self.major_faults += 1;
            return Ok((FaultKind::Major, reclaim_cost));
        }
        if pte.is_valid() {
            let r = self.spaces[idx].handle_fault(va, write, &mut self.frames, mem)?;
            debug_assert!(matches!(
                r,
                crate::addrspace::FaultResolution::AlreadyPresent
            ));
            return Ok((FaultKind::Present, 0));
        }
        // Minor fault: permissions first (see above), then make room for
        // the page plus a possible L2 table.
        self.spaces[idx].check_access(va, write)?;
        let needed = if leaf.is_some() { 1 } else { 2 };
        let reclaim_cost = self
            .ensure_frames(needed, mem)
            .ok_or(Sigsegv { va, write })?;
        self.spaces[idx].handle_fault(va, write, &mut self.frames, mem)?;
        let (pa, flags) = self.spaces[idx]
            .translate(mem, va)
            .expect("fault_in just mapped");
        if !flags.pinned {
            self.residents.insert(Resident {
                frame: pa.frame(),
                asid,
                va: va.page_base(),
            });
        }
        Ok((FaultKind::Fresh, reclaim_cost))
    }

    /// Reclaims until at least `needed` frames are free. Returns the total
    /// reclaim cost, or `None` when no victim remains (true OOM).
    fn ensure_frames(&mut self, needed: u64, mem: &mut MemorySystem) -> Option<u64> {
        let mut cost = 0u64;
        while self.frames.available() < needed {
            cost += self.reclaim_one(mem)?;
        }
        Some(cost)
    }

    /// Runs the second-chance clock until one victim is evicted: referenced
    /// pages lose their accessed bit and survive, the first unreferenced
    /// page is written out (dirty) or dropped (clean), its PTE downgraded,
    /// and a TLB shootdown queued. Returns the reclaim cost, or `None`
    /// when nothing is reclaimable.
    fn reclaim_one(&mut self, mem: &mut MemorySystem) -> Option<u64> {
        // Two full passes bound the scan: the first pass at worst clears
        // every accessed bit, the second must then find a victim.
        let mut scans = 2 * self.residents.len() + 1;
        while scans > 0 {
            scans -= 1;
            let r = self.residents.current()?;
            let idx = (r.asid.0 - 1) as usize;
            let space = &mut self.spaces[idx];
            let leaf = space.leaf_slot(mem, r.va);
            let pte = read_leaf(mem, leaf);
            let leaf = match leaf {
                Some(leaf) if pte.is_valid() && pte.pfn() == r.frame && !pte.flags().pinned => leaf,
                _ => {
                    // Stale registry entry (page already evicted or remapped).
                    self.residents.remove_current();
                    continue;
                }
            };
            if pte.flags().accessed {
                space.clear_accessed(mem, leaf, pte);
                self.residents.advance();
                continue;
            }
            let r = self.residents.remove_current();
            // Writable pages may have been stored to through the MEMIF
            // without a trap, so treat them as dirty conservatively.
            let dirty = pte.flags().dirty || pte.flags().writable;
            if dirty {
                let slot = self
                    .swap
                    .store(mem, PhysAddr::from_frame(r.frame), self.costs.swap_out);
                space.swap_out_page(mem, leaf, slot);
            } else {
                space.evict_page(mem, leaf);
                self.clean_evictions += 1;
            }
            self.frames.free(r.frame);
            self.pending_shootdowns.push((r.asid, r.va));
            self.reclaims += 1;
            return Some(self.costs.reclaim_total(dirty));
        }
        None
    }

    /// Drains the queued TLB shootdowns (one per reclaimed page), oldest
    /// first. The simulation loop broadcasts each to every MMU and CPU TLB.
    /// The drain is in place: the queue keeps its capacity, so the next
    /// reclaim's push does not allocate.
    pub fn drain_shootdowns(&mut self) -> std::vec::Drain<'_, (Asid, VirtAddr)> {
        self.pending_shootdowns.drain(..)
    }

    /// Queued, not-yet-broadcast shootdowns (peeked by the software CPU
    /// model mid-slice to keep its own TLB coherent).
    pub fn pending_shootdowns(&self) -> &[(Asid, VirtAddr)] {
        &self.pending_shootdowns
    }

    /// Page faults serviced for hardware threads.
    pub fn hw_faults(&self) -> u64 {
        self.hw_faults
    }

    /// Page faults serviced for software threads.
    pub fn sw_faults(&self) -> u64 {
        self.sw_faults
    }

    /// Major faults (swap-ins) serviced so far.
    pub fn major_faults(&self) -> u64 {
        self.major_faults
    }

    /// Pages reclaimed so far (`swap_outs + clean_evictions`).
    pub fn reclaims(&self) -> u64 {
        self.reclaims
    }

    /// Reclaimed pages dropped without a swap-out (clean).
    pub fn clean_evictions(&self) -> u64 {
        self.clean_evictions
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("hw_faults", self.hw_faults as f64);
        s.put("sw_faults", self.sw_faults as f64);
        s.put("major_faults", self.major_faults as f64);
        s.put("reclaims", self.reclaims as f64);
        s.put("clean_evictions", self.clean_evictions as f64);
        s.put("sigsegv", self.segv as f64);
        s.put("frames_allocated", self.frames.allocated() as f64);
        s.put("frames_high_water", self.frames.high_water() as f64);
        s.put("sync_ops", self.sync.operations() as f64);
        s.put("sync_contended", self.sync.contended() as f64);
        s.absorb("cpus", self.cpus.stats());
        s.absorb("swap", self.swap.stats());
        s
    }

    // ------------------------------------------------------------------
    // Checkpoint serialization.
    // ------------------------------------------------------------------

    /// Serializes the OS's full runtime state: allocator, sync objects,
    /// CPU calendars, swap contents, address spaces, resident registry,
    /// queued shootdowns and counters. The cost model and policies are
    /// config-side and re-read from the design at restore — which is what
    /// lets a restored run continue under adjusted pressure parameters.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        self.frames.save(w);
        self.sync.save_state(w);
        self.cpus.save_state(w);
        self.swap.save_state(w);
        w.put_usize(self.spaces.len());
        for s in &self.spaces {
            s.save_state(w);
        }
        self.residents.save(w);
        w.put_usize(self.pending_shootdowns.len());
        for &(asid, va) in &self.pending_shootdowns {
            asid.save(w);
            w.put_u64(va.0);
        }
        w.put_u64(self.hw_faults);
        w.put_u64(self.sw_faults);
        w.put_u64(self.major_faults);
        w.put_u64(self.reclaims);
        w.put_u64(self.clean_evictions);
        w.put_u64(self.segv);
    }

    /// Rebuilds an OS captured by [`save_state`](Self::save_state) under
    /// the design's `cfg`. The memory image (page tables, page contents)
    /// must already have been restored into `mem`'s store.
    pub fn restore_state(
        cfg: &OsConfig,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Os, svmsyn_snap::SnapError> {
        use svmsyn_snap::Snap;
        let mut os = Os {
            costs: cfg.costs,
            frames: FrameAllocator::load(r)?,
            sync: SyncTable::restore_state(r)?,
            cpus: CpuPool::restore_state(cfg.cores, cfg.costs.context_switch, r)?,
            swap: SwapDevice::restore_state(r)?,
            spaces: Vec::new(),
            residents: ResidentSet::new(),
            alloc_policy: cfg.alloc_policy,
            pending_shootdowns: Vec::new(),
            hw_faults: 0,
            sw_faults: 0,
            major_faults: 0,
            reclaims: 0,
            clean_evictions: 0,
            segv: 0,
        };
        for _ in 0..r.take_len()? {
            os.spaces.push(AddressSpace::restore_state(r)?);
        }
        os.residents = ResidentSet::load(r)?;
        for _ in 0..r.take_len()? {
            let asid = Asid::load(r)?;
            os.pending_shootdowns.push((asid, VirtAddr(r.take_u64()?)));
        }
        os.hw_faults = r.take_u64()?;
        os.sw_faults = r.take_u64()?;
        os.major_faults = r.take_u64()?;
        os.reclaims = r.take_u64()?;
        os.clean_evictions = r.take_u64()?;
        os.segv = r.take_u64()?;
        Ok(os)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmsyn_mem::MemConfig;

    fn boot() -> (MemorySystem, Os) {
        let mem = MemorySystem::new(MemConfig {
            size_bytes: 64 << 20,
            ..MemConfig::default()
        });
        let os = Os::new(&OsConfig::default(), &mem);
        (mem, os)
    }

    #[test]
    fn spaces_get_distinct_asids_and_roots() {
        let (mut mem, mut os) = boot();
        let a = os.create_space(&mut mem).unwrap();
        let b = os.create_space(&mut mem).unwrap();
        assert_ne!(a, b);
        assert_ne!(os.space(a).root(), os.space(b).root());
    }

    #[test]
    fn fault_service_charges_hw_more_than_sw() {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let va = os.mmap(asid, 2 * PAGE_SIZE, true, false, &mut mem).unwrap();
        let hw_done = os
            .service_fault(asid, va, true, true, &mut mem, Cycle(0))
            .unwrap();
        let sw_done = os
            .service_fault(
                asid,
                VirtAddr(va.0 + PAGE_SIZE),
                true,
                false,
                &mut mem,
                hw_done,
            )
            .unwrap();
        assert!(hw_done.0 >= os.costs.hw_fault_total());
        assert!((sw_done - hw_done).0 < hw_done.0, "sw path is cheaper");
        assert_eq!(os.hw_faults(), 1);
        assert_eq!(os.sw_faults(), 1);
    }

    #[test]
    fn refault_on_present_page_skips_zeroing() {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let va = os.mmap(asid, PAGE_SIZE, true, false, &mut mem).unwrap();
        let d1 = os
            .service_fault(asid, va, true, true, &mut mem, Cycle(0))
            .unwrap();
        let d2 = os
            .service_fault(asid, va, true, true, &mut mem, d1)
            .unwrap();
        assert!((d2 - d1).0 < (d1 - Cycle(0)).0);
    }

    #[test]
    fn segv_reported_and_counted() {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let err = os
            .service_fault(asid, VirtAddr(0xBBBB_0000), false, true, &mut mem, Cycle(0))
            .unwrap_err();
        assert_eq!(err.va, VirtAddr(0xBBBB_0000));
        assert_eq!(os.stats().get("sigsegv"), Some(1.0));
    }

    #[test]
    fn copy_in_out_through_os() {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let va = os.mmap(asid, PAGE_SIZE, true, false, &mut mem).unwrap();
        os.copy_in(asid, va, b"payload", &mut mem).unwrap();
        let mut buf = [0u8; 7];
        os.copy_out(asid, va, &mut buf, &mem);
        assert_eq!(&buf, b"payload");
    }

    /// Boot with room for exactly `budget` frames beyond the reservation.
    fn boot_pressured(budget: u64) -> (MemorySystem, Os) {
        let mem = MemorySystem::new(MemConfig {
            size_bytes: 64 << 20,
            ..MemConfig::default()
        });
        let os = Os::new(
            &OsConfig {
                frame_budget: Some(budget),
                ..OsConfig::default()
            },
            &mem,
        );
        (mem, os)
    }

    #[test]
    fn overcommit_survives_via_reclaim_and_swap_preserves_contents() {
        // Budget: 1 root + 1 L2 + 3 data frames. Touch 8 data pages with
        // distinct contents, then read them all back.
        let (mut mem, mut os) = boot_pressured(5);
        let asid = os.create_space(&mut mem).unwrap();
        let va = os.mmap(asid, 8 * PAGE_SIZE, true, false, &mut mem).unwrap();
        for p in 0..8u64 {
            let payload = [p as u8 + 1; 16];
            os.copy_in(asid, VirtAddr(va.0 + p * PAGE_SIZE), &payload, &mut mem)
                .unwrap();
        }
        assert!(os.reclaims() > 0, "over-commit must evict");
        assert!(os.swap.swap_outs() > 0, "dirty pages go to swap");
        // Faulting the early pages back is a major fault and restores data.
        let majors_before = os.major_faults();
        for p in 0..8u64 {
            let mut back = [0u8; 16];
            let page_va = VirtAddr(va.0 + p * PAGE_SIZE);
            if os.space(asid).translate(&mem, page_va).is_none() {
                os.service_fault(asid, page_va, false, true, &mut mem, Cycle(0))
                    .unwrap();
            }
            os.copy_out(asid, page_va, &mut back, &mem);
            assert_eq!(back, [p as u8 + 1; 16], "page {p} contents survive swap");
        }
        assert!(os.major_faults() > majors_before);
        assert_eq!(
            os.reclaims(),
            os.swap.swap_outs() + os.clean_evictions(),
            "every reclaim is a swap-out or a clean eviction"
        );
        assert!(
            !os.pending_shootdowns().is_empty(),
            "reclaims queue shootdowns"
        );
        let n = os.pending_shootdowns().len();
        assert_eq!(os.drain_shootdowns().len(), n);
        assert!(os.pending_shootdowns().is_empty());
    }

    #[test]
    fn clean_pages_evict_without_swap() {
        // Read-only pages are always zero, so reclaim drops them for free.
        let (mut mem, mut os) = boot_pressured(4); // root + L2 + 2 data
        let asid = os.create_space(&mut mem).unwrap();
        let va = os
            .mmap(asid, 6 * PAGE_SIZE, false, false, &mut mem)
            .unwrap();
        for p in 0..6u64 {
            os.service_fault(
                asid,
                VirtAddr(va.0 + p * PAGE_SIZE),
                false,
                false,
                &mut mem,
                Cycle(0),
            )
            .unwrap();
        }
        assert!(os.clean_evictions() > 0);
        assert_eq!(os.swap.swap_outs(), 0, "read-only pages never swap out");
        assert_eq!(os.reclaims(), os.clean_evictions());
    }

    #[test]
    fn major_fault_costs_more_than_minor() {
        let (mut mem, mut os) = boot_pressured(4); // root + L2 + 2 data
        let asid = os.create_space(&mut mem).unwrap();
        let va = os.mmap(asid, 4 * PAGE_SIZE, true, false, &mut mem).unwrap();
        let minor_done = os
            .service_fault(asid, va, true, true, &mut mem, Cycle(0))
            .unwrap();
        let minor_cost = minor_done.0;
        // Touch the rest to force page 0 out, then fault it back in.
        for p in 1..4u64 {
            os.service_fault(
                asid,
                VirtAddr(va.0 + p * PAGE_SIZE),
                true,
                true,
                &mut mem,
                Cycle(0),
            )
            .unwrap();
        }
        assert!(os.space(asid).leaf_pte(&mem, va).is_swapped());
        let t0 = Cycle(1_000_000);
        let major_done = os
            .service_fault(asid, va, true, true, &mut mem, t0)
            .unwrap();
        assert!(
            (major_done - t0).0 > minor_cost,
            "swap-in latency must show up in the fault cost"
        );
        assert_eq!(os.major_faults(), 1);
        assert!(os.swap.busy_cycles() > 0);
    }

    #[test]
    fn true_oom_still_segfaults() {
        // Budget of 2: root + L2; no data frame and nothing reclaimable.
        let (mut mem, mut os) = boot_pressured(2);
        let asid = os.create_space(&mut mem).unwrap();
        let va = os.mmap(asid, PAGE_SIZE, true, false, &mut mem).unwrap();
        let err = os
            .service_fault(asid, va, true, true, &mut mem, Cycle(0))
            .unwrap_err();
        assert_eq!(err.va, va);
        assert_eq!(os.stats().get("sigsegv"), Some(1.0));
    }

    #[test]
    fn eager_policy_populates_at_mmap() {
        let mem0 = MemorySystem::new(MemConfig {
            size_bytes: 64 << 20,
            ..MemConfig::default()
        });
        let mut mem = mem0;
        let mut os = Os::new(
            &OsConfig {
                alloc_policy: AllocPolicy::Eager,
                ..OsConfig::default()
            },
            &mem,
        );
        let asid = os.create_space(&mut mem).unwrap();
        let va = os.mmap(asid, 3 * PAGE_SIZE, true, false, &mut mem).unwrap();
        for p in 0..3u64 {
            assert!(
                os.space(asid)
                    .translate(&mem, VirtAddr(va.0 + p * PAGE_SIZE))
                    .is_some(),
                "eager policy maps everything up front"
            );
        }
    }

    #[test]
    fn stats_snapshot_has_cpu_substats() {
        let (mut mem, mut os) = boot();
        let _ = os.create_space(&mut mem).unwrap();
        let s = os.stats();
        assert_eq!(s.get("cpus.cores"), Some(2.0));
        assert!(s.get("frames_allocated").unwrap() >= 1.0);
    }
}

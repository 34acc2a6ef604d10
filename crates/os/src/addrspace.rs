//! Address spaces: VMAs, page-table maintenance, demand paging.
//!
//! An [`AddressSpace`] owns a first-level page table in simulated DRAM and a
//! list of VMAs. Pages are mapped by writing real PTEs through the
//! [`svmsyn_vm::pte`] codec — the same bytes the hardware walker reads back
//! over the bus. Anonymous VMAs fault pages in on demand; pinned VMAs are
//! backed by physically contiguous, pre-populated frames (the copy-based
//! baseline's DMA buffers).

use svmsyn_mem::{MemorySystem, PhysAddr, VirtAddr, PAGE_SIZE};
use svmsyn_vm::pte::{DirEntry, Pte, PteFlags};
use svmsyn_vm::tlb::Asid;

use crate::frame::{FrameAllocator, FrameError};

/// Lowest mmap virtual address (leaves the null/text area unmapped).
pub const MMAP_BASE: u64 = 0x1000_0000;
/// Exclusive upper bound of the user virtual space.
pub const USER_TOP: u64 = 0xC000_0000;

/// How a VMA is backed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Demand-paged anonymous memory.
    Anonymous,
    /// Pinned, physically contiguous memory starting at the given base.
    Pinned {
        /// Physical base of the contiguous run.
        base: PhysAddr,
    },
}

/// A virtual memory area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// Page-aligned start address.
    pub start: VirtAddr,
    /// Length in bytes (page-aligned).
    pub len: u64,
    /// Whether stores are allowed.
    pub write: bool,
    /// Backing policy.
    pub backing: Backing,
}

impl Vma {
    /// Whether `va` falls inside this area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va.0 >= self.start.0 && va.0 < self.start.0 + self.len
    }
}

/// Errors from address-space operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// Physical memory exhausted.
    Frames(FrameError),
    /// The mmap region is exhausted.
    OutOfVirtualSpace,
    /// A zero-length mapping was requested.
    BadLength,
}

impl From<FrameError> for OsError {
    fn from(e: FrameError) -> Self {
        OsError::Frames(e)
    }
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::Frames(e) => write!(f, "frame allocation failed: {e}"),
            OsError::OutOfVirtualSpace => write!(f, "mmap region exhausted"),
            OsError::BadLength => write!(f, "zero-length mapping"),
        }
    }
}

impl std::error::Error for OsError {}

/// A fault that cannot be serviced: access outside any VMA or a write to a
/// read-only area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sigsegv {
    /// The faulting address.
    pub va: VirtAddr,
    /// Whether the faulting access was a write.
    pub write: bool,
}

impl std::fmt::Display for Sigsegv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segmentation fault: {} at {}",
            if self.write { "write" } else { "read" },
            self.va
        )
    }
}

impl std::error::Error for Sigsegv {}

/// Outcome of servicing a page fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultResolution {
    /// A fresh zeroed page was mapped (minor fault).
    MappedFresh,
    /// The page was already present (benign race / stale TLB); nothing to do
    /// beyond a TLB refill.
    AlreadyPresent,
}

/// One simulated process address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    asid: Asid,
    root: PhysAddr,
    vmas: Vec<Vma>,
    next_mmap: u64,
    minor_faults: u64,
    mapped_pages: u64,
}

impl AddressSpace {
    /// Creates an empty space: allocates and zeroes the L1 table.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::Frames`] if no frame is available for the root.
    pub fn new(
        asid: Asid,
        frames: &mut FrameAllocator,
        mem: &mut MemorySystem,
    ) -> Result<Self, OsError> {
        let root_frame = frames.alloc()?;
        let root = PhysAddr::from_frame(root_frame);
        mem.zero(root, PAGE_SIZE);
        Ok(AddressSpace {
            asid,
            root,
            vmas: Vec::new(),
            next_mmap: MMAP_BASE,
            minor_faults: 0,
            mapped_pages: 0,
        })
    }

    /// The ASID of this space.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Physical address of the first-level table (what MMUs bind to).
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// The VMAs, in creation order.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Minor faults serviced so far.
    pub fn minor_faults(&self) -> u64 {
        self.minor_faults
    }

    /// Pages currently mapped.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    fn vma_of(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.contains(va))
    }

    /// Reserves a demand-paged anonymous area of at least `len` bytes.
    /// With `populate`, all pages are faulted in immediately.
    ///
    /// # Errors
    ///
    /// Returns [`OsError`] on zero length, virtual-space exhaustion, or (with
    /// `populate`) frame exhaustion.
    pub fn mmap(
        &mut self,
        len: u64,
        write: bool,
        populate: bool,
        frames: &mut FrameAllocator,
        mem: &mut MemorySystem,
    ) -> Result<VirtAddr, OsError> {
        if len == 0 {
            return Err(OsError::BadLength);
        }
        let len = VirtAddr(len).page_align_up().0;
        if self.next_mmap + len + PAGE_SIZE > USER_TOP {
            return Err(OsError::OutOfVirtualSpace);
        }
        let start = VirtAddr(self.next_mmap);
        self.next_mmap += len + PAGE_SIZE; // guard page between areas
        self.vmas.push(Vma {
            start,
            len,
            write,
            backing: Backing::Anonymous,
        });
        if populate {
            for off in (0..len).step_by(PAGE_SIZE as usize) {
                self.fault_in(VirtAddr(start.0 + off), write, frames, mem)
                    .map_err(|_| OsError::OutOfVirtualSpace)
                    .and(Ok(()))?;
            }
        }
        Ok(start)
    }

    /// Reserves a pinned, physically contiguous, pre-populated area and
    /// returns `(virtual base, physical base)` — the classical DMA buffer.
    ///
    /// # Errors
    ///
    /// Returns [`OsError`] on zero length or exhaustion.
    pub fn mmap_pinned(
        &mut self,
        len: u64,
        write: bool,
        frames: &mut FrameAllocator,
        mem: &mut MemorySystem,
    ) -> Result<(VirtAddr, PhysAddr), OsError> {
        if len == 0 {
            return Err(OsError::BadLength);
        }
        let len = VirtAddr(len).page_align_up().0;
        if self.next_mmap + len + PAGE_SIZE > USER_TOP {
            return Err(OsError::OutOfVirtualSpace);
        }
        let base = frames.alloc_contiguous(len / PAGE_SIZE)?;
        let start = VirtAddr(self.next_mmap);
        self.next_mmap += len + PAGE_SIZE;
        self.vmas.push(Vma {
            start,
            len,
            write,
            backing: Backing::Pinned { base },
        });
        for off in (0..len).step_by(PAGE_SIZE as usize) {
            let pfn = (base.0 + off) / PAGE_SIZE;
            self.install_pte(
                VirtAddr(start.0 + off),
                pfn,
                PteFlags {
                    writable: write,
                    user: true,
                    pinned: true,
                    ..PteFlags::default()
                },
                frames,
                mem,
            )?;
            mem.zero(PhysAddr(base.0 + off), PAGE_SIZE);
        }
        Ok((start, base))
    }

    /// Installs a leaf PTE, allocating the L2 table if needed. Functional
    /// memory writes; callers charge time via the OS cost model.
    fn install_pte(
        &mut self,
        va: VirtAddr,
        pfn: u64,
        flags: PteFlags,
        frames: &mut FrameAllocator,
        mem: &mut MemorySystem,
    ) -> Result<(), OsError> {
        let l1_addr = self.root.offset(4 * va.l1_index() as u64);
        let dir = DirEntry::decode(mem.peek_u32(l1_addr));
        let table = if dir.is_valid() {
            PhysAddr::from_frame(dir.table_pfn())
        } else {
            let tf = frames.alloc()?;
            let table = PhysAddr::from_frame(tf);
            mem.zero(table, PAGE_SIZE);
            mem.poke_u32(l1_addr, DirEntry::table(tf).encode());
            table
        };
        mem.poke_u32(
            table.offset(4 * va.l2_index() as u64),
            Pte::leaf(pfn, flags).encode(),
        );
        self.mapped_pages += 1;
        Ok(())
    }

    /// The VMA covering `va` if it permits the access (the check
    /// [`handle_fault`](Self::handle_fault) performs before any page work).
    pub(crate) fn check_access(&self, va: VirtAddr, write: bool) -> Result<Vma, Sigsegv> {
        let vma = *self.vma_of(va).ok_or(Sigsegv { va, write })?;
        if write && !vma.write {
            return Err(Sigsegv { va, write });
        }
        Ok(vma)
    }

    /// Physical address of the leaf PTE for `va` — its *leaf slot* — if an
    /// L2 table covers `va`. The OS reads it once per fault or reclaim step
    /// and hands it to the leaf updates below, which write it without
    /// walking again. L2 tables are never freed, so a leaf slot stays valid
    /// for the life of the space.
    pub(crate) fn leaf_slot(&self, mem: &MemorySystem, va: VirtAddr) -> Option<PhysAddr> {
        let dir = DirEntry::decode(mem.peek_u32(self.root.offset(4 * va.l1_index() as u64)));
        dir.is_valid()
            .then(|| PhysAddr::from_frame(dir.table_pfn()).offset(4 * va.l2_index() as u64))
    }

    /// The decoded leaf PTE for `va` ([`Pte::INVALID`] if no L2 table is
    /// present). Unlike [`translate`](Self::translate) this exposes
    /// not-present states — the fault handler uses it to tell a swapped
    /// page from a never-mapped one.
    pub fn leaf_pte(&self, mem: &MemorySystem, va: VirtAddr) -> Pte {
        read_leaf(mem, self.leaf_slot(mem, va))
    }

    /// Clears the accessed bit of the present leaf `pte` stored at `leaf`
    /// — the clock hand's second-chance pass.
    pub(crate) fn clear_accessed(&self, mem: &mut MemorySystem, leaf: PhysAddr, pte: Pte) {
        debug_assert!(pte.is_valid(), "second chance for a non-present page");
        let flags = PteFlags {
            accessed: false,
            ..pte.flags()
        };
        mem.poke_u32(leaf, Pte::leaf(pte.pfn(), flags).encode());
    }

    /// Downgrades the present page whose PTE sits at `leaf` to the swapped
    /// encoding recording `slot`. The frame itself is released by the
    /// caller.
    pub(crate) fn swap_out_page(&mut self, mem: &mut MemorySystem, leaf: PhysAddr, slot: u64) {
        mem.poke_u32(leaf, Pte::swapped(slot).encode());
        self.mapped_pages -= 1;
    }

    /// Drops the present clean page whose PTE sits at `leaf` back to
    /// not-present (its contents are reproducible by re-zeroing on the next
    /// minor fault).
    pub(crate) fn evict_page(&mut self, mem: &mut MemorySystem, leaf: PhysAddr) {
        mem.poke_u32(leaf, Pte::INVALID.encode());
        self.mapped_pages -= 1;
    }

    /// Re-installs the swapped-in page whose PTE sits at `leaf` in frame
    /// `pfn`, with the owning VMA's permissions (`vma`, as returned by
    /// [`check_access`](Self::check_access)). `write` marks the faulting
    /// access, setting the dirty bit so a later reclaim writes the page
    /// back out.
    pub(crate) fn swap_in_page(
        &mut self,
        mem: &mut MemorySystem,
        leaf: PhysAddr,
        pfn: u64,
        vma: &Vma,
        write: bool,
    ) {
        let flags = PteFlags {
            writable: vma.write,
            user: true,
            accessed: true,
            dirty: write,
            ..PteFlags::default()
        };
        mem.poke_u32(leaf, Pte::leaf(pfn, flags).encode());
        self.mapped_pages += 1;
    }

    /// Functional page-table walk (no timing): the mapping for `va`.
    pub fn translate(&self, mem: &MemorySystem, va: VirtAddr) -> Option<(PhysAddr, PteFlags)> {
        let dir = DirEntry::decode(mem.peek_u32(self.root.offset(4 * va.l1_index() as u64)));
        if !dir.is_valid() {
            return None;
        }
        let pte = Pte::decode(
            mem.peek_u32(PhysAddr::from_frame(dir.table_pfn()).offset(4 * va.l2_index() as u64)),
        );
        if !pte.is_valid() {
            return None;
        }
        Some((
            PhysAddr::from_frame(pte.pfn()).offset(va.page_offset()),
            pte.flags(),
        ))
    }

    fn fault_in(
        &mut self,
        va: VirtAddr,
        write: bool,
        frames: &mut FrameAllocator,
        mem: &mut MemorySystem,
    ) -> Result<FaultResolution, Sigsegv> {
        let vma = self.check_access(va, write)?;
        if self.translate(mem, va).is_some() {
            return Ok(FaultResolution::AlreadyPresent);
        }
        // Swapped pages must be routed through the major-fault path (the
        // swap device lives on `Os`); zeroing over the entry here would
        // silently drop the page's contents and leak its slot.
        debug_assert!(
            !self.leaf_pte(mem, va).is_swapped(),
            "minor-fault path reached a swapped page"
        );
        let frame = match frames.alloc() {
            Ok(f) => f,
            Err(_) => return Err(Sigsegv { va, write }), // OOM-kill, simplified
        };
        let pa = PhysAddr::from_frame(frame);
        mem.zero(pa, PAGE_SIZE);
        self.install_pte(
            va.page_base(),
            frame,
            PteFlags {
                writable: vma.write,
                user: true,
                // Referenced bit: set on fault service (this simulator's
                // walker does not update it in hardware), cleared by the
                // reclaim clock hand — every fresh page gets one pass of
                // second chance. A write fault dirties the page up front.
                accessed: true,
                dirty: write,
                ..PteFlags::default()
            },
            frames,
            mem,
        )
        .map_err(|_| Sigsegv { va, write })?;
        self.minor_faults += 1;
        Ok(FaultResolution::MappedFresh)
    }

    /// Services a page fault at `va`. Timing is charged by the caller via
    /// [`OsCosts`](crate::costs::OsCosts).
    ///
    /// # Errors
    ///
    /// Returns [`Sigsegv`] for accesses outside any VMA, writes to read-only
    /// areas, or frame exhaustion.
    pub fn handle_fault(
        &mut self,
        va: VirtAddr,
        write: bool,
        frames: &mut FrameAllocator,
        mem: &mut MemorySystem,
    ) -> Result<FaultResolution, Sigsegv> {
        self.fault_in(va, write, frames, mem)
    }

    /// Copies `data` into the space at `va`, faulting pages in as needed
    /// (functional: used to load inputs before timing starts).
    ///
    /// # Panics
    ///
    /// Panics if the range is not covered by writable VMAs.
    pub fn copy_in(
        &mut self,
        va: VirtAddr,
        data: &[u8],
        frames: &mut FrameAllocator,
        mem: &mut MemorySystem,
    ) {
        let mut off = 0usize;
        while off < data.len() {
            let cur = VirtAddr(va.0 + off as u64);
            self.fault_in(cur, true, frames, mem)
                .unwrap_or_else(|e| panic!("copy_in failed: {e}"));
            let (pa, _) = self.translate(mem, cur).expect("just mapped");
            let n = ((PAGE_SIZE - cur.page_offset()) as usize).min(data.len() - off);
            mem.load(pa, &data[off..off + n]);
            off += n;
        }
    }

    /// Copies bytes out of the space into `buf` (functional: used by result
    /// checkers). Unmapped pages read as zero.
    pub fn copy_out(&self, va: VirtAddr, buf: &mut [u8], mem: &MemorySystem) {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = VirtAddr(va.0 + off as u64);
            let n = ((PAGE_SIZE - cur.page_offset()) as usize).min(buf.len() - off);
            match self.translate(mem, cur) {
                Some((pa, _)) => mem.dump(pa, &mut buf[off..off + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }
}

/// Decodes the leaf PTE at `leaf`, or [`Pte::INVALID`] when no L2 table
/// covers the address (`leaf` is `None`).
pub(crate) fn read_leaf(mem: &MemorySystem, leaf: Option<PhysAddr>) -> Pte {
    leaf.map_or(Pte::INVALID, |slot| Pte::decode(mem.peek_u32(slot)))
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl svmsyn_snap::Snap for Vma {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_u64(self.start.0);
        w.put_u64(self.len);
        w.put_bool(self.write);
        match self.backing {
            Backing::Anonymous => w.put_u8(0),
            Backing::Pinned { base } => {
                w.put_u8(1);
                w.put_u64(base.0);
            }
        }
    }

    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        let start = VirtAddr(r.take_u64()?);
        let len = r.take_u64()?;
        let write = r.take_bool()?;
        let backing = match r.take_u8()? {
            0 => Backing::Anonymous,
            1 => Backing::Pinned {
                base: PhysAddr(r.take_u64()?),
            },
            _ => return Err(svmsyn_snap::SnapError::Corrupt("vma backing tag")),
        };
        Ok(Vma {
            start,
            len,
            write,
            backing,
        })
    }
}

impl AddressSpace {
    /// Serializes the space's metadata. The page tables themselves live in
    /// simulated DRAM and travel with the memory image, so only the root
    /// pointer is recorded here.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        self.asid.save(w);
        w.put_u64(self.root.0);
        self.vmas.save(w);
        w.put_u64(self.next_mmap);
        w.put_u64(self.minor_faults);
        w.put_u64(self.mapped_pages);
    }

    /// Rebuilds a space captured by [`save_state`](Self::save_state). No
    /// frames are allocated: the root table already exists in the restored
    /// memory image.
    pub fn restore_state(
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::Snap;
        Ok(AddressSpace {
            asid: Asid::load(r)?,
            root: PhysAddr(r.take_u64()?),
            vmas: Vec::load(r)?,
            next_mmap: r.take_u64()?,
            minor_faults: r.take_u64()?,
            mapped_pages: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmsyn_mem::MemConfig;

    fn setup() -> (MemorySystem, FrameAllocator, AddressSpace) {
        let mut mem = MemorySystem::new(MemConfig {
            size_bytes: 64 << 20,
            ..MemConfig::default()
        });
        let mut fa = FrameAllocator::new(16, 4096);
        let asp = AddressSpace::new(Asid(1), &mut fa, &mut mem).unwrap();
        (mem, fa, asp)
    }

    #[test]
    fn mmap_reserves_but_does_not_map() {
        let (mut mem, mut fa, mut asp) = setup();
        let va = asp
            .mmap(3 * PAGE_SIZE, true, false, &mut fa, &mut mem)
            .unwrap();
        assert_eq!(va.0, MMAP_BASE);
        assert!(asp.translate(&mem, va).is_none());
        assert_eq!(asp.mapped_pages(), 0);
    }

    #[test]
    fn fault_in_maps_zeroed_page() {
        let (mut mem, mut fa, mut asp) = setup();
        let va = asp.mmap(PAGE_SIZE, true, false, &mut fa, &mut mem).unwrap();
        let r = asp.handle_fault(va, true, &mut fa, &mut mem).unwrap();
        assert_eq!(r, FaultResolution::MappedFresh);
        let (pa, flags) = asp.translate(&mem, va).unwrap();
        assert!(flags.writable && flags.user);
        assert_eq!(mem.peek_u32(pa), 0);
        assert_eq!(asp.minor_faults(), 1);
        // Second fault on the same page: already present.
        let r2 = asp.handle_fault(va, false, &mut fa, &mut mem).unwrap();
        assert_eq!(r2, FaultResolution::AlreadyPresent);
        assert_eq!(asp.minor_faults(), 1);
    }

    #[test]
    fn populate_maps_everything_up_front() {
        let (mut mem, mut fa, mut asp) = setup();
        let va = asp
            .mmap(4 * PAGE_SIZE, true, true, &mut fa, &mut mem)
            .unwrap();
        for p in 0..4u64 {
            assert!(asp
                .translate(&mem, VirtAddr(va.0 + p * PAGE_SIZE))
                .is_some());
        }
        assert_eq!(asp.mapped_pages(), 4);
    }

    #[test]
    fn sigsegv_outside_vma_and_on_readonly_write() {
        let (mut mem, mut fa, mut asp) = setup();
        let va = asp
            .mmap(PAGE_SIZE, false, false, &mut fa, &mut mem)
            .unwrap();
        let err = asp
            .handle_fault(VirtAddr(0xB000_0000), false, &mut fa, &mut mem)
            .unwrap_err();
        assert!(!err.write);
        let err = asp.handle_fault(va, true, &mut fa, &mut mem).unwrap_err();
        assert!(err.write);
        assert!(err.to_string().contains("write"));
        // Read fault on the read-only VMA is fine.
        assert!(asp.handle_fault(va, false, &mut fa, &mut mem).is_ok());
    }

    #[test]
    fn pinned_mapping_is_contiguous_and_present() {
        let (mut mem, mut fa, mut asp) = setup();
        let (va, pa) = asp
            .mmap_pinned(4 * PAGE_SIZE, true, &mut fa, &mut mem)
            .unwrap();
        for p in 0..4u64 {
            let (got, flags) = asp.translate(&mem, VirtAddr(va.0 + p * PAGE_SIZE)).unwrap();
            assert_eq!(got, PhysAddr(pa.0 + p * PAGE_SIZE), "physically contiguous");
            assert!(flags.pinned);
        }
    }

    #[test]
    fn copy_in_out_roundtrip() {
        let (mut mem, mut fa, mut asp) = setup();
        let va = asp
            .mmap(3 * PAGE_SIZE, true, false, &mut fa, &mut mem)
            .unwrap();
        // Deliberately unaligned, page-crossing range.
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        let target = VirtAddr(va.0 + 100);
        asp.copy_in(target, &data, &mut fa, &mut mem);
        let mut back = vec![0u8; data.len()];
        asp.copy_out(target, &mut back, &mem);
        assert_eq!(back, data);
    }

    #[test]
    fn guard_pages_separate_vmas() {
        let (mut mem, mut fa, mut asp) = setup();
        let a = asp.mmap(PAGE_SIZE, true, false, &mut fa, &mut mem).unwrap();
        let b = asp.mmap(PAGE_SIZE, true, false, &mut fa, &mut mem).unwrap();
        assert!(b.0 >= a.0 + 2 * PAGE_SIZE, "guard page between areas");
        // The guard page itself segfaults.
        assert!(asp
            .handle_fault(VirtAddr(a.0 + PAGE_SIZE), false, &mut fa, &mut mem)
            .is_err());
    }

    #[test]
    fn zero_length_rejected() {
        let (mut mem, mut fa, mut asp) = setup();
        assert_eq!(
            asp.mmap(0, true, false, &mut fa, &mut mem),
            Err(OsError::BadLength)
        );
        assert!(matches!(
            asp.mmap_pinned(0, true, &mut fa, &mut mem),
            Err(OsError::BadLength)
        ));
    }

    #[test]
    fn translations_readable_by_hardware_walker() {
        // The bytes written by install_pte must decode identically through
        // the svmsyn-vm walker (shared codec, shared memory).
        use svmsyn_mem::{FabricPort, MasterId};
        use svmsyn_sim::Cycle;
        use svmsyn_vm::walker::{PageTableWalker, WalkerConfig};
        let (mut mem, mut fa, mut asp) = setup();
        let va = asp.mmap(PAGE_SIZE, true, false, &mut fa, &mut mem).unwrap();
        asp.handle_fault(va, true, &mut fa, &mut mem).unwrap();
        let mut w = PageTableWalker::new(WalkerConfig::default());
        let r = w.walk(
            &mut mem,
            FabricPort::new(MasterId(0)),
            asp.root(),
            asp.asid(),
            va,
            Cycle(0),
        );
        let out = r.outcome.unwrap();
        let (pa, _) = asp.translate(&mem, va).unwrap();
        assert_eq!(PhysAddr::from_frame(out.pte.pfn()), pa.page_base());
    }
}

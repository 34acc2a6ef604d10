//! The byte-accurate sparse backing store.
//!
//! Physical memory contents are real: kernels read and write actual bytes,
//! the page-table walker decodes actual PTEs, and integration tests compare
//! accelerator output bytes against software references. Frames are allocated
//! lazily so a 512 MiB physical space costs only what is touched.

use crate::addr::{PhysAddr, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fibonacci) hasher for frame numbers: frame lookups sit
/// on the simulator's per-access hot path, where SipHash's per-lookup setup
/// dominates the table probe itself. Not DoS-resistant — keys are simulated
/// frame numbers, not attacker input.
#[derive(Debug, Default, Clone)]
pub struct FrameHasher(u64);

impl Hasher for FrameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }
}

type FrameIndex = HashMap<u64, u32, BuildHasherDefault<FrameHasher>>;

/// Slots in the direct-mapped frame-lookup memo (power of two).
const MEMO_SLOTS: usize = 16;
/// Memo slot sentinel: no frame cached.
const MEMO_EMPTY: u64 = u64::MAX;

/// A sparse, byte-accurate physical memory image.
///
/// Frame payloads live in an append-only arena (`pages`) indexed through a
/// frame-number map, with a small direct-mapped memo short-circuiting the
/// map for recently touched frames — the simulator hot loop streams over a
/// handful of frames at a time, so most accesses never reach the map.
///
/// # Example
///
/// ```
/// use svmsyn_mem::{PhysAddr, SparseMemory};
/// let mut m = SparseMemory::new(1 << 20);
/// m.write_u32(PhysAddr(0x100), 0xDEAD_BEEF);
/// assert_eq!(m.read_u32(PhysAddr(0x100)), 0xDEAD_BEEF);
/// ```
#[derive(Debug, Clone)]
pub struct SparseMemory {
    index: FrameIndex,
    pages: Vec<Box<[u8]>>,
    /// `(frame, arena index)` memo, direct-mapped by `frame % MEMO_SLOTS`.
    /// Interior-mutable so reads can refresh it; arena indices are stable
    /// (frames are never removed), so entries never go stale.
    memo: [std::cell::Cell<(u64, u32)>; MEMO_SLOTS],
    size: u64,
    /// Dirty-frame journal for the sharded simulation core: when enabled,
    /// every frame that passes through [`frame_mut`](Self::frame_mut) is
    /// recorded so window barriers can fold only the frames a shard actually
    /// touched. Not part of the snapshot format — it is transient merge
    /// bookkeeping, never simulated state.
    journal: Option<std::collections::BTreeSet<u64>>,
}

impl SparseMemory {
    /// Creates a zero-initialized memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not page-aligned.
    pub fn new(size: u64) -> Self {
        assert!(
            size > 0 && size & PAGE_MASK == 0,
            "size must be page-aligned"
        );
        SparseMemory {
            index: FrameIndex::default(),
            pages: Vec::new(),
            memo: [const { std::cell::Cell::new((MEMO_EMPTY, 0)) }; MEMO_SLOTS],
            size,
            journal: None,
        }
    }

    /// Starts (or clears) dirty-frame journaling. Every subsequent mutation
    /// records its frame number until [`take_journal`](Self::take_journal)
    /// drains the set.
    pub fn enable_journal(&mut self) {
        self.journal = Some(std::collections::BTreeSet::new());
    }

    /// Drains the dirty-frame journal, returning the touched frame numbers in
    /// ascending order. Returns an empty vec when journaling is disabled.
    /// Journaling stays enabled after the drain.
    pub fn take_journal(&mut self) -> Vec<u64> {
        match &mut self.journal {
            Some(j) => std::mem::take(j).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Total addressable bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of frames actually materialized.
    pub fn resident_frames(&self) -> usize {
        self.pages.len()
    }

    fn check(&self, addr: PhysAddr, len: u64) {
        assert!(
            addr.0.checked_add(len).is_some_and(|end| end <= self.size),
            "physical access out of range: {addr} + {len} > {}",
            self.size
        );
    }

    /// Looks up a materialized frame, memo first.
    pub(crate) fn frame(&self, frame: u64) -> Option<&[u8]> {
        let slot = &self.memo[(frame as usize) & (MEMO_SLOTS - 1)];
        let (k, idx) = slot.get();
        if k == frame {
            return Some(&self.pages[idx as usize]);
        }
        let idx = *self.index.get(&frame)?;
        slot.set((frame, idx));
        Some(&self.pages[idx as usize])
    }

    /// Arena index of `frame` for a write: materializes an untouched frame
    /// (zeroed) and records the frame in the dirty journal.
    fn page_index_mut(&mut self, frame: u64) -> usize {
        if let Some(j) = &mut self.journal {
            j.insert(frame);
        }
        let slot = (frame as usize) & (MEMO_SLOTS - 1);
        let (k, idx) = self.memo[slot].get();
        if k == frame {
            return idx as usize;
        }
        let idx = match self.index.get(&frame) {
            Some(&i) => i,
            None => {
                let i = self.pages.len() as u32;
                self.pages
                    .push(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
                self.index.insert(frame, i);
                i
            }
        };
        self.memo[slot].set((frame, idx));
        idx as usize
    }

    pub(crate) fn frame_mut(&mut self, frame: u64) -> &mut [u8] {
        let idx = self.page_index_mut(frame);
        &mut self.pages[idx]
    }

    /// Swaps the page buffer of `frame` with `page`: the frame now holds
    /// `page`'s bytes and `page` receives the frame's old bytes (zeros for
    /// an untouched frame, which is materialized). No bytes are copied.
    /// The frame is journaled like any other frame write, and lookups stay
    /// valid because the frame keeps its arena index.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is beyond the memory size or `page` is not exactly
    /// one page long.
    pub(crate) fn exchange_frame(&mut self, frame: u64, page: &mut Box<[u8]>) {
        assert_eq!(
            page.len(),
            PAGE_SIZE as usize,
            "exchange_frame takes exactly one page"
        );
        self.check(PhysAddr(frame << PAGE_SHIFT), PAGE_SIZE);
        let idx = self.page_index_mut(frame);
        std::mem::swap(&mut self.pages[idx], page);
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size (a simulator bug: all
    /// addresses here are post-translation physical addresses).
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.check(addr, buf.len() as u64);
        // Word-sized single-frame accesses dominate the simulator hot path.
        let in_page = (addr.0 & PAGE_MASK) as usize;
        if buf.len() <= 8 && in_page + buf.len() <= PAGE_SIZE as usize {
            match self.frame(addr.0 >> PAGE_SHIFT) {
                Some(data) => {
                    for (i, b) in buf.iter_mut().enumerate() {
                        *b = data[in_page + i];
                    }
                }
                None => buf.fill(0),
            }
            return;
        }
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr.0 + off as u64;
            let frame = cur >> PAGE_SHIFT;
            let in_page = (cur & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            match self.frame(frame) {
                // Word-sized accesses dominate the simulator hot path; a
                // bounded byte loop compiles to straight-line code instead
                // of a libc memcpy call for a runtime-length slice copy.
                #[allow(clippy::manual_memcpy)]
                Some(data) if n <= 8 => {
                    for i in 0..n {
                        buf[off + i] = data[in_page + i];
                    }
                }
                Some(data) => buf[off..off + n].copy_from_slice(&data[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        self.check(addr, data.len() as u64);
        let in_page = (addr.0 & PAGE_MASK) as usize;
        if data.len() <= 8 && in_page + data.len() <= PAGE_SIZE as usize {
            let dst = self.frame_mut(addr.0 >> PAGE_SHIFT);
            for (i, &b) in data.iter().enumerate() {
                dst[in_page + i] = b;
            }
            return;
        }
        let mut off = 0usize;
        while off < data.len() {
            let cur = addr.0 + off as u64;
            let frame = cur >> PAGE_SHIFT;
            let in_page = (cur & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(data.len() - off);
            let dst = self.frame_mut(frame);
            if n <= 8 {
                // Bounded byte loop: no memcpy call for word-sized writes.
                #[allow(clippy::manual_memcpy)]
                for i in 0..n {
                    dst[in_page + i] = data[off + i];
                }
            } else {
                dst[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            }
            off += n;
        }
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: PhysAddr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: PhysAddr, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: PhysAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Fills `len` bytes starting at `addr` with `byte` (used by the OS to
    /// zero fresh anonymous pages).
    pub fn fill(&mut self, addr: PhysAddr, len: u64, byte: u8) {
        self.check(addr, len);
        let mut off = 0u64;
        while off < len {
            let cur = addr.0 + off;
            let frame = cur >> PAGE_SHIFT;
            let in_page = (cur & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - in_page as u64).min(len - off);
            if byte == 0 && !self.index.contains_key(&frame) {
                // Unmaterialized frames already read as zero.
            } else {
                self.frame_mut(frame)[in_page..in_page + n as usize].fill(byte);
            }
            off += n;
        }
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl SparseMemory {
    /// Serializes the memory image: total size, then every materialized
    /// frame's `(frame number, page bytes)`, **sorted by frame number** —
    /// `HashMap` iteration order is nondeterministic and must never leak
    /// into the byte-stable snapshot format. The lookup memo is a pure
    /// performance cache (it never changes access results) and is not
    /// captured.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_u64(self.size);
        let mut frames: Vec<u64> = self.index.keys().copied().collect();
        frames.sort_unstable();
        w.put_usize(frames.len());
        for f in frames {
            w.put_u64(f);
            w.put_raw(&self.pages[self.index[&f] as usize]);
        }
    }

    /// Rebuilds a memory image captured by [`save_state`](Self::save_state).
    pub fn restore_state(
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::SnapError;
        let size = r.take_u64()?;
        if size == 0 || size & PAGE_MASK != 0 {
            return Err(SnapError::Corrupt("memory size not page-aligned"));
        }
        let mut m = SparseMemory::new(size);
        let n = r.take_len()?;
        for _ in 0..n {
            let frame = r.take_u64()?;
            if frame >= size >> PAGE_SHIFT {
                return Err(SnapError::Corrupt("frame number beyond memory size"));
            }
            let bytes = r.take_raw(PAGE_SIZE as usize)?;
            m.frame_mut(frame).copy_from_slice(bytes);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let m = SparseMemory::new(1 << 16);
        let mut buf = [0xFFu8; 16];
        m.read(PhysAddr(0x123), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.resident_frames(), 0);
        assert_eq!(m.size(), 1 << 16);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = SparseMemory::new(1 << 16);
        let data: Vec<u8> = (0..64).collect();
        m.write(PhysAddr(100), &data);
        let mut back = vec![0u8; 64];
        m.read(PhysAddr(100), &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn cross_page_roundtrip() {
        let mut m = SparseMemory::new(1 << 16);
        let data: Vec<u8> = (0..255).map(|i| i as u8).collect();
        let base = PhysAddr(PAGE_SIZE - 100);
        m.write(base, &data);
        let mut back = vec![0u8; data.len()];
        m.read(base, &mut back);
        assert_eq!(back, data);
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    fn typed_accessors() {
        let mut m = SparseMemory::new(1 << 16);
        m.write_u32(PhysAddr(8), 0x1234_5678);
        assert_eq!(m.read_u32(PhysAddr(8)), 0x1234_5678);
        m.write_u64(PhysAddr(16), 0xA1B2_C3D4_E5F6_0718);
        assert_eq!(m.read_u64(PhysAddr(16)), 0xA1B2_C3D4_E5F6_0718);
        // little-endian layout
        let mut b = [0u8; 4];
        m.read(PhysAddr(8), &mut b);
        assert_eq!(b, [0x78, 0x56, 0x34, 0x12]);
    }

    #[test]
    fn fill_and_zero_fill() {
        let mut m = SparseMemory::new(1 << 16);
        m.fill(PhysAddr(0), 2 * PAGE_SIZE, 0);
        assert_eq!(m.resident_frames(), 0, "zero fill of fresh frames is free");
        m.fill(PhysAddr(PAGE_SIZE - 4), 8, 0xAB);
        let mut buf = [0u8; 8];
        m.read(PhysAddr(PAGE_SIZE - 4), &mut buf);
        assert_eq!(buf, [0xAB; 8]);
        m.fill(PhysAddr(PAGE_SIZE - 4), 8, 0);
        m.read(PhysAddr(PAGE_SIZE - 4), &mut buf);
        assert_eq!(buf, [0; 8]);
    }

    fn page(byte: u8) -> Box<[u8]> {
        vec![byte; PAGE_SIZE as usize].into_boxed_slice()
    }

    #[test]
    fn exchange_frame_swaps_whole_pages() {
        let mut m = SparseMemory::new(1 << 20);
        m.enable_journal();
        // A materialized frame, pulled into the lookup memo by a read.
        m.fill(PhysAddr(3 * PAGE_SIZE), PAGE_SIZE, 0x11);
        assert_eq!(m.read_u32(PhysAddr(3 * PAGE_SIZE + 8)), 0x1111_1111);
        m.take_journal();
        let mut buf = page(0x22);
        m.exchange_frame(3, &mut buf);
        assert_eq!(&buf[..], &page(0x11)[..], "caller gets the old bytes");
        assert_eq!(
            m.read_u32(PhysAddr(3 * PAGE_SIZE + 8)),
            0x2222_2222,
            "a memoized frame reads its new bytes"
        );
        assert_eq!(m.take_journal(), vec![3], "the exchange is journaled");
        // An untouched frame is created; its old bytes are zeros.
        let resident = m.resident_frames();
        let mut buf = page(0x33);
        m.exchange_frame(7, &mut buf);
        assert_eq!(m.resident_frames(), resident + 1);
        assert_eq!(&buf[..], &page(0)[..]);
        let mut back = vec![0u8; PAGE_SIZE as usize];
        m.read(PhysAddr(7 * PAGE_SIZE), &mut back);
        assert_eq!(back, vec![0x33; PAGE_SIZE as usize]);
        assert_eq!(m.take_journal(), vec![7]);
    }

    #[test]
    #[should_panic(expected = "exactly one page")]
    fn exchange_frame_rejects_a_short_buffer() {
        let mut m = SparseMemory::new(1 << 16);
        m.exchange_frame(0, &mut vec![0u8; 8].into_boxed_slice());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let m = SparseMemory::new(1 << 16);
        let mut buf = [0u8; 8];
        m.read(PhysAddr((1 << 16) - 4), &mut buf);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_size_panics() {
        SparseMemory::new(1000);
    }
}

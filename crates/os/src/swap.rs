//! The swap device: a slot-addressed page store backing reclaimed frames.
//!
//! Functionally the device is a map from slot index to the 4 KiB of page
//! contents captured at swap-out; timing is charged by the caller from
//! [`OsCosts`](crate::costs::OsCosts) (`swap_out` / `swap_in`) and recorded
//! here as device busy time. Slots are recycled on swap-in, so the live
//! footprint tracks the number of pages currently parked on the device.
//!
//! Moving a page costs the host one copy per swap-out and none per swap-in.
//! Every slot owns a page buffer for life: a swap-out copies the frame into
//! a recycled slot's buffer (a new slot allocates one), and a swap-in
//! exchanges the slot's buffer with the frame's through
//! [`MemorySystem::exchange_frame`]. A freed slot is left holding the
//! frame's stale bytes, which are never observable: [`peek`](SwapDevice::peek)
//! and [`fetch`](SwapDevice::fetch) accept only live slots, and
//! [`save_state`](SwapDevice::save_state) writes only live slots' bytes. The
//! buffers never outnumber the high-water mark of live slots.

use svmsyn_mem::{MemorySystem, PhysAddr, PAGE_SIZE};
use svmsyn_sim::StatSet;

/// One device slot and the page buffer it keeps across reuse.
#[derive(Debug, Clone)]
struct Slot {
    /// Whether the slot holds a swapped-out page.
    live: bool,
    /// Exactly one page; meaningful only while `live`.
    page: Box<[u8]>,
}

impl Slot {
    fn dead() -> Slot {
        Slot {
            live: false,
            page: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
        }
    }
}

/// A simulated swap device holding evicted page contents.
#[derive(Debug, Clone, Default)]
pub struct SwapDevice {
    slots: Vec<Slot>,
    free: Vec<u64>,
    swap_outs: u64,
    swap_ins: u64,
    busy_cycles: u64,
}

impl SwapDevice {
    /// An empty device.
    pub fn new() -> SwapDevice {
        SwapDevice::default()
    }

    /// Captures the page at `pa` into a free slot (the most recently freed
    /// one, else a new one) and returns the slot index. `cost` is the
    /// device busy time charged for the transfer.
    ///
    /// # Panics
    ///
    /// Panics if more than 2^20 slots are simultaneously live (the swapped
    /// PTE encoding carries a 20-bit slot index).
    pub fn store(&mut self, mem: &MemorySystem, pa: PhysAddr, cost: u64) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot::dead());
                (self.slots.len() - 1) as u64
            }
        };
        assert!(slot < (1 << 20), "swap device exceeded 2^20 live slots");
        let s = &mut self.slots[slot as usize];
        mem.dump(pa, &mut s.page);
        s.live = true;
        self.swap_outs += 1;
        self.busy_cycles += cost;
        slot
    }

    /// Restores slot `slot` into the page at `pa` and recycles the slot.
    /// `cost` is the device busy time charged for the transfer.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live (a swapped PTE referencing a recycled
    /// slot would be an OS bookkeeping bug).
    pub fn fetch(&mut self, mem: &mut MemorySystem, slot: u64, pa: PhysAddr, cost: u64) {
        let s = &mut self.slots[slot as usize];
        assert!(s.live, "swap-in from a slot that is not live");
        mem.exchange_frame(pa, &mut s.page);
        s.live = false;
        self.free.push(slot);
        self.swap_ins += 1;
        self.busy_cycles += cost;
    }

    /// Read-only view of a live slot's page contents — post-run data
    /// extraction without forcing a swap-in.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live.
    pub fn peek(&self, slot: u64) -> &[u8] {
        let s = &self.slots[slot as usize];
        assert!(s.live, "peek of a slot that is not live");
        &s.page
    }

    /// Pages written out so far.
    pub fn swap_outs(&self) -> u64 {
        self.swap_outs
    }

    /// Pages read back so far.
    pub fn swap_ins(&self) -> u64 {
        self.swap_ins
    }

    /// Total device busy time in fabric cycles.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Slots currently holding a page.
    pub fn live_slots(&self) -> u64 {
        (self.slots.len() - self.free.len()) as u64
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("swap_outs", self.swap_outs as f64);
        s.put("swap_ins", self.swap_ins as f64);
        s.put("busy_cycles", self.busy_cycles as f64);
        s.put("live_slots", self.live_slots() as f64);
        s
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl SwapDevice {
    /// Serializes every slot (live page contents or a tombstone), the free
    /// list and the counters. Slot indices are positional, so the encoding
    /// preserves them exactly; a free slot's leftover bytes are not written.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        w.put_usize(self.slots.len());
        for s in &self.slots {
            w.put_bool(s.live);
            if s.live {
                w.put_raw(&s.page);
            }
        }
        self.free.save(w);
        w.put_u64(self.swap_outs);
        w.put_u64(self.swap_ins);
        w.put_u64(self.busy_cycles);
    }

    /// Rebuilds a device captured by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Corrupt`](svmsyn_snap::SnapError::Corrupt) if a
    /// free-list entry is out of range, names a live slot, or repeats —
    /// two swap-outs would then share one slot.
    pub fn restore_state(
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let n = r.take_len()?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(if r.take_bool()? {
                Slot {
                    live: true,
                    page: r.take_raw(PAGE_SIZE as usize)?.into(),
                }
            } else {
                Slot::dead()
            });
        }
        let free: Vec<u64> = Vec::load(r)?;
        let mut listed = vec![false; slots.len()];
        for &f in &free {
            let i = f as usize;
            if i >= slots.len() || slots[i].live || std::mem::replace(&mut listed[i], true) {
                return Err(SnapError::Corrupt("swap free list"));
            }
        }
        Ok(SwapDevice {
            slots,
            free,
            swap_outs: r.take_u64()?,
            swap_ins: r.take_u64()?,
            busy_cycles: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmsyn_mem::MemConfig;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig {
            size_bytes: 1 << 20,
            ..MemConfig::default()
        })
    }

    #[test]
    fn store_fetch_roundtrips_contents() {
        let mut m = mem();
        let mut dev = SwapDevice::new();
        let src = PhysAddr(3 * PAGE_SIZE);
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        m.load(src, &data);
        let slot = dev.store(&m, src, 100);
        // Clobber the frame, then restore elsewhere.
        m.zero(src, PAGE_SIZE);
        let dst = PhysAddr(5 * PAGE_SIZE);
        dev.fetch(&mut m, slot, dst, 150);
        let mut back = vec![0u8; PAGE_SIZE as usize];
        m.dump(dst, &mut back);
        assert_eq!(back, data);
        assert_eq!(dev.swap_outs(), 1);
        assert_eq!(dev.swap_ins(), 1);
        assert_eq!(dev.busy_cycles(), 250);
        assert_eq!(dev.live_slots(), 0);
    }

    #[test]
    fn slots_are_recycled() {
        let mut m = mem();
        let mut dev = SwapDevice::new();
        let pa = PhysAddr(PAGE_SIZE);
        let a = dev.store(&m, pa, 1);
        dev.fetch(&mut m, a, pa, 1);
        let b = dev.store(&m, pa, 1);
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(dev.live_slots(), 1);
    }

    /// A page of `tag`-derived bytes, distinct for every tag.
    fn pattern(tag: u64) -> Vec<u8> {
        (0..PAGE_SIZE)
            .map(|i| ((i * 7 + tag * 13) % 251) as u8 ^ tag as u8)
            .collect()
    }

    fn page_at(m: &MemorySystem, pa: PhysAddr) -> Vec<u8> {
        let mut b = vec![0u8; PAGE_SIZE as usize];
        m.dump(pa, &mut b);
        b
    }

    #[test]
    fn one_slot_survives_many_cycles_into_fresh_and_memoized_frames() {
        let mut m = mem();
        let mut dev = SwapDevice::new();
        let src = PhysAddr(2 * PAGE_SIZE);
        // Frame 40 stays hot in the lookup memo: it is read right before
        // every fetch into it. Frames 100.. are never touched before
        // their fetch.
        let hot = PhysAddr(40 * PAGE_SIZE);
        let mut hot_bytes = pattern(999);
        m.load(hot, &hot_bytes);
        for round in 0..24u64 {
            let data = pattern(round);
            m.load(src, &data);
            let slot = dev.store(&m, src, 1);
            assert_eq!(slot, 0, "the one freed slot is reused every round");
            m.zero(src, PAGE_SIZE);
            let dst = if round % 2 == 0 {
                PhysAddr((100 + round) * PAGE_SIZE)
            } else {
                assert_eq!(page_at(&m, hot), hot_bytes);
                hot_bytes = data.clone();
                hot
            };
            dev.fetch(&mut m, slot, dst, 1);
            assert_eq!(page_at(&m, dst), data, "round {round}");
        }
        assert_eq!(dev.live_slots(), 0);
        assert_eq!(dev.swap_outs(), 24);
        assert_eq!(dev.swap_ins(), 24);
    }

    /// `save_state` bytes of `dev`.
    fn image(dev: &SwapDevice) -> Vec<u8> {
        let mut w = svmsyn_snap::SnapWriter::new();
        dev.save_state(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<SwapDevice, svmsyn_snap::SnapError> {
        SwapDevice::restore_state(&mut svmsyn_snap::SnapReader::new(bytes))
    }

    #[test]
    fn freed_slot_leftovers_never_reach_the_image() {
        // Two devices end with the same live slot 0 (holding `pattern(1)`)
        // and the same free slot 1, but slot 1 held different pages on the
        // way, and its fetch left different frame bytes behind in it.
        let run = |b: u64| {
            let mut m = mem();
            let mut dev = SwapDevice::new();
            let pa = PhysAddr(PAGE_SIZE);
            m.load(pa, &pattern(1));
            dev.store(&m, pa, 5);
            m.load(pa, &pattern(b));
            let s = dev.store(&m, pa, 5);
            m.load(PhysAddr(9 * PAGE_SIZE), &pattern(b + 50));
            dev.fetch(&mut m, s, PhysAddr(9 * PAGE_SIZE), 7);
            (m, dev)
        };
        let (mut ma, a) = run(2);
        let (mut mb, b) = run(3);
        let bytes = image(&a);
        assert_eq!(bytes, image(&b), "identical live state, identical image");
        // Restored devices continue exactly like the originals.
        let continue_on = |m: &mut MemorySystem, mut dev: SwapDevice| {
            let pa = PhysAddr(3 * PAGE_SIZE);
            m.load(pa, &pattern(77));
            let s = dev.store(m, pa, 1);
            dev.fetch(m, 0, PhysAddr(4 * PAGE_SIZE), 1);
            dev.fetch(m, s, PhysAddr(5 * PAGE_SIZE), 1);
            assert_eq!(page_at(m, PhysAddr(4 * PAGE_SIZE)), pattern(1));
            assert_eq!(page_at(m, PhysAddr(5 * PAGE_SIZE)), pattern(77));
            image(&dev)
        };
        let live = continue_on(&mut ma, a);
        let restored = continue_on(&mut mb, restore(&bytes).unwrap());
        assert_eq!(live, restored);
    }

    #[test]
    fn restore_rejects_a_free_list_naming_a_slot_twice() {
        // Two dead slots, with slot 1 listed twice: after such a restore
        // two swap-outs would share slot 1.
        let mut w = svmsyn_snap::SnapWriter::new();
        w.put_usize(2);
        w.put_bool(false);
        w.put_bool(false);
        svmsyn_snap::Snap::save(&vec![1u64, 1], &mut w);
        w.put_u64(2);
        w.put_u64(2);
        w.put_u64(0);
        let bytes = w.into_bytes();
        assert_eq!(
            restore(&bytes).unwrap_err(),
            svmsyn_snap::SnapError::Corrupt("swap free list")
        );
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn peek_of_a_freed_slot_panics() {
        let mut m = mem();
        let mut dev = SwapDevice::new();
        let s = dev.store(&m, PhysAddr(PAGE_SIZE), 1);
        dev.fetch(&mut m, s, PhysAddr(PAGE_SIZE), 1);
        dev.peek(s);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_fetch_panics() {
        let mut m = mem();
        let mut dev = SwapDevice::new();
        let pa = PhysAddr(PAGE_SIZE);
        let s = dev.store(&m, pa, 1);
        dev.fetch(&mut m, s, pa, 1);
        dev.fetch(&mut m, s, pa, 1);
    }
}

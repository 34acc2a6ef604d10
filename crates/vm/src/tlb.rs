//! The parametric translation lookaside buffer.
//!
//! The TLB geometry (entry count, associativity, replacement policy) is the
//! central sizing knob of the VM infrastructure: Table 1 reports its fabric
//! cost and Figure 5 its performance effect. Entries are tagged with an ASID
//! so context switches do not require a full flush.
//!
//! Storage is a single contiguous entry array (`sets * ways`, set-major) with
//! precomputed set strides — one cache-friendly slice scan per lookup instead
//! of the old nested-`Vec` double indirection — and occupancy is a live
//! counter maintained on insert/evict/flush rather than a full rescan.

use svmsyn_sim::{StatSet, Xoshiro256ss};

use crate::pte::PteFlags;

/// An address-space identifier (one per simulated process/thread context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asid(pub u16);

impl std::fmt::Display for Asid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "asid{}", self.0)
    }
}

/// Replacement policy for TLB sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum Replacement {
    /// Least-recently-used (true LRU via access stamps).
    #[default]
    Lru,
    /// First-in first-out (insertion stamps).
    Fifo,
    /// Uniform random victim (deterministic internal PRNG).
    Random,
}

/// TLB geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Total entry count. Must be a positive power of two.
    pub entries: usize,
    /// Ways per set; `entries` means fully associative. Must divide `entries`.
    pub ways: usize,
    /// Victim selection policy.
    pub replacement: Replacement,
    /// Lookup latency on a hit, fabric cycles.
    pub hit_cycles: u64,
}

impl Default for TlbConfig {
    /// The platform default (ARCHITECTURE.md, "Platform defaults"):
    /// 16-entry fully-associative LRU, 1-cycle hit.
    fn default() -> Self {
        TlbConfig {
            entries: 16,
            ways: 16,
            replacement: Replacement::Lru,
            hit_cycles: 1,
        }
    }
}

impl TlbConfig {
    /// Convenience constructor for a fully-associative LRU TLB.
    pub fn fully_associative(entries: usize) -> Self {
        TlbConfig {
            entries,
            ways: entries,
            ..TlbConfig::default()
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    valid: bool,
    asid: Asid,
    vpn: u64,
    pfn: u64,
    flags: PteFlags,
    /// LRU: last access stamp. FIFO: insertion stamp.
    stamp: u64,
}

const EMPTY: Entry = Entry {
    valid: false,
    asid: Asid(0),
    vpn: 0,
    pfn: 0,
    flags: PteFlags {
        writable: false,
        user: false,
        accessed: false,
        dirty: false,
        pinned: false,
    },
    stamp: 0,
};

/// A successful TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbHit {
    /// Mapped physical frame number.
    pub pfn: u64,
    /// Cached permission flags.
    pub flags: PteFlags,
}

/// The set-associative, ASID-tagged TLB.
///
/// # Example
///
/// ```
/// use svmsyn_vm::tlb::{Asid, Tlb, TlbConfig};
/// use svmsyn_vm::pte::PteFlags;
/// let mut tlb = Tlb::new(TlbConfig::fully_associative(4));
/// assert!(tlb.lookup(Asid(1), 0x40).is_none());
/// tlb.insert(Asid(1), 0x40, 0x99, PteFlags::default());
/// assert_eq!(tlb.lookup(Asid(1), 0x40).unwrap().pfn, 0x99);
/// assert!(tlb.lookup(Asid(2), 0x40).is_none(), "other ASID misses");
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// All entries, set-major: set `s` occupies `[s * ways, (s+1) * ways)`.
    entries: Box<[Entry]>,
    /// `sets - 1` (sets is a power of two).
    set_mask: usize,
    ways: usize,
    /// Live count of valid entries (replaces full-array rescans).
    valid_count: usize,
    clock: u64,
    rng: Xoshiro256ss,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (non-power-of-two entries, ways that
    /// do not divide entries, or zero sizes).
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(
            cfg.entries > 0 && cfg.entries.is_power_of_two(),
            "entries must be a positive power of two"
        );
        assert!(
            cfg.ways > 0 && cfg.entries.is_multiple_of(cfg.ways),
            "ways must divide entries"
        );
        let sets = cfg.sets();
        Tlb {
            cfg,
            entries: vec![EMPTY; sets * cfg.ways].into_boxed_slice(),
            set_mask: sets - 1,
            ways: cfg.ways,
            valid_count: 0,
            clock: 0,
            rng: Xoshiro256ss::new(0x7E1B_0D5E),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// The geometry this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Start offset of the set holding `vpn` in the flat entry array.
    #[inline]
    fn set_base(&self, vpn: u64) -> usize {
        ((vpn as usize) & self.set_mask) * self.ways
    }

    /// The entries of one set as a mutable slice.
    #[inline]
    fn set_mut(&mut self, vpn: u64) -> &mut [Entry] {
        let base = self.set_base(vpn);
        &mut self.entries[base..base + self.ways]
    }

    /// Looks up `vpn` under `asid`; counts a hit or miss and refreshes LRU
    /// state on hit.
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<TlbHit> {
        self.clock += 1;
        let clock = self.clock;
        let lru = self.cfg.replacement == Replacement::Lru;
        let mut hit = None;
        for e in self.set_mut(vpn) {
            if e.valid && e.asid == asid && e.vpn == vpn {
                // Branch-light LRU refresh: unconditional select instead of
                // a policy branch in the loop body.
                e.stamp = if lru { clock } else { e.stamp };
                hit = Some(TlbHit {
                    pfn: e.pfn,
                    flags: e.flags,
                });
                break;
            }
        }
        match hit {
            Some(h) => {
                self.hits += 1;
                Some(h)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) a translation, evicting per the policy when the
    /// set is full.
    pub fn insert(&mut self, asid: Asid, vpn: u64, pfn: u64, flags: PteFlags) {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let replacement = self.cfg.replacement;

        // Reuse an existing mapping slot or an invalid slot first.
        let set = self.set_mut(vpn);
        let mut victim = None;
        for (i, e) in set.iter().enumerate() {
            if e.valid && e.asid == asid && e.vpn == vpn {
                victim = Some(i);
                break;
            }
            if !e.valid && victim.is_none() {
                victim = Some(i);
            }
        }
        let (i, evicting) = match victim {
            Some(i) => (i, false),
            None => {
                let i = match replacement {
                    Replacement::Lru | Replacement::Fifo => set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(i, _)| i)
                        .unwrap_or(0),
                    Replacement::Random => self.rng.range(ways as u64) as usize,
                };
                (i, true)
            }
        };
        let slot = self.set_base(vpn) + i;
        if !self.entries[slot].valid {
            self.valid_count += 1;
        }
        self.entries[slot] = Entry {
            valid: true,
            asid,
            vpn,
            pfn,
            flags,
            stamp: clock,
        };
        if evicting {
            self.evictions += 1;
        }
    }

    /// Drops a single page translation if present.
    pub fn invalidate_page(&mut self, asid: Asid, vpn: u64) {
        let mut dropped = 0;
        for e in self.set_mut(vpn) {
            if e.valid && e.asid == asid && e.vpn == vpn {
                e.valid = false;
                dropped += 1;
            }
        }
        self.invalidations += dropped;
        self.valid_count -= dropped as usize;
    }

    /// Drops all translations of one address space (TLB shootdown on unmap).
    pub fn invalidate_asid(&mut self, asid: Asid) {
        let mut dropped = 0;
        for e in self.entries.iter_mut() {
            if e.valid && e.asid == asid {
                e.valid = false;
                dropped += 1;
            }
        }
        self.invalidations += dropped;
        self.valid_count -= dropped as usize;
    }

    /// Drops everything.
    pub fn invalidate_all(&mut self) {
        let mut dropped = 0;
        for e in self.entries.iter_mut() {
            if e.valid {
                e.valid = false;
                dropped += 1;
            }
        }
        self.invalidations += dropped;
        debug_assert_eq!(dropped as usize, self.valid_count);
        self.valid_count = 0;
    }

    /// Number of currently valid entries (O(1): a maintained counter).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.valid_count,
            self.entries.iter().filter(|e| e.valid).count(),
            "occupancy counter out of sync"
        );
        self.valid_count
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (zero when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("hits", self.hits as f64);
        s.put("misses", self.misses as f64);
        s.put("hit_rate", self.hit_rate());
        s.put("evictions", self.evictions as f64);
        s.put("invalidations", self.invalidations as f64);
        s.put("occupancy", self.occupancy() as f64);
        s
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl svmsyn_snap::Snap for Asid {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_u16(self.0);
    }

    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        Ok(Asid(r.take_u16()?))
    }
}

impl Tlb {
    /// Serializes every entry (tag, mapping, stamp), the occupancy counter,
    /// the LRU clock, the replacement PRNG and the stat counters. Geometry
    /// is config.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        w.put_usize(self.entries.len());
        for e in self.entries.iter() {
            w.put_bool(e.valid);
            e.asid.save(w);
            w.put_u64(e.vpn);
            w.put_u64(e.pfn);
            e.flags.save(w);
            w.put_u64(e.stamp);
        }
        w.put_u64(self.clock);
        self.rng.save(w);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.evictions);
        w.put_u64(self.invalidations);
    }

    /// Rebuilds a TLB captured by [`save_state`](Self::save_state) under the
    /// design's `cfg`. The occupancy counter is recomputed from the restored
    /// entries rather than trusted from the image.
    pub fn restore_state(
        cfg: TlbConfig,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let mut t = Tlb::new(cfg);
        if r.take_len()? != t.entries.len() {
            return Err(SnapError::Corrupt("tlb entry count"));
        }
        for e in t.entries.iter_mut() {
            e.valid = r.take_bool()?;
            e.asid = Asid::load(r)?;
            e.vpn = r.take_u64()?;
            e.pfn = r.take_u64()?;
            e.flags = crate::pte::PteFlags::load(r)?;
            e.stamp = r.take_u64()?;
        }
        t.valid_count = t.entries.iter().filter(|e| e.valid).count();
        t.clock = r.take_u64()?;
        t.rng = svmsyn_sim::Xoshiro256ss::load(r)?;
        t.hits = r.take_u64()?;
        t.misses = r.take_u64()?;
        t.evictions = r.take_u64()?;
        t.invalidations = r.take_u64()?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags() -> PteFlags {
        PteFlags::default()
    }

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(TlbConfig::fully_associative(4));
        assert!(t.lookup(Asid(0), 5).is_none());
        t.insert(Asid(0), 5, 50, flags());
        let hit = t.lookup(Asid(0), 5).unwrap();
        assert_eq!(hit.pfn, 50);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
        assert!((t.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asid_isolation() {
        let mut t = Tlb::new(TlbConfig::fully_associative(4));
        t.insert(Asid(1), 7, 70, flags());
        assert!(t.lookup(Asid(2), 7).is_none());
        assert!(t.lookup(Asid(1), 7).is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = Tlb::new(TlbConfig::fully_associative(2));
        t.insert(Asid(0), 1, 10, flags());
        t.insert(Asid(0), 2, 20, flags());
        t.lookup(Asid(0), 1); // 1 is now most recent
        t.insert(Asid(0), 3, 30, flags()); // evicts 2
        assert!(t.lookup(Asid(0), 1).is_some());
        assert!(t.lookup(Asid(0), 2).is_none());
        assert!(t.lookup(Asid(0), 3).is_some());
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            ways: 2,
            replacement: Replacement::Fifo,
            hit_cycles: 1,
        });
        t.insert(Asid(0), 1, 10, flags());
        t.insert(Asid(0), 2, 20, flags());
        t.lookup(Asid(0), 1); // recency must NOT save entry 1 under FIFO
        t.insert(Asid(0), 3, 30, flags()); // evicts 1 (oldest insertion)
        assert!(t.lookup(Asid(0), 1).is_none());
        assert!(t.lookup(Asid(0), 2).is_some());
    }

    #[test]
    fn random_replacement_stays_within_set() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
            replacement: Replacement::Random,
            hit_cycles: 1,
        });
        for vpn in 0..64u64 {
            t.insert(Asid(0), vpn, vpn + 100, flags());
        }
        assert_eq!(t.occupancy(), 4);
    }

    #[test]
    fn set_associative_indexing() {
        // 4 entries, 2 ways => 2 sets; vpns 0 and 2 both map to set 0.
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
            replacement: Replacement::Lru,
            hit_cycles: 1,
        });
        t.insert(Asid(0), 0, 1, flags());
        t.insert(Asid(0), 2, 2, flags());
        t.insert(Asid(0), 4, 3, flags()); // set 0 full: evicts vpn 0 (LRU)
        assert!(t.lookup(Asid(0), 0).is_none());
        assert!(t.lookup(Asid(0), 2).is_some());
        assert!(t.lookup(Asid(0), 4).is_some());
        // set 1 untouched
        t.insert(Asid(0), 1, 9, flags());
        assert!(t.lookup(Asid(0), 1).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = Tlb::new(TlbConfig::fully_associative(2));
        t.insert(Asid(0), 1, 10, flags());
        t.insert(
            Asid(0),
            1,
            11,
            PteFlags {
                writable: true,
                ..flags()
            },
        );
        assert_eq!(t.occupancy(), 1);
        let hit = t.lookup(Asid(0), 1).unwrap();
        assert_eq!(hit.pfn, 11);
        assert!(hit.flags.writable);
    }

    #[test]
    fn invalidations() {
        let mut t = Tlb::new(TlbConfig::fully_associative(8));
        for vpn in 0..4u64 {
            t.insert(Asid(1), vpn, vpn, flags());
            t.insert(Asid(2), vpn + 100, vpn, flags());
        }
        t.invalidate_page(Asid(1), 0);
        assert!(t.lookup(Asid(1), 0).is_none());
        assert_eq!(t.occupancy(), 7);
        t.invalidate_asid(Asid(2));
        assert_eq!(t.occupancy(), 3);
        t.invalidate_all();
        assert_eq!(t.occupancy(), 0);
        assert!(t.stats().get("invalidations").unwrap() >= 8.0);
    }

    #[test]
    fn occupancy_counter_survives_eviction_churn() {
        // Mixed insert/evict/invalidate traffic across policies: the live
        // counter must always equal a full rescan (the debug assertion in
        // `occupancy` double-checks this in test builds).
        for replacement in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let mut t = Tlb::new(TlbConfig {
                entries: 8,
                ways: 4,
                replacement,
                hit_cycles: 1,
            });
            for vpn in 0..64u64 {
                t.insert(Asid((vpn % 3) as u16), vpn, vpn, flags());
                if vpn % 5 == 0 {
                    t.invalidate_page(Asid((vpn % 3) as u16), vpn);
                }
                if vpn % 17 == 0 {
                    t.invalidate_asid(Asid(1));
                }
                assert!(t.occupancy() <= 8);
            }
            t.invalidate_all();
            assert_eq!(t.occupancy(), 0);
        }
    }

    // -- Property tests: the live-occupancy counter and the LRU victim
    //    choice, checked against brute-force reference models on arbitrary
    //    insert/evict/flush sequences. --

    use proptest::prelude::*;

    /// Full rescan of the entry array (the thing the live counter replaced).
    fn recount(t: &Tlb) -> usize {
        t.entries.iter().filter(|e| e.valid).count()
    }

    /// A reference LRU set: recency-ordered vector, most recent last.
    struct RefLruSet {
        cap: usize,
        entries: Vec<(Asid, u64, u64)>,
    }

    impl RefLruSet {
        fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<u64> {
            let i = self
                .entries
                .iter()
                .position(|&(a, v, _)| a == asid && v == vpn)?;
            let e = self.entries.remove(i);
            self.entries.push(e);
            Some(e.2)
        }

        fn insert(&mut self, asid: Asid, vpn: u64, pfn: u64) {
            if let Some(i) = self
                .entries
                .iter()
                .position(|&(a, v, _)| a == asid && v == vpn)
            {
                self.entries.remove(i);
            } else if self.entries.len() == self.cap {
                self.entries.remove(0); // evict the least recently touched
            }
            self.entries.push((asid, vpn, pfn));
        }

        fn invalidate(&mut self, asid: Asid, vpn: u64) {
            self.entries.retain(|&(a, v, _)| a != asid || v != vpn);
        }
    }

    proptest! {
        /// After any interleaving of inserts, evictions, page/ASID/full
        /// flushes, and lookups, the O(1) occupancy counter equals a full
        /// rescan of the entry array — for every replacement policy and a
        /// set-associative as well as a fully-associative geometry.
        #[test]
        fn occupancy_counter_matches_recount(
            ops in prop::collection::vec((0u8..6, 0u16..3, 0u64..24), 1..120),
            policy in 0u8..3,
            ways_sel in 0u8..2,
        ) {
            let replacement = [Replacement::Lru, Replacement::Fifo, Replacement::Random]
                [policy as usize];
            let ways = if ways_sel == 0 { 8 } else { 2 };
            let mut t = Tlb::new(TlbConfig { entries: 8, ways, replacement, hit_cycles: 1 });
            for &(op, asid, vpn) in &ops {
                let asid = Asid(asid);
                match op {
                    0..=2 => t.insert(asid, vpn, vpn + 100, PteFlags::default()),
                    3 => t.invalidate_page(asid, vpn),
                    4 => { t.lookup(asid, vpn); }
                    _ => {
                        if vpn % 7 == 0 {
                            t.invalidate_all();
                        } else {
                            t.invalidate_asid(asid);
                        }
                    }
                }
                prop_assert_eq!(t.occupancy(), recount(&t));
                prop_assert!(t.occupancy() <= 8);
            }
        }

        /// Under LRU the real TLB behaves exactly like a recency-ordered
        /// reference model: every lookup agrees (hit/miss and PFN), so the
        /// victim chosen on each overflowing insert must have been the least
        /// recently used entry of its set.
        #[test]
        fn lru_victim_matches_reference_model(
            ops in prop::collection::vec((0u8..3, 0u16..2, 0u64..16), 1..150),
            ways_sel in 0u8..2,
        ) {
            let (entries, ways) = if ways_sel == 0 { (4, 4) } else { (8, 2) };
            let sets = entries / ways;
            let mut t = Tlb::new(TlbConfig {
                entries,
                ways,
                replacement: Replacement::Lru,
                hit_cycles: 1,
            });
            let mut reference: Vec<RefLruSet> = (0..sets)
                .map(|_| RefLruSet { cap: ways, entries: Vec::new() })
                .collect();
            for &(op, asid, vpn) in &ops {
                let asid = Asid(asid);
                let set = &mut reference[(vpn as usize) % sets];
                match op {
                    0..=1 => {
                        t.insert(asid, vpn, vpn + 200, PteFlags::default());
                        set.insert(asid, vpn, vpn + 200);
                    }
                    2 => {
                        let got = t.lookup(asid, vpn).map(|h| h.pfn);
                        let want = set.lookup(asid, vpn);
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        t.invalidate_page(asid, vpn);
                        set.invalidate(asid, vpn);
                    }
                }
            }
            // Final state: same population, entry for entry.
            let total: usize = reference.iter().map(|s| s.entries.len()).sum();
            prop_assert_eq!(t.occupancy(), total);
            for set in &mut reference {
                let entries = set.entries.clone();
                for (asid, vpn, pfn) in entries {
                    let hit = t.lookup(asid, vpn);
                    prop_assert!(hit.is_some());
                    prop_assert_eq!(hit.unwrap().pfn, pfn);
                    set.lookup(asid, vpn); // mirror the recency refresh
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Tlb::new(TlbConfig {
            entries: 6,
            ways: 3,
            replacement: Replacement::Lru,
            hit_cycles: 1,
        });
    }

    #[test]
    fn stats_snapshot() {
        let mut t = Tlb::new(TlbConfig::default());
        t.lookup(Asid(0), 1);
        t.insert(Asid(0), 1, 2, flags());
        t.lookup(Asid(0), 1);
        let s = t.stats();
        assert_eq!(s.get("hits"), Some(1.0));
        assert_eq!(s.get("misses"), Some(1.0));
        assert_eq!(s.get("occupancy"), Some(1.0));
    }
}

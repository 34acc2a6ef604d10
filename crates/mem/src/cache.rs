//! A small set-associative write-back timing cache.
//!
//! Used twice in the stack: as the CPU's L1 data cache (`svmsyn-os`) and as
//! the hardware thread's MEMIF burst cache (`svmsyn-hwt`). It is a *timing*
//! cache: data always moves through the [`MemorySystem`](crate::MemorySystem)
//! functionally, so software and hardware threads stay coherent by
//! construction, and the cache only decides which accesses cost bus
//! transactions.

use svmsyn_sim::StatSet;

use crate::addr::PhysAddr;

/// L1 data-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl Default for CacheConfig {
    /// 32 KiB, 64 B lines, 4-way.
    fn default() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 4,
        }
    }
}

/// Sentinel tag marking an invalid way. Tags are `line >> log2(sets)`, so a
/// real tag of `u64::MAX` would require a ~2^64-byte address space.
const TAG_EMPTY: u64 = u64::MAX;

/// A write-back, write-allocate timing cache.
///
/// Line state lives in contiguous set-major parallel arrays
/// (`set * ways + way`), the same flattening the TLB uses: the hit scan
/// sweeps a dense `u64` tag vector (validity folded into a sentinel tag)
/// instead of chasing per-set `Vec` allocations through 24-byte records,
/// and the set stride is precomputed at construction.
///
/// Before that scan, an access probes a **way hint**: a table of
/// `2 × ways` slots (rounded up to a power of two), indexed by a hash of
/// the line number, each holding the way where that slot's line was last
/// found or filled. The hinted way is checked against the tag array, so a
/// stale or colliding hint only costs the scan it would have skipped; the
/// hint never changes a hit, a miss or a victim, and it is not part of the
/// snapshot. This matters most for the MEMIF burst cache, which is
/// configured fully associative (one set, 64 ways): a resident line is
/// usually found with one probe instead of a 64-way scan.
#[derive(Debug, Clone)]
pub struct L1Cache {
    cfg: CacheConfig,
    /// Set-major tags; `TAG_EMPTY` marks an invalid way.
    tags: Box<[u64]>,
    /// Set-major LRU stamps (`0` for never-touched ways).
    stamps: Box<[u64]>,
    /// Set-major dirty bits.
    dirty: Box<[bool]>,
    /// Number of sets (power of two).
    sets: usize,
    /// Set index mask (`sets - 1`).
    set_mask: u64,
    /// `log2(line_bytes)`: the line index is a shift, not a division.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// Way hints by line hash (see the type docs); `0` until written,
    /// which the tag check treats like any other stale hint.
    hint: Box<[u32]>,
    /// `64 − log2(hint.len())`: the hash keeps the product's top bits.
    hint_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

/// Outcome of a cache access: what bus traffic it implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// In cache: no bus traffic.
    Hit,
    /// Line fill required; optionally a dirty victim writeback first.
    Miss {
        /// Physical base address of the dirty victim to write back, if any.
        writeback: Option<PhysAddr>,
    },
}

impl L1Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let lines = cfg.size_bytes / cfg.line_bytes;
        let sets = (lines / cfg.ways as u64) as usize;
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            sets > 0 && (sets & (sets - 1)) == 0,
            "set count must be a power of two"
        );
        let lines = sets * cfg.ways;
        let hints = (2 * cfg.ways).next_power_of_two();
        L1Cache {
            cfg,
            tags: vec![TAG_EMPTY; lines].into_boxed_slice(),
            stamps: vec![0u64; lines].into_boxed_slice(),
            dirty: vec![false; lines].into_boxed_slice(),
            sets,
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            hint: vec![0u32; hints].into_boxed_slice(),
            hint_shift: 64 - hints.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The way-hint slot of line number `line` (Fibonacci hashing).
    #[inline]
    fn hint_slot(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hint_shift) as usize
    }

    /// Records a hit: LRU stamp, dirty bit and way hint.
    #[inline]
    fn touch(&mut self, slot: usize, hint: usize, way: usize, write: bool) {
        self.stamps[slot] = self.clock;
        self.dirty[slot] |= write;
        self.hint[hint] = way as u32;
    }

    /// Simulates an access; returns the implied bus traffic.
    #[inline]
    pub fn access(&mut self, pa: PhysAddr, write: bool) -> CacheOutcome {
        self.clock += 1;
        let line = pa.0 >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let base = set_idx * self.cfg.ways;
        let hint = self.hint_slot(line);
        // The hinted way first; a stale hint simply mismatches on tag.
        let way = self.hint[hint] as usize;
        if self.tags[base + way] == tag {
            self.hits += 1;
            self.touch(base + way, hint, way, write);
            return CacheOutcome::Hit;
        }
        self.access_slow(base, set_idx, tag, hint, write)
    }

    /// The path past a missed hint: set scan, then fill/eviction.
    fn access_slow(
        &mut self,
        base: usize,
        set_idx: usize,
        tag: u64,
        hint: usize,
        write: bool,
    ) -> CacheOutcome {
        // A dense equality scan over the set's tag vector.
        let tags = &self.tags[base..base + self.cfg.ways];
        if let Some(way) = tags.iter().position(|&t| t == tag) {
            self.hits += 1;
            self.touch(base + way, hint, way, write);
            return CacheOutcome::Hit;
        }
        self.misses += 1;
        // LRU victim; never-touched ways (stamp 0) win ties in way order,
        // matching the original "invalid counts as stamp 0" policy.
        let mut victim = 0usize;
        let mut best = u64::MAX;
        let stamps = &self.stamps[base..base + self.cfg.ways];
        for (w, (&t, &s)) in tags.iter().zip(stamps).enumerate() {
            let key = if t == TAG_EMPTY { 0 } else { s };
            if key < best {
                best = key;
                victim = w;
            }
        }
        let slot = base + victim;
        let writeback = if self.tags[slot] != TAG_EMPTY && self.dirty[slot] {
            self.writebacks += 1;
            let victim_line = self.tags[slot] * self.sets as u64 + set_idx as u64;
            Some(PhysAddr(victim_line * self.cfg.line_bytes))
        } else {
            None
        };
        self.tags[slot] = tag;
        self.stamps[slot] = self.clock;
        self.dirty[slot] = write;
        self.hint[hint] = victim as u32;
        CacheOutcome::Miss { writeback }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.cfg.line_bytes
    }

    /// Hit rate in `[0, 1]`.
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
        s.put("writebacks", self.writebacks as f64);
        s
    }

    /// Returns the line base addresses of all dirty lines and marks them
    /// clean (the final flush at kernel completion). Lines stay resident.
    pub fn drain_dirty(&mut self) -> Vec<PhysAddr> {
        let mut out = Vec::new();
        let sets_n = self.sets as u64;
        let ways = self.cfg.ways;
        for i in 0..self.tags.len() {
            if self.tags[i] != TAG_EMPTY && self.dirty[i] {
                self.dirty[i] = false;
                self.writebacks += 1;
                let set_idx = (i / ways) as u64;
                let victim_line = self.tags[i] * sets_n + set_idx;
                out.push(PhysAddr(victim_line * self.cfg.line_bytes));
            }
        }
        out
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl L1Cache {
    /// Serializes tags, LRU stamps, dirty bits and counters. Geometry is
    /// config; the way hints are a pure probe accelerator (they never
    /// change hit/miss outcomes or victim choice) and are not captured.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        self.tags.save(w);
        self.stamps.save(w);
        self.dirty.save(w);
        w.put_u64(self.clock);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.writebacks);
    }

    /// Rebuilds a cache captured by [`save_state`](Self::save_state) under
    /// the design's `cfg`.
    pub fn restore_state(
        cfg: CacheConfig,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let mut c = L1Cache::new(cfg);
        let lines = c.tags.len();
        c.tags = Box::<[u64]>::load(r)?;
        c.stamps = Box::<[u64]>::load(r)?;
        c.dirty = Box::<[bool]>::load(r)?;
        if c.tags.len() != lines || c.stamps.len() != lines || c.dirty.len() != lines {
            return Err(SnapError::Corrupt("cache line-array length"));
        }
        c.clock = r.take_u64()?;
        c.hits = r.take_u64()?;
        c.misses = r.take_u64()?;
        c.writebacks = r.take_u64()?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = L1Cache::new(CacheConfig::default());
        assert!(matches!(
            c.access(PhysAddr(0x100), false),
            CacheOutcome::Miss { .. }
        ));
        assert_eq!(c.access(PhysAddr(0x104), false), CacheOutcome::Hit);
        assert!(c.hit_rate() > 0.0);
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let cfg = CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 1,
        };
        let mut c = L1Cache::new(cfg);
        c.access(PhysAddr(0), true); // dirty line 0 of set 0
                                     // Same set (4 sets, direct mapped): line at 256 maps to set 0.
        match c.access(PhysAddr(256), false) {
            CacheOutcome::Miss { writeback: Some(v) } => assert_eq!(v, PhysAddr(0)),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn drain_dirty_returns_and_clears() {
        let mut c = L1Cache::new(CacheConfig::default());
        c.access(PhysAddr(0), true);
        c.access(PhysAddr(4096), true);
        c.access(PhysAddr(8192), false);
        let mut dirty = c.drain_dirty();
        dirty.sort();
        assert_eq!(dirty, vec![PhysAddr(0), PhysAddr(4096)]);
        assert!(c.drain_dirty().is_empty(), "drain clears dirty bits");
        // Lines stay resident (clean) after draining.
        assert_eq!(c.access(PhysAddr(0), false), CacheOutcome::Hit);
    }

    /// A plain scan-only LRU cache: each set is a list of resident lines
    /// with their last-use time, searched front to back. It shares no code
    /// with `L1Cache` (no flattened arrays, no way positions, no hints).
    struct RefLru {
        line_bytes: u64,
        ways: usize,
        sets: Vec<Vec<RefLine>>,
        clock: u64,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }

    struct RefLine {
        line: u64,
        last_use: u64,
        dirty: bool,
    }

    impl RefLru {
        fn new(cfg: CacheConfig) -> Self {
            let sets = (cfg.size_bytes / cfg.line_bytes) as usize / cfg.ways;
            RefLru {
                line_bytes: cfg.line_bytes,
                ways: cfg.ways,
                sets: (0..sets).map(|_| Vec::new()).collect(),
                clock: 0,
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn access(&mut self, pa: PhysAddr, write: bool) -> CacheOutcome {
            self.clock += 1;
            let line = pa.0 / self.line_bytes;
            let nsets = self.sets.len() as u64;
            let set = &mut self.sets[(line % nsets) as usize];
            for l in set.iter_mut() {
                if l.line == line {
                    l.last_use = self.clock;
                    l.dirty |= write;
                    self.hits += 1;
                    return CacheOutcome::Hit;
                }
            }
            self.misses += 1;
            let mut writeback = None;
            if set.len() == self.ways {
                let lru = (0..set.len())
                    .min_by_key(|&i| set[i].last_use)
                    .expect("a full set is non-empty");
                let victim = set.remove(lru);
                if victim.dirty {
                    self.writebacks += 1;
                    writeback = Some(PhysAddr(victim.line * self.line_bytes));
                }
            }
            set.push(RefLine {
                line,
                last_use: self.clock,
                dirty: write,
            });
            CacheOutcome::Miss { writeback }
        }
    }

    /// A seeded access stream: four sequential streams, reuse inside a
    /// working set of twice the capacity, and scattered far addresses, so
    /// hits, clean and dirty evictions all occur.
    fn next_access(
        rng: &mut svmsyn_sim::Xoshiro256ss,
        cfg: CacheConfig,
        streams: &mut [u64; 4],
    ) -> (PhysAddr, bool) {
        let write = rng.chance(0.3);
        let addr = match rng.range(10) {
            0..=4 => {
                let s = &mut streams[rng.range(4) as usize];
                *s += 4 * (1 + rng.range(4));
                *s
            }
            5..=7 => rng.range(2 * cfg.size_bytes),
            _ => rng.range(64 << 20),
        };
        (PhysAddr(addr), write)
    }

    fn assert_counters_match(c: &L1Cache, r: &RefLru, ctx: &str) {
        let s = c.stats();
        assert_eq!(s.get("hits"), Some(r.hits as f64), "{ctx}: hits");
        assert_eq!(s.get("misses"), Some(r.misses as f64), "{ctx}: misses");
        assert_eq!(
            s.get("writebacks"),
            Some(r.writebacks as f64),
            "{ctx}: writebacks"
        );
    }

    #[test]
    fn matches_a_scan_only_lru_reference_model() {
        let geometries = [
            // The MEMIF burst cache: 64 lines of 64 B, fully associative.
            CacheConfig {
                size_bytes: 64 * 64,
                line_bytes: 64,
                ways: 64,
            },
            // The CPU L1: 32 KiB, 4-way.
            CacheConfig::default(),
        ];
        const ACCESSES: usize = 20_000;
        for cfg in geometries {
            for seed in 1..=4u64 {
                let mut rng = svmsyn_sim::Xoshiro256ss::new(seed);
                let mut streams = [0, 1 << 20, 2 << 20, 3 << 20];
                let mut cache = L1Cache::new(cfg);
                let mut restored: Option<L1Cache> = None;
                let mut model = RefLru::new(cfg);
                for i in 0..ACCESSES {
                    if i == ACCESSES / 2 {
                        // Round trip through a snapshot mid-stream; both
                        // the original and the restored copy run on.
                        let mut w = svmsyn_snap::SnapWriter::new();
                        cache.save_state(&mut w);
                        let bytes = w.into_bytes();
                        let mut r = svmsyn_snap::SnapReader::new(&bytes);
                        restored = Some(L1Cache::restore_state(cfg, &mut r).unwrap());
                    }
                    let (pa, write) = next_access(&mut rng, cfg, &mut streams);
                    let ctx = format!("ways {} seed {seed} access {i} at {pa:?}", cfg.ways);
                    let want = model.access(pa, write);
                    assert_eq!(cache.access(pa, write), want, "{ctx}");
                    if let Some(c) = restored.as_mut() {
                        assert_eq!(c.access(pa, write), want, "{ctx} (restored)");
                    }
                }
                let ctx = format!("ways {} seed {seed}", cfg.ways);
                assert!(
                    model.hits > 0 && model.writebacks > 0,
                    "{ctx}: stream too tame"
                );
                assert_counters_match(&cache, &model, &ctx);
                assert_counters_match(&restored.unwrap(), &model, &format!("{ctx} (restored)"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        L1Cache::new(CacheConfig {
            size_bytes: 100,
            line_bytes: 48,
            ways: 1,
        });
    }
}

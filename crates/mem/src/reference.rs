//! The retained blocking FCFS bus — the differential oracle for the
//! split-transaction fabric.
//!
//! Before the fabric redesign every master went through
//! `Bus::grant(master, bytes, now) -> (start, done)`: one call-return per
//! transaction, the whole address+data occupancy held on a single FCFS
//! calendar. That model survives here, unchanged, as [`FcfsBus`] so the
//! conformance suite (`tests/fabric_conformance.rs`) can replay
//! proptest-generated multi-master streams against both implementations:
//! with `window = 1, mshrs = 0` the [`SplitFabric`](crate::SplitFabric)
//! must be cycle-identical to this oracle.

use svmsyn_sim::{Cycle, FcfsResource, StatSet};

use crate::fabric::MasterId;

/// Oracle bus parameters (times in fabric cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct BusConfig {
    /// Data bytes transferred per cycle.
    pub width_bytes: u64,
    /// Arbitration + address phase cost per transaction.
    pub arb_cycles: u64,
}

impl Default for BusConfig {
    /// The default channel (8 B/cycle, 4-cycle arbitration), as tabled with
    /// its source in ARCHITECTURE.md, "Platform defaults".
    fn default() -> Self {
        BusConfig {
            width_bytes: 8,
            arb_cycles: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct MasterStats {
    transactions: u64,
    bytes: u64,
    wait_cycles: u64,
}

/// The blocking FCFS system bus (the pre-redesign model, kept as oracle).
///
/// # Example
///
/// ```
/// use svmsyn_mem::reference::{BusConfig, FcfsBus};
/// use svmsyn_mem::MasterId;
/// use svmsyn_sim::Cycle;
/// let mut bus = FcfsBus::new(BusConfig::default());
/// let (s0, _d0) = bus.grant(MasterId(0), 64, Cycle(0));
/// let (s1, _d1) = bus.grant(MasterId(1), 64, Cycle(0));
/// assert!(s1 > s0, "second master waits for the first");
/// ```
#[derive(Debug, Clone)]
pub struct FcfsBus {
    cfg: BusConfig,
    cal: FcfsResource,
    masters: Vec<MasterStats>,
}

impl FcfsBus {
    /// Creates an idle bus.
    ///
    /// # Panics
    ///
    /// Panics if `width_bytes` is zero.
    pub fn new(cfg: BusConfig) -> Self {
        assert!(cfg.width_bytes > 0, "bus width must be positive");
        FcfsBus {
            cfg,
            cal: FcfsResource::new("bus"),
            masters: Vec::new(),
        }
    }

    /// The configuration this bus was built with.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Cycles a transaction of `len` bytes occupies the bus.
    pub fn occupancy(&self, len: u64) -> u64 {
        self.cfg.arb_cycles + len.div_ceil(self.cfg.width_bytes).max(1)
    }

    /// Requests the bus for a `len`-byte transaction by `master` arriving at
    /// `now`. Returns `(grant, release)` times.
    pub fn grant(&mut self, master: MasterId, len: u64, now: Cycle) -> (Cycle, Cycle) {
        let service = self.occupancy(len);
        let (start, done) = self.cal.acquire(now, service);
        let idx = master.0 as usize;
        if idx >= self.masters.len() {
            self.masters.resize(idx + 1, MasterStats::default());
        }
        let m = &mut self.masters[idx];
        m.transactions += 1;
        m.bytes += len;
        m.wait_cycles += (start - now).0;
        (start, done)
    }

    /// Total cycles the bus spent busy.
    pub fn busy_cycles(&self) -> u64 {
        self.cal.busy_cycles()
    }

    /// Bus utilization over `elapsed`.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        self.cal.utilization(elapsed)
    }

    /// Bytes transferred by `master` so far.
    pub fn master_bytes(&self, master: MasterId) -> u64 {
        self.masters.get(master.0 as usize).map_or(0, |m| m.bytes)
    }

    /// Counter snapshot, including per-master breakdowns.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("busy_cycles", self.cal.busy_cycles() as f64);
        s.put("transactions", self.cal.ops() as f64);
        s.put("mean_wait", self.cal.mean_wait());
        s.put("max_wait", self.cal.max_wait() as f64);
        for (i, m) in self.masters.iter().enumerate() {
            s.put(format!("m{i}.transactions"), m.transactions as f64);
            s.put(format!("m{i}.bytes"), m.bytes as f64);
            s.put(format!("m{i}.wait_cycles"), m.wait_cycles as f64);
        }
        s
    }

    /// Resets the calendar and all counters.
    pub fn reset(&mut self) {
        self.cal.reset();
        self.masters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_includes_arbitration() {
        let bus = FcfsBus::new(BusConfig::default());
        assert_eq!(bus.occupancy(8), 4 + 1);
        assert_eq!(bus.occupancy(64), 4 + 8);
        assert_eq!(bus.occupancy(1), 4 + 1);
        assert_eq!(
            bus.occupancy(0),
            4 + 1,
            "empty transaction still arbitrates"
        );
    }

    #[test]
    fn masters_contend_fcfs() {
        let mut bus = FcfsBus::new(BusConfig::default());
        let (s0, d0) = bus.grant(MasterId(0), 64, Cycle(0));
        let (s1, d1) = bus.grant(MasterId(1), 64, Cycle(0));
        assert_eq!(s0, Cycle(0));
        assert_eq!(s1, d0);
        assert_eq!(d1 - s1, d0 - s0);
    }

    #[test]
    fn per_master_accounting() {
        let mut bus = FcfsBus::new(BusConfig::default());
        bus.grant(MasterId(0), 64, Cycle(0));
        bus.grant(MasterId(2), 32, Cycle(0));
        assert_eq!(bus.master_bytes(MasterId(0)), 64);
        assert_eq!(bus.master_bytes(MasterId(1)), 0);
        assert_eq!(bus.master_bytes(MasterId(2)), 32);
        let s = bus.stats();
        assert_eq!(s.get("m2.bytes"), Some(32.0));
        assert!(s.get("m2.wait_cycles").unwrap() > 0.0);
    }

    #[test]
    fn utilization_and_reset() {
        let mut bus = FcfsBus::new(BusConfig::default());
        bus.grant(MasterId(0), 8, Cycle(0));
        assert!(bus.utilization(Cycle(10)) > 0.0);
        assert_eq!(bus.busy_cycles(), 5);
        bus.reset();
        assert_eq!(bus.busy_cycles(), 0);
        assert_eq!(bus.master_bytes(MasterId(0)), 0);
    }
}

//! Banked DRAM timing with an open-row (row buffer) policy.
//!
//! The model captures what matters for the evaluation: a row-buffer *hit*
//! costs the CAS latency only, a *miss* adds precharge + activate, banks
//! service requests independently and FCFS, and the data beats stream at the
//! DRAM interface width. Absolute parameters are configurable and documented
//! in [`DramConfig`].

use svmsyn_sim::{Cycle, FcfsResource, StatSet};

use crate::addr::PhysAddr;

/// DRAM geometry and timing parameters (all times in fabric cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent banks.
    pub banks: u32,
    /// Row-buffer size per bank, bytes. Must be a power of two.
    pub row_bytes: u64,
    /// Access latency on a row-buffer hit (CAS).
    pub t_row_hit: u64,
    /// Access latency on a row-buffer miss (precharge + activate + CAS).
    pub t_row_miss: u64,
    /// Bytes transferred per cycle once streaming.
    pub width_bytes: u64,
}

impl Default for DramConfig {
    /// Defaults sized for a Zynq-7000-class platform; ARCHITECTURE.md,
    /// "Platform defaults", gives each value's source.
    fn default() -> Self {
        DramConfig {
            banks: 8,
            row_bytes: 8 * 1024,
            t_row_hit: 20,
            t_row_miss: 48,
            width_bytes: 8,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Bank {
    pub(crate) open_row: Option<u64>,
    pub(crate) cal: FcfsResource,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// The banked DRAM timing model.
///
/// # Example
///
/// ```
/// use svmsyn_mem::{Dram, DramConfig, PhysAddr};
/// use svmsyn_sim::Cycle;
/// let mut d = Dram::new(DramConfig::default());
/// let first = d.access(PhysAddr(0), 64, Cycle(0));
/// let second = d.access(PhysAddr(64), 64, first); // same row: hit, cheaper
/// assert!(second - first < first - Cycle(0));
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    pub(crate) banks: Vec<Bank>,
    pub(crate) accesses: u64,
    pub(crate) bytes: u64,
}

impl Dram {
    /// Creates a DRAM model with all row buffers closed.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `row_bytes`/`width_bytes` are not powers
    /// of two.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.banks > 0, "need at least one bank");
        assert!(
            cfg.row_bytes.is_power_of_two(),
            "row_bytes must be a power of two"
        );
        assert!(
            cfg.width_bytes.is_power_of_two(),
            "width_bytes must be a power of two"
        );
        let banks = (0..cfg.banks)
            .map(|i| Bank {
                open_row: None,
                cal: FcfsResource::new(format!("dram.bank{i}")),
                hits: 0,
                misses: 0,
            })
            .collect();
        Dram {
            cfg,
            banks,
            accesses: 0,
            bytes: 0,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn bank_and_row(&self, addr: PhysAddr) -> (usize, u64) {
        // Row-interleaved banking: consecutive rows map to consecutive banks,
        // so streaming accesses rotate across banks while staying row-local
        // inside each row.
        let row_global = addr.0 / self.cfg.row_bytes;
        let bank = (row_global % self.cfg.banks as u64) as usize;
        let row = row_global / self.cfg.banks as u64;
        (bank, row)
    }

    /// Services an access of `len` bytes at `addr`, arriving at `now`.
    /// Returns the completion time. The access is assumed not to cross a row
    /// boundary (callers split larger transfers into bus-sized bursts well
    /// below the 8 KiB row).
    pub fn access(&mut self, addr: PhysAddr, len: u64, now: Cycle) -> Cycle {
        let (bank_idx, row) = self.bank_and_row(addr);
        let bank = &mut self.banks[bank_idx];
        let hit = bank.open_row == Some(row);
        let lat = if hit {
            bank.hits += 1;
            self.cfg.t_row_hit
        } else {
            bank.misses += 1;
            bank.open_row = Some(row);
            self.cfg.t_row_miss
        };
        let beats = len.div_ceil(self.cfg.width_bytes).max(1);
        let (_, done) = bank.cal.acquire(now, lat + beats);
        self.accesses += 1;
        self.bytes += len;
        done
    }

    /// Row-buffer hits across all banks.
    pub fn row_hits(&self) -> u64 {
        self.banks.iter().map(|b| b.hits).sum()
    }

    /// Row-buffer misses across all banks.
    pub fn row_misses(&self) -> u64 {
        self.banks.iter().map(|b| b.misses).sum()
    }

    /// Snapshot of counters for reporting.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("accesses", self.accesses as f64);
        s.put("bytes", self.bytes as f64);
        s.put("row_hits", self.row_hits() as f64);
        s.put("row_misses", self.row_misses() as f64);
        let total = self.row_hits() + self.row_misses();
        s.put(
            "row_hit_rate",
            if total == 0 {
                0.0
            } else {
                self.row_hits() as f64 / total as f64
            },
        );
        s
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl Dram {
    /// Serializes per-bank open rows, calendars and hit/miss counters plus
    /// the aggregate counters; geometry comes from config at restore.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        w.put_u64(self.accesses);
        w.put_u64(self.bytes);
        w.put_usize(self.banks.len());
        for b in &self.banks {
            b.open_row.save(w);
            b.cal.save(w);
            w.put_u64(b.hits);
            w.put_u64(b.misses);
        }
    }

    /// Rebuilds a DRAM model captured by [`save_state`](Self::save_state)
    /// under the design's `cfg`.
    pub fn restore_state(
        cfg: DramConfig,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let mut d = Dram::new(cfg);
        d.accesses = r.take_u64()?;
        d.bytes = r.take_u64()?;
        if r.take_len()? != d.banks.len() {
            return Err(SnapError::Corrupt("dram bank count"));
        }
        for b in &mut d.banks {
            b.open_row = Option::<u64>::load(r)?;
            b.cal = svmsyn_sim::FcfsResource::load(r)?;
            b.hits = r.take_u64()?;
            b.misses = r.take_u64()?;
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn first_access_misses_row() {
        let mut d = dram();
        d.access(PhysAddr(0), 8, Cycle(0));
        assert_eq!(d.row_misses(), 1);
        assert_eq!(d.row_hits(), 0);
    }

    #[test]
    fn same_row_hits() {
        let mut d = dram();
        let t1 = d.access(PhysAddr(0), 8, Cycle(0));
        let t2 = d.access(PhysAddr(8), 8, t1);
        assert_eq!(d.row_hits(), 1);
        // hit latency strictly lower than miss latency
        assert!((t2 - t1) < (t1 - Cycle(0)));
    }

    #[test]
    fn different_rows_same_bank_miss() {
        let cfg = DramConfig::default();
        let stride = cfg.row_bytes * cfg.banks as u64; // next row in the same bank
        let mut d = Dram::new(cfg);
        d.access(PhysAddr(0), 8, Cycle(0));
        d.access(PhysAddr(stride), 8, Cycle(100));
        assert_eq!(d.row_misses(), 2);
    }

    #[test]
    fn adjacent_rows_hit_different_banks() {
        let cfg = DramConfig::default();
        let row = cfg.row_bytes;
        let mut d = Dram::new(cfg);
        let a = d.access(PhysAddr(0), 8, Cycle(0));
        // Next row maps to the next bank, so it does not queue behind bank 0.
        let b = d.access(PhysAddr(row), 8, Cycle(0));
        assert_eq!(a, b, "independent banks service concurrently");
    }

    #[test]
    fn bank_contention_serializes() {
        let mut d = dram();
        let a = d.access(PhysAddr(0), 8, Cycle(0));
        let b = d.access(PhysAddr(16), 8, Cycle(0)); // same bank & row: queued
        assert!(b > a);
    }

    #[test]
    fn beats_scale_with_length() {
        let mut d = dram();
        let short = d.access(PhysAddr(0), 8, Cycle(0)) - Cycle(0);
        let mut d2 = dram();
        let long = d2.access(PhysAddr(0), 512, Cycle(0)) - Cycle(0);
        assert!(long > short);
        assert_eq!(long.0 - short.0, (512 / 8) - 1);
    }

    #[test]
    fn stats_snapshot() {
        let mut d = dram();
        d.access(PhysAddr(0), 64, Cycle(0));
        d.access(PhysAddr(64), 64, Cycle(100));
        let s = d.stats();
        assert_eq!(s.get("accesses"), Some(2.0));
        assert_eq!(s.get("bytes"), Some(128.0));
        assert_eq!(s.get("row_hit_rate"), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_row_bytes_panics() {
        Dram::new(DramConfig {
            row_bytes: 1000,
            ..DramConfig::default()
        });
    }
}

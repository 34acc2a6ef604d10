//! The OS cost model (all values in fabric cycles).
//!
//! These constants are the software half of the paper's system: how long the
//! interrupt path, the delegate thread, and the page-fault service take.
//! They assume the default platform (CPU at 2× the 100 MHz fabric clock):
//! e.g. 400 fabric cycles ≈ 4 µs for interrupt entry + dispatch, the right
//! order for a Zynq-era embedded Linux. ARCHITECTURE.md, "Platform
//! defaults", tables every value with its source. Table 3 prints the
//! breakdown measured through this model.

/// Fixed OS path costs, in fabric cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsCosts {
    /// Interrupt entry + dispatch to the handler.
    pub interrupt_entry: u64,
    /// Waking the delegate thread and scheduling it on a core.
    pub delegate_wakeup: u64,
    /// One syscall round trip (delegate → kernel → delegate).
    pub syscall: u64,
    /// Page-fault service excluding zeroing: vma lookup, frame allocation,
    /// PTE installation, TLB maintenance bookkeeping.
    pub fault_service: u64,
    /// Zeroing a fresh 4 KiB anonymous page.
    pub page_zero: u64,
    /// One context switch (register save/restore + scheduler).
    pub context_switch: u64,
    /// Round-robin timeslice length for software threads.
    pub timeslice: u64,
    /// OSIF FIFO transfer of one call/response word pair (hardware side).
    pub osif_transfer: u64,
    /// Writing one dirty 4 KiB page out to the swap device (device busy
    /// time; charged to the reclaiming fault).
    pub swap_out: u64,
    /// Reading one 4 KiB page back in from the swap device (device busy
    /// time; charged to the major fault).
    pub swap_in: u64,
    /// CPU-side reclaim overhead per evicted page: clock-hand scan, reverse
    /// map lookup, PTE downgrade, shootdown issue.
    pub reclaim_scan: u64,
}

impl Default for OsCosts {
    /// The defaults tabled, with their sources, in ARCHITECTURE.md,
    /// "Platform defaults".
    fn default() -> Self {
        OsCosts {
            interrupt_entry: 400,
            delegate_wakeup: 600,
            syscall: 250,
            fault_service: 2_000,
            page_zero: 1_024,
            context_switch: 800,
            timeslice: 100_000,
            osif_transfer: 20,
            // Flash-class swap device: ~200 µs per 4 KiB page at the
            // 100 MHz fabric clock. Slow enough that thrashing hurts,
            // fast enough that a handful of major faults is survivable.
            swap_out: 20_000,
            swap_in: 20_000,
            reclaim_scan: 500,
        }
    }
}

impl OsCosts {
    /// Total cost of servicing one demand-paging (minor) fault raised by a
    /// hardware thread: interrupt, delegate wakeup, service, zeroing.
    pub fn hw_fault_total(&self) -> u64 {
        self.interrupt_entry + self.delegate_wakeup + self.fault_service + self.page_zero
    }

    /// Total cost of a software-thread fault (no delegate involved).
    pub fn sw_fault_total(&self) -> u64 {
        self.interrupt_entry + self.fault_service + self.page_zero
    }

    /// Cost of one OSIF call handled by the delegate (sync primitives).
    pub fn osif_call_total(&self) -> u64 {
        self.osif_transfer + self.delegate_wakeup + self.syscall
    }

    /// Extra cost a *major* fault adds on top of the minor-fault total:
    /// the swap-in transfer replaces page zeroing (the page's contents
    /// come back from the device, they are not re-zeroed).
    pub fn major_fault_extra(&self) -> u64 {
        self.swap_in.saturating_sub(self.page_zero)
    }

    /// Cost of reclaiming one victim page: the clock scan plus, for dirty
    /// victims, the swap-out transfer.
    pub fn reclaim_total(&self, dirty: bool) -> u64 {
        self.reclaim_scan + if dirty { self.swap_out } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_ordered() {
        let c = OsCosts::default();
        assert!(c.interrupt_entry > 0);
        assert!(c.hw_fault_total() > c.sw_fault_total());
        assert!(c.hw_fault_total() > c.fault_service);
        assert!(c.osif_call_total() > c.syscall);
    }

    #[test]
    fn totals_are_sums() {
        let c = OsCosts::default();
        assert_eq!(
            c.hw_fault_total(),
            c.interrupt_entry + c.delegate_wakeup + c.fault_service + c.page_zero
        );
        assert_eq!(
            c.sw_fault_total(),
            c.interrupt_entry + c.fault_service + c.page_zero
        );
        assert_eq!(
            c.osif_call_total(),
            c.osif_transfer + c.delegate_wakeup + c.syscall
        );
    }

    #[test]
    fn swap_costs_are_plausible() {
        let c = OsCosts::default();
        assert!(c.swap_in > c.page_zero, "swap-in dominates zeroing");
        assert_eq!(c.major_fault_extra(), c.swap_in - c.page_zero);
        assert_eq!(c.reclaim_total(false), c.reclaim_scan);
        assert_eq!(c.reclaim_total(true), c.reclaim_scan + c.swap_out);
    }
}

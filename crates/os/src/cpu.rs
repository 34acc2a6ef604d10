//! The in-order CPU execution model for software-thread baselines.
//!
//! A software thread interprets the *same kernel IR* as a hardware thread,
//! but is costed with a CPI table, an L1 data cache, and a CPU TLB. The CPU
//! runs at twice the fabric clock (an assumed ratio; ARCHITECTURE.md,
//! "Platform defaults"), so CPI values are charged in half-fabric-cycles.
//! The cache is a *timing* cache: data always moves through the shared
//! [`MemorySystem`] functionally, so software and hardware threads stay
//! coherent by construction, and the cache model only decides whether a
//! bus transaction is charged.

use std::sync::Arc;

use svmsyn_hls::decode::DecodedKernel;
use svmsyn_hls::interp::{Flow, Interp, InterpEvent, InterpHooks};
use svmsyn_hls::ir::{BlockId, Width};
use svmsyn_mem::{FabricPort, MasterId, MemorySystem, PhysAddr, TxnKind, VirtAddr};

pub use svmsyn_mem::cache::{CacheConfig, CacheOutcome, L1Cache};
use svmsyn_sim::{Cycle, StatSet};
use svmsyn_vm::tlb::{Asid, Tlb, TlbConfig};

use crate::addrspace::Sigsegv;
use crate::os::Os;
use crate::sync::ThreadId;

/// CPI table in CPU cycles (CPU clock = 2× fabric clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCosts {
    /// ALU / compare / select.
    pub alu: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide.
    pub div: u64,
    /// Taken-branch average (includes misprediction mix).
    pub branch: u64,
    /// Load/store issue (cache time comes on top).
    pub mem_issue: u64,
    /// CPU TLB refill by the CPU's hardware walker (mostly cache-resident
    /// page tables, so a fixed cost rather than bus transactions).
    pub tlb_refill: u64,
}

impl Default for CpuCosts {
    /// A Cortex-A9-class in-order approximation.
    fn default() -> Self {
        CpuCosts {
            alu: 1,
            mul: 3,
            div: 20,
            branch: 2,
            mem_issue: 2,
            tlb_refill: 60,
        }
    }
}

/// Configuration of one software-thread execution context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwExecConfig {
    /// CPI table.
    pub costs: CpuCosts,
    /// L1 data cache.
    pub cache: CacheConfig,
    /// CPU TLB geometry.
    pub tlb: TlbConfig,
    /// Bus master id used for this thread's cache fills.
    pub master: MasterId,
}

impl SwExecConfig {
    /// Defaults with the given bus master id.
    pub fn with_master(master: MasterId) -> Self {
        SwExecConfig {
            costs: CpuCosts::default(),
            cache: CacheConfig::default(),
            tlb: TlbConfig {
                entries: 32,
                ways: 32,
                ..TlbConfig::default()
            },
            master,
        }
    }
}

/// Store-buffer depth of the CPU model: outstanding fire-and-forget
/// store-miss fills beyond which a new store miss waits for the oldest.
const STORE_BUFFER_DEPTH: usize = 4;

/// How a slice of software execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceEnd {
    /// The kernel returned.
    Finished {
        /// Return value, if any.
        ret: Option<i64>,
    },
    /// The cycle budget ran out; call again to continue.
    BudgetExhausted,
}

/// A software thread executing a kernel on the CPU model.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use svmsyn_hls::builder::KernelBuilder;
/// use svmsyn_hls::decode::DecodedKernel;
/// use svmsyn_hls::ir::BinOp;
/// use svmsyn_mem::{MasterId, MemConfig, MemorySystem};
/// use svmsyn_os::cpu::{SliceEnd, SwExec, SwExecConfig};
/// use svmsyn_os::sync::ThreadId;
/// use svmsyn_os::{Os, OsConfig};
/// use svmsyn_sim::Cycle;
///
/// let mut b = KernelBuilder::new("add", 2);
/// let x = b.arg(0);
/// let y = b.arg(1);
/// let s = b.bin(BinOp::Add, x, y);
/// b.ret(Some(s));
/// let k = Arc::new(DecodedKernel::decode(&b.finish().unwrap()));
///
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let mut os = Os::new(&OsConfig::default(), &mem);
/// let asid = os.create_space(&mut mem).unwrap();
/// let mut t = SwExec::new(ThreadId(1), asid, k, &[20, 22], SwExecConfig::with_master(MasterId(0)));
/// let (end, kind) = t.run_slice(&mut os, &mut mem, Cycle(0), u64::MAX).unwrap();
/// assert_eq!(kind, SliceEnd::Finished { ret: Some(42) });
/// assert!(end >= Cycle(0)); // one ALU op costs half a fabric cycle
/// ```
#[derive(Debug, Clone)]
pub struct SwExec {
    interp: Interp,
    core: CpuCore,
}

/// Everything of a software thread but its interpreter, so that the
/// interpreter's hooks (see [`Slice`]) can borrow it while the interpreter
/// runs.
#[derive(Debug, Clone)]
struct CpuCore {
    tid: ThreadId,
    asid: Asid,
    cfg: SwExecConfig,
    port: FabricPort,
    tlb: Tlb,
    cache: L1Cache,
    cpu_half_cycles: u64, // CPU cycles pending conversion (2 per fabric cycle)
    /// Outstanding store-miss line fills `(line base, completion)`: a store
    /// miss's write-allocate fill is fire-and-forget (the store buffer
    /// hides it), bounded by [`STORE_BUFFER_DEPTH`]. A later *load* to a
    /// line still being filled waits for the data — the same wake
    /// accounting the hardware threads' non-blocking MEMIF uses.
    store_fills: Vec<(u64, Cycle)>,
    /// Σ fire-and-forget fill latency.
    store_fill_latency: u64,
    /// Of that, cycles later accesses actually waited for.
    store_fill_stall: u64,
    /// Precomputed per-block compute CPI (CPU cycles) and op counts, indexed
    /// by `BlockId`: the whole block's compute time is charged once at block
    /// entry instead of per yielded op (see `run_slice`).
    block_cpi: Vec<u64>,
    block_ops: Vec<u64>,
    entry_charged: bool,
    instrs: u64,
    faults: u64,
}

/// Per-block compute CPI (CPU cycles) and op counts of `kernel` under
/// `costs`: blocks are straight-line, so their compute cost per entry is a
/// decode-time constant.
fn block_costs(kernel: &DecodedKernel, costs: &CpuCosts) -> (Vec<u64>, Vec<u64>) {
    let nblocks = kernel.num_blocks();
    let mut block_cpi = Vec::with_capacity(nblocks);
    let mut block_ops = Vec::with_capacity(nblocks);
    for b in 0..nblocks {
        let mix = kernel.block_mix(BlockId(b as u32));
        block_cpi.push(
            mix.alu as u64 * costs.alu + mix.mul as u64 * costs.mul + mix.div as u64 * costs.div,
        );
        block_ops.push(mix.ops());
    }
    (block_cpi, block_ops)
}

impl SwExec {
    /// Creates a software thread over the pre-decoded `kernel` with launch
    /// `args`. Callers decode once per kernel ([`DecodedKernel::decode`])
    /// and share the `Arc` across every run.
    pub fn new(
        tid: ThreadId,
        asid: Asid,
        kernel: Arc<DecodedKernel>,
        args: &[i64],
        cfg: SwExecConfig,
    ) -> Self {
        let (block_cpi, block_ops) = block_costs(&kernel, &cfg.costs);
        SwExec {
            interp: Interp::from_decoded(kernel, args),
            core: CpuCore {
                tid,
                asid,
                cfg,
                port: FabricPort::new(cfg.master),
                tlb: Tlb::new(cfg.tlb),
                cache: L1Cache::new(cfg.cache),
                cpu_half_cycles: 0,
                store_fills: Vec::new(),
                store_fill_latency: 0,
                store_fill_stall: 0,
                block_cpi,
                block_ops,
                entry_charged: false,
                instrs: 0,
                faults: 0,
            },
        }
    }

    /// This thread's id.
    pub fn tid(&self) -> ThreadId {
        self.core.tid
    }

    /// The address space the thread runs in.
    pub fn asid(&self) -> Asid {
        self.core.asid
    }

    /// Instructions retired so far.
    pub fn instrs(&self) -> u64 {
        self.core.instrs
    }

    /// Applies a TLB shootdown for one page (the broadcast half of frame
    /// reclaim; idempotent with the mid-slice drop in fault service).
    pub fn shootdown(&mut self, asid: Asid, va: VirtAddr) {
        self.core.tlb.invalidate_page(asid, va.vpn());
    }

    /// Runs until the kernel finishes or `budget` fabric cycles elapse.
    /// Returns the end time and how the slice ended.
    ///
    /// The interpreter runs with this slice's hooks: loads, stores and
    /// block changes are costed inside its dispatch loop, which returns
    /// here only when the budget is spent, an access segfaults, or the
    /// kernel is done.
    ///
    /// CPI batching: compute ops execute silently; each block's compute
    /// CPI is the decode-time sum charged once when the block is entered
    /// (entry block at launch, every other block at its block change). For
    /// any run that completes its blocks, totals are identical to per-op
    /// charging — blocks are straight-line — but the slice budget is now
    /// checked at event granularity only, so a slice may overrun `budget`
    /// by up to one block's compute time; loads within a block issue after
    /// the block's compute cost instead of interleaved with it; and a
    /// thread killed by `Sigsegv` mid-block has already been charged (and
    /// retired) the ops after the faulting access — acceptable, since a
    /// segfault aborts the whole simulation.
    /// `batched_cpi_shifts_slice_boundaries_only` locks the boundary shift
    /// down.
    ///
    /// # Errors
    ///
    /// Returns [`Sigsegv`] if the thread performs an unservicable access.
    pub fn run_slice(
        &mut self,
        os: &mut Os,
        mem: &mut MemorySystem,
        start: Cycle,
        budget: u64,
    ) -> Result<(Cycle, SliceEnd), Sigsegv> {
        let entry = self.interp.decoded().entry_block();
        let mut cx = Slice {
            core: &mut self.core,
            os,
            mem,
            start,
            budget,
            t: start,
            segv: None,
        };
        if !cx.core.entry_charged {
            cx.core.entry_charged = true;
            cx.core.charge_block(&mut cx.t, entry);
        }
        if cx.spent() {
            return Ok((cx.t, SliceEnd::BudgetExhausted));
        }
        match self.interp.run_hooked(&mut cx) {
            None => Ok((cx.t, SliceEnd::BudgetExhausted)),
            Some((InterpEvent::Done { ret }, _)) => {
                // Outstanding fire-and-forget fills drain before the
                // thread counts as finished — their registered fabric
                // waiters with them (no phantom wakeups survive).
                let core = &mut *cx.core;
                let end = core
                    .store_fills
                    .iter()
                    .map(|&(_, d)| d)
                    .max()
                    .map_or(cx.t, |d| d.max(cx.t));
                core.store_fill_stall += (end - cx.t).0;
                core.store_fills.clear();
                cx.mem.retire_woken(core.port.master(), end);
                Ok((end, SliceEnd::Finished { ret }))
            }
            // The hooks decline an event only when its access segfaults.
            Some(_) => Err(cx.segv.take().expect("a declined access segfaulted")),
        }
    }

    /// Counter snapshot (TLB and cache absorbed).
    pub fn stats(&self) -> StatSet {
        let c = &self.core;
        let mut s = StatSet::new();
        s.put("instrs", c.instrs as f64);
        s.put("faults", c.faults as f64);
        // Store-miss fill latency hidden behind the store buffer (fire-and-
        // forget fills minus the cycles later accesses waited for them).
        s.put(
            "store_miss_overlap_cycles",
            c.store_fill_latency.saturating_sub(c.store_fill_stall) as f64,
        );
        s.absorb("tlb", c.tlb.stats());
        s.absorb("cache", c.cache.stats());
        s
    }
}

impl CpuCore {
    fn charge_cpu(&mut self, t: &mut Cycle, cpu_cycles: u64) {
        self.cpu_half_cycles += cpu_cycles;
        let fabric = self.cpu_half_cycles / 2;
        self.cpu_half_cycles %= 2;
        *t += fabric;
    }

    /// Translates through the CPU TLB (+ fixed refill cost), servicing page
    /// faults through the OS.
    fn translate(
        &mut self,
        os: &mut Os,
        mem: &mut MemorySystem,
        va: VirtAddr,
        write: bool,
        t: &mut Cycle,
    ) -> Result<PhysAddr, Sigsegv> {
        loop {
            if let Some(hit) = self.tlb.lookup(self.asid, va.vpn()) {
                if !write || hit.flags.writable {
                    return Ok(PhysAddr::from_frame(hit.pfn).offset(va.page_offset()));
                }
                // Permission miss on cached entry: drop and re-resolve.
                self.tlb.invalidate_page(self.asid, va.vpn());
            }
            let refill = self.cfg.costs.tlb_refill;
            self.charge_cpu(t, refill);
            match os.space(self.asid).translate(mem, va) {
                Some((pa, flags)) if !write || flags.writable => {
                    self.tlb.insert(self.asid, va.vpn(), pa.frame(), flags);
                    return Ok(pa);
                }
                _ => {
                    self.faults += 1;
                    let done = os.service_fault(self.asid, va, write, false, mem, *t)?;
                    *t = done;
                    // Fault service may have reclaimed frames. The queued
                    // shootdowns are broadcast to every thread by the
                    // simulation loop after this slice; this thread's own
                    // TLB must drop them *now*, before the slice continues
                    // translating through stale entries.
                    for &(asid, sva) in os.pending_shootdowns() {
                        self.tlb.invalidate_page(asid, sva.vpn());
                    }
                }
            }
        }
    }

    /// Performs a timed, cached data access; returns the physical address.
    fn data_access(
        &mut self,
        os: &mut Os,
        mem: &mut MemorySystem,
        va: VirtAddr,
        write: bool,
        t: &mut Cycle,
    ) -> Result<PhysAddr, Sigsegv> {
        let pa = self.translate(os, mem, va, write, t)?;
        self.charge_cpu(t, self.cfg.costs.mem_issue);
        let line = self.cache.line_bytes();
        let base = pa.0 & !(line - 1);
        // Retire landed store fills, and their registered fabric waiters
        // with them so the waiter list stays bounded.
        mem.retire_woken(self.port.master(), *t);
        self.store_fills.retain(|&(_, done)| done > *t);
        match self.cache.access(pa, write) {
            CacheOutcome::Hit => {
                // An in-order load to a line whose fire-and-forget fill is
                // still in flight waits for the data; stores merge into the
                // store buffer and proceed.
                if !write {
                    if let Some(&(_, done)) = self.store_fills.iter().find(|&&(l, _)| l == base) {
                        self.store_fill_stall += (done - *t).0;
                        *t = done;
                    }
                }
            }
            CacheOutcome::Miss { writeback } => {
                let master = self.port.master();
                let mut issue = *t;
                if write && self.store_fills.len() >= STORE_BUFFER_DEPTH {
                    // Full store buffer: wait for the oldest fill to drain.
                    let earliest = self
                        .store_fills
                        .iter()
                        .map(|&(_, d)| d)
                        .min()
                        .expect("full buffer is non-empty");
                    if earliest > issue {
                        self.store_fill_stall += (earliest - issue).0;
                        issue = earliest;
                    }
                    self.store_fills.retain(|&(_, d)| d > issue);
                }
                if let Some(victim) = writeback {
                    // Writeback-buffer drain: the fill waits only for the
                    // victim's address handshake, not its completion.
                    let (_, next) =
                        mem.transfer_handshake(master, victim, line, TxnKind::Write, issue);
                    issue = next;
                }
                if write {
                    // Store miss: the write-allocate fill is fire-and-
                    // forget behind the store buffer — the CPU moves on at
                    // the address handshake and the completion waiter rides
                    // the same fabric wake hook as the MEMIF's fills.
                    let (done, next) =
                        mem.transfer_waited(master, PhysAddr(base), line, TxnKind::Read, issue);
                    self.store_fill_latency += (done - *t).0;
                    self.store_fills.push((base, done));
                    *t = next;
                } else {
                    let (done, _) =
                        mem.transfer_handshake(master, PhysAddr(base), line, TxnKind::Read, issue);
                    *t = done;
                }
            }
        }
        Ok(pa)
    }

    /// Charges a whole block's precomputed compute CPI at block entry.
    fn charge_block(&mut self, t: &mut Cycle, block: BlockId) {
        let b = block.0 as usize;
        self.instrs += self.block_ops[b];
        let cpi = self.block_cpi[b];
        self.charge_cpu(t, cpi);
    }
}

/// One [`SwExec::run_slice`] call: the interpreter hooks that cost every
/// block change, load and store, and the state they share.
struct Slice<'a> {
    core: &'a mut CpuCore,
    os: &'a mut Os,
    mem: &'a mut MemorySystem,
    /// Slice start time.
    start: Cycle,
    budget: u64,
    /// Thread time now.
    t: Cycle,
    /// The segfault that made a hook decline its access.
    segv: Option<Sigsegv>,
}

impl Slice<'_> {
    /// Whether the slice's cycle budget is spent. This per-event check is
    /// where a bound tighter than `budget` would plug in.
    #[inline]
    fn spent(&self) -> bool {
        (self.t - self.start).0 >= self.budget
    }

    /// A handled event's [`Flow`]: stop once the budget is spent.
    #[inline]
    fn flow<T>(&self, v: T) -> Flow<T> {
        if self.spent() {
            Flow::Stop(v)
        } else {
            Flow::Continue(v)
        }
    }

    /// A cached data access for the hooks; a segfault is kept for
    /// `run_slice` to return.
    #[inline]
    fn access(&mut self, addr: u64, write: bool) -> Option<PhysAddr> {
        self.core.instrs += 1;
        match self
            .core
            .data_access(self.os, self.mem, VirtAddr(addr), write, &mut self.t)
        {
            Ok(pa) => Some(pa),
            Err(e) => {
                self.segv = Some(e);
                None
            }
        }
    }
}

impl InterpHooks for Slice<'_> {
    #[inline]
    fn block_change(&mut self, _from: BlockId, to: BlockId, _dep: u32) -> Flow {
        self.core.instrs += 1;
        let branch = self.core.cfg.costs.branch;
        self.core.charge_cpu(&mut self.t, branch);
        self.core.charge_block(&mut self.t, to);
        self.flow(())
    }

    #[inline]
    fn load(&mut self, addr: u64, width: Width, _dep: u32) -> Flow<(u64, u32)> {
        match self.access(addr, false) {
            Some(pa) => self.flow((read_raw(self.mem, pa, width), 0)),
            None => Flow::Decline,
        }
    }

    #[inline]
    fn store(&mut self, addr: u64, width: Width, value: u64, _dep: u32) -> Flow {
        match self.access(addr, true) {
            Some(pa) => {
                write_raw(self.mem, pa, width, value);
                self.flow(())
            }
            None => Flow::Decline,
        }
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl SwExec {
    /// Serializes the runtime machine: interpreter registers, private TLB
    /// and L1 state, CPU-cycle carry, the store-fill window, and the retire
    /// counters. The decoded kernel, costs, and cache/TLB geometry are
    /// design-side and re-supplied at restore; `block_cpi`/`block_ops` are
    /// decode-time constants of kernel × costs and are recomputed.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        let c = &self.core;
        c.tid.save(w);
        c.asid.save(w);
        self.interp.save_state(w);
        c.tlb.save_state(w);
        c.cache.save_state(w);
        w.put_u64(c.cpu_half_cycles);
        c.store_fills.save(w);
        w.put_u64(c.store_fill_latency);
        w.put_u64(c.store_fill_stall);
        w.put_bool(c.entry_charged);
        w.put_u64(c.instrs);
        w.put_u64(c.faults);
    }

    /// Rebuilds a software thread captured by
    /// [`save_state`](Self::save_state) over the design's decoded `kernel`
    /// and execution config.
    pub fn restore_state(
        kernel: Arc<DecodedKernel>,
        cfg: SwExecConfig,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let tid = ThreadId::load(r)?;
        let asid = Asid::load(r)?;
        let interp = Interp::restore_state(Arc::clone(&kernel), r)?;
        let tlb = Tlb::restore_state(cfg.tlb, r)?;
        let cache = L1Cache::restore_state(cfg.cache, r)?;
        let cpu_half_cycles = r.take_u64()?;
        if cpu_half_cycles >= 2 {
            return Err(SnapError::Corrupt("cpu half-cycle carry"));
        }
        let store_fills: Vec<(u64, Cycle)> = Vec::load(r)?;
        if store_fills.len() > STORE_BUFFER_DEPTH {
            return Err(SnapError::Corrupt("store-fill window depth"));
        }
        let store_fill_latency = r.take_u64()?;
        let store_fill_stall = r.take_u64()?;
        let entry_charged = r.take_bool()?;
        let instrs = r.take_u64()?;
        let faults = r.take_u64()?;
        // Recompute the per-block cost tables exactly as `new` does.
        let (block_cpi, block_ops) = block_costs(&kernel, &cfg.costs);
        Ok(SwExec {
            interp,
            core: CpuCore {
                tid,
                asid,
                cfg,
                port: FabricPort::new(cfg.master),
                tlb,
                cache,
                cpu_half_cycles,
                store_fills,
                store_fill_latency,
                store_fill_stall,
                block_cpi,
                block_ops,
                entry_charged,
                instrs,
                faults,
            },
        })
    }
}

fn read_raw(mem: &MemorySystem, pa: PhysAddr, width: Width) -> u64 {
    let mut b = [0u8; 8];
    mem.dump(pa, &mut b[..width.bytes() as usize]);
    u64::from_le_bytes(b)
}

fn write_raw(mem: &mut MemorySystem, pa: PhysAddr, width: Width, value: u64) {
    mem.load(pa, &value.to_le_bytes()[..width.bytes() as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::OsConfig;
    use svmsyn_hls::builder::KernelBuilder;
    use svmsyn_hls::ir::{BinOp, CmpOp};
    use svmsyn_mem::{MemConfig, PAGE_SIZE};

    fn boot() -> (MemorySystem, Os) {
        let mem = MemorySystem::new(MemConfig {
            size_bytes: 64 << 20,
            ..MemConfig::default()
        });
        let os = Os::new(&OsConfig::default(), &mem);
        (mem, os)
    }

    /// store i at base+4i for i in 0..n, return sum of loads back.
    fn touch_kernel() -> Arc<DecodedKernel> {
        let mut b = KernelBuilder::new("touch", 2);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let base = b.arg(0);
        let n = b.arg(1);
        let zero = b.constant(0);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi();
        let acc = b.phi();
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let four = b.constant(4);
        let off = b.bin(BinOp::Mul, i, four);
        let addr = b.bin(BinOp::Add, base, off);
        b.store(addr, i, Width::W32);
        let back = b.load(addr, Width::W32);
        let acc2 = b.bin(BinOp::Add, acc, back);
        let one = b.constant(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.set_phi_incoming(acc, &[(entry, zero), (body, acc2)]);
        Arc::new(DecodedKernel::decode(&b.finish().unwrap()))
    }

    #[test]
    fn faults_in_pages_and_computes() {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let n = 256u64; // 1 KiB of i32: one page
        let va = os.mmap(asid, n * 4, true, false, &mut mem).unwrap();
        let mut t = SwExec::new(
            ThreadId(1),
            asid,
            touch_kernel(),
            &[va.0 as i64, n as i64],
            SwExecConfig::with_master(MasterId(0)),
        );
        let (end, kind) = t.run_slice(&mut os, &mut mem, Cycle(0), u64::MAX).unwrap();
        assert_eq!(
            kind,
            SliceEnd::Finished {
                ret: Some((0..n as i64).sum())
            }
        );
        assert!(end > Cycle(1000));
        assert_eq!(os.sw_faults(), 1, "one page: one minor fault");
        // Data must be visible in the shared memory (write-through data path).
        let mut buf = [0u8; 4];
        os.copy_out(asid, VirtAddr(va.0 + 40), &mut buf, &mem);
        assert_eq!(i32::from_le_bytes(buf), 10);
    }

    #[test]
    fn budget_exhaustion_resumes_cleanly() {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let n = 2048u64;
        let va = os.mmap(asid, n * 4, true, false, &mut mem).unwrap();
        let mut t = SwExec::new(
            ThreadId(1),
            asid,
            touch_kernel(),
            &[va.0 as i64, n as i64],
            SwExecConfig::with_master(MasterId(0)),
        );
        let mut now = Cycle(0);
        let mut slices = 0;
        loop {
            let (end, kind) = t.run_slice(&mut os, &mut mem, now, 500).unwrap();
            now = end;
            slices += 1;
            match kind {
                SliceEnd::Finished { ret } => {
                    assert_eq!(ret, Some((0..n as i64).sum()));
                    break;
                }
                SliceEnd::BudgetExhausted => assert!(slices < 100_000),
            }
        }
        assert!(slices > 1, "must have yielded at least once");
    }

    /// `dst[i] = src[i] + 1` for `i in 0..n`; returns `Σ src[i]`.
    fn copy_sum_kernel() -> Arc<DecodedKernel> {
        let mut b = KernelBuilder::new("copy_sum", 3);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let src = b.arg(0);
        let dst = b.arg(1);
        let n = b.arg(2);
        let zero = b.constant(0);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi();
        let acc = b.phi();
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let four = b.constant(4);
        let off = b.bin(BinOp::Mul, i, four);
        let sa = b.bin(BinOp::Add, src, off);
        let da = b.bin(BinOp::Add, dst, off);
        let v = b.load(sa, Width::W32);
        let one = b.constant(1);
        let v2 = b.bin(BinOp::Add, v, one);
        b.store(da, v2, Width::W32);
        let acc2 = b.bin(BinOp::Add, acc, v);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.set_phi_incoming(acc, &[(entry, zero), (body, acc2)]);
        Arc::new(DecodedKernel::decode(&b.finish().unwrap()))
    }

    /// How a thread run in fixed-budget slices ended.
    struct Sliced {
        end: Cycle,
        ret: Option<i64>,
        stats: StatSet,
        dst: Vec<u8>,
        /// Slices that ended on the budget.
        slices: u64,
        /// Whether some slice ended right after a load, a store, and a
        /// block change, in that order.
        stopped_after: [bool; 3],
    }

    /// Runs `copy_sum_kernel` over `n` elements (two pages each way, so
    /// the run takes minor faults) in `budget`-cycle slices, each resumed
    /// where the previous one ended.
    fn run_sliced(n: u64, budget: u64) -> Sliced {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let src = os.mmap(asid, n * 4, true, false, &mut mem).unwrap();
        let dst = os.mmap(asid, n * 4, true, false, &mut mem).unwrap();
        let data: Vec<u8> = (0..n as u32).flat_map(|i| (3 * i).to_le_bytes()).collect();
        os.copy_in(asid, src, &data, &mut mem).unwrap();
        let mut t = SwExec::new(
            ThreadId(1),
            asid,
            copy_sum_kernel(),
            &[src.0 as i64, dst.0 as i64, n as i64],
            SwExecConfig::with_master(MasterId(0)),
        );
        let read_dst = |os: &Os, mem: &MemorySystem| {
            let mut buf = vec![0u8; (n * 4) as usize];
            os.copy_out(asid, dst, &mut buf, mem);
            buf
        };
        let accesses = |t: &SwExec| {
            let s = t.stats();
            s.get("cache.hits").unwrap() + s.get("cache.misses").unwrap()
        };
        let mut now = Cycle(0);
        let mut slices = 0;
        let mut stopped_after = [false; 3];
        loop {
            let (before, dst_before) = (accesses(&t), read_dst(&os, &mem));
            let (end, kind) = t.run_slice(&mut os, &mut mem, now, budget).unwrap();
            now = end;
            match kind {
                SliceEnd::BudgetExhausted => {
                    // Every event costs at least one fabric cycle, so at
                    // budget 1 each slice ends after exactly one event.
                    let wrote = read_dst(&os, &mem) != dst_before;
                    match (accesses(&t) - before, wrote) {
                        (1.0, false) => stopped_after[0] = true,
                        (1.0, true) => stopped_after[1] = true,
                        (0.0, false) => stopped_after[2] = true,
                        _ => {}
                    }
                    slices += 1;
                }
                SliceEnd::Finished { ret } => {
                    return Sliced {
                        end,
                        ret,
                        stats: t.stats(),
                        dst: read_dst(&os, &mem),
                        slices,
                        stopped_after,
                    };
                }
            }
        }
    }

    #[test]
    fn slice_budget_does_not_change_the_run() {
        // Budget 1 ends a slice after every event, so every hook's stop-
        // and-resume path runs; 17 ends slices mid-block; u64::MAX never.
        let n = 2048u64;
        let whole = run_sliced(n, u64::MAX);
        assert_eq!(whole.ret, Some((0..n as i64).map(|i| 3 * i).sum()));
        let want: Vec<u8> = (0..n as u32)
            .flat_map(|i| (3 * i + 1).to_le_bytes())
            .collect();
        assert_eq!(whole.dst, want);
        assert_eq!(whole.slices, 0);
        for budget in [1, 17] {
            let sliced = run_sliced(n, budget);
            assert_eq!(sliced.end, whole.end, "budget {budget}: finish cycle");
            assert_eq!(sliced.ret, whole.ret, "budget {budget}: return value");
            assert_eq!(sliced.stats, whole.stats, "budget {budget}: stats");
            assert_eq!(sliced.dst, whole.dst, "budget {budget}: output");
            assert!(sliced.slices > 1, "budget {budget}: never ended a slice");
            if budget == 1 {
                assert!(sliced.slices > 4 * n, "only {} slices", sliced.slices);
                assert_eq!(
                    sliced.stopped_after, [true; 3],
                    "stops after [load, store, block change]"
                );
            }
        }
    }

    #[test]
    fn cache_hits_make_reuse_cheap() {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let va = os.mmap(asid, PAGE_SIZE, true, true, &mut mem).unwrap();
        // Two identical passes over one page: second pass should be much
        // faster thanks to the L1.
        let k = touch_kernel();
        let n = 64i64;
        let mut t1 = SwExec::new(
            ThreadId(1),
            asid,
            Arc::clone(&k),
            &[va.0 as i64, n],
            SwExecConfig::with_master(MasterId(0)),
        );
        let (e1, _) = t1.run_slice(&mut os, &mut mem, Cycle(0), u64::MAX).unwrap();
        let cold = (e1 - Cycle(0)).0;
        // Reuse the same exec's warm cache state via a fresh interp run.
        let mut t2 = SwExec {
            interp: Interp::from_decoded(k, &[va.0 as i64, n]),
            ..t1.clone()
        };
        let (e2, _) = t2.run_slice(&mut os, &mut mem, e1, u64::MAX).unwrap();
        let warm = (e2 - e1).0;
        assert!(warm < cold, "warm {warm} must beat cold {cold}");
        assert!(t2.stats().get("cache.hit_rate").unwrap() > 0.5);
    }

    #[test]
    fn segv_propagates() {
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let mut t = SwExec::new(
            ThreadId(1),
            asid,
            touch_kernel(),
            &[0x7000_0000, 4],
            SwExecConfig::with_master(MasterId(0)),
        );
        let err = t
            .run_slice(&mut os, &mut mem, Cycle(0), u64::MAX)
            .unwrap_err();
        assert_eq!(err.va.page_base(), VirtAddr(0x7000_0000));
    }

    #[test]
    fn batched_cpi_shifts_slice_boundaries_only() {
        // One straight-line block of 200 ALU ops (100 CPU cycles = 50
        // fabric cycles of compute). With per-block CPI batching the whole
        // block charges at entry, so a 10-cycle slice budget overruns to
        // the block boundary — but the total time and retired-instruction
        // count are exactly what per-op charging would produce.
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let mut b = KernelBuilder::new("blockalu", 1);
        let x = b.arg(0);
        let mut v = x;
        for _ in 0..200 {
            v = b.bin(BinOp::Add, v, x);
        }
        b.ret(Some(v));
        let k = Arc::new(DecodedKernel::decode(&b.finish().unwrap()));
        let mut t = SwExec::new(
            ThreadId(1),
            asid,
            k,
            &[1],
            SwExecConfig::with_master(MasterId(0)),
        );
        let (end, kind) = t.run_slice(&mut os, &mut mem, Cycle(0), 10).unwrap();
        // The slice boundary shifted past the budget to the block boundary:
        // all 200 ALU CPU-cycles landed in one charge.
        assert_eq!(kind, SliceEnd::BudgetExhausted);
        assert_eq!((end - Cycle(0)).0, 100, "whole block charged at entry");
        let (end2, kind2) = t.run_slice(&mut os, &mut mem, end, u64::MAX).unwrap();
        assert_eq!(kind2, SliceEnd::Finished { ret: Some(201) });
        assert_eq!(end2, end, "no compute left after the batched charge");
        assert_eq!(t.instrs(), 200, "batched charging retires every op");
    }

    #[test]
    fn cpu_clock_is_twice_fabric() {
        // 100 ALU CPU-cycles must cost 50 fabric cycles.
        let (mut mem, mut os) = boot();
        let asid = os.create_space(&mut mem).unwrap();
        let mut b = KernelBuilder::new("alu", 1);
        let x = b.arg(0);
        let mut v = x;
        for _ in 0..100 {
            v = b.bin(BinOp::Add, v, x);
        }
        b.ret(Some(v));
        let k = Arc::new(DecodedKernel::decode(&b.finish().unwrap()));
        let mut t = SwExec::new(
            ThreadId(1),
            asid,
            k,
            &[1],
            SwExecConfig::with_master(MasterId(0)),
        );
        let (end, _) = t.run_slice(&mut os, &mut mem, Cycle(0), u64::MAX).unwrap();
        assert_eq!((end - Cycle(0)).0, 50);
    }
}

//! The hardware-thread execution engine.
//!
//! A [`HwThread`] runs a compiled kernel cycle-faithfully: the interpreter
//! supplies *semantics* (real values, real branch decisions), the compiled
//! schedule supplies *compute timing* (state counts; initiation intervals
//! for pipelined loops), and every memory operation goes through the MEMIF —
//! MMU translation, burst buffers, real bus contention. Page faults suspend
//! the thread and are reported to the caller (the delegate path); execution
//! resumes with a retry after the OS maps the page.

use std::sync::Arc;

use svmsyn_hls::fsmd::CompiledKernel;
use svmsyn_hls::interp::{Flow, Interp, InterpEvent, InterpHooks};
use svmsyn_hls::ir::{BlockId, Width};
use svmsyn_mem::{MasterId, MemorySystem, PhysAddr, VirtAddr};
use svmsyn_sim::{Cycle, StatSet};
use svmsyn_vm::mmu::VmFault;
use svmsyn_vm::tlb::Asid;

use crate::memif::{Memif, MemifConfig};

/// Hardware-thread configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HwThreadConfig {
    /// The memory interface (burst engine + MMU).
    pub memif: MemifConfig,
}

/// Why `advance` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwStep {
    /// The cycle budget was exhausted; call `advance` again.
    Yielded {
        /// Current thread-local time.
        now: Cycle,
    },
    /// A micro-op depends on an outstanding miss: the thread parked it and
    /// handed control back. Wake it with `advance(mem, wake, …)` — `wake`
    /// is the *exact* fabric completion cycle of the fill (the registered
    /// waiter), so the discrete-event scheduler delivers the completion
    /// with no early/late drift. Only the non-blocking configuration
    /// (`miss_depth > 1`) parks; the blocking one stalls in place exactly
    /// as the pre-event-delivery analytic path did.
    Parked {
        /// The fill completion cycle to resume at.
        wake: Cycle,
    },
    /// A page fault needs OS service; call `advance` again with the
    /// post-service time (the faulting access is retried automatically).
    PageFault {
        /// The fault for the delegate/OS.
        fault: VmFault,
        /// Fault detection time.
        now: Cycle,
    },
    /// The kernel returned and the write buffers are drained.
    Finished {
        /// The kernel's return value.
        ret: Option<i64>,
        /// Completion time.
        now: Cycle,
    },
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Load {
        va: VirtAddr,
        width: Width,
    },
    Store {
        va: VirtAddr,
        width: Width,
        raw: u64,
    },
}

/// A virtual-memory-enabled hardware thread executing one compiled kernel.
///
/// # Example
///
/// See the crate-level example in [`svmsyn_hwt`](crate).
#[derive(Debug, Clone)]
pub struct HwThread {
    interp: Interp,
    core: HwCore,
}

/// Everything of a hardware thread but its interpreter, so that the
/// interpreter's hooks (see [`Advance`]) can borrow it while the
/// interpreter runs.
#[derive(Debug, Clone)]
struct HwCore {
    compiled: Arc<CompiledKernel>,
    memif: Memif,
    cur_block: BlockId,
    started: bool,
    pending: Option<Pending>,
    finished: bool,
    mem_ops: u64,
    compute_cycles: u64,
    /// Memory cycles the current schedule window can still hide: scheduled
    /// states already reserve the issue/ack slots of their memory ops, so a
    /// cache-hit access costs no *extra* time until the window's budget is
    /// spent. Misses (line fills, faults) spill past it — the stall model.
    mem_credit: u64,
    hidden_mem_cycles: u64,
    /// Outstanding load fills by dependence token: `(token, completion)`.
    /// Tokens are handed to the interpreter's poison tracker; a micro-op
    /// yielding with a live token parks until that fill's completion.
    /// Completions here are clamped monotone in token order (the
    /// interface's fill-return queue is in order), so the poison tracker's
    /// "max token = youngest dependence" rule is exact: waiting for the
    /// youngest token waits for every older one too, even when a
    /// cross-master MSHR merge lets a later fill land first on the fabric.
    dep_fills: Vec<(u32, Cycle)>,
    next_token: u32,
    /// Completion of the most recently tokenized fill (the in-order
    /// fill-return clamp).
    last_fill_done: Cycle,
    /// A micro-op parked on an outstanding miss, with its wake cycle.
    parked: Option<(InterpEvent, Cycle)>,
    /// Times a dependent micro-op actually parked on a miss.
    miss_parks: u64,
}

impl HwThread {
    /// Instantiates the thread with launch arguments, acting as bus master
    /// `master`.
    pub fn new(
        compiled: Arc<CompiledKernel>,
        args: &[i64],
        cfg: &HwThreadConfig,
        master: MasterId,
    ) -> Self {
        let entry = compiled.kernel.entry;
        let interp = Interp::from_decoded(Arc::clone(&compiled.decoded), args);
        HwThread {
            interp,
            core: HwCore {
                compiled,
                memif: Memif::new(cfg.memif, master),
                cur_block: entry,
                started: false,
                pending: None,
                finished: false,
                mem_ops: 0,
                compute_cycles: 0,
                mem_credit: 0,
                hidden_mem_cycles: 0,
                dep_fills: Vec::new(),
                next_token: 0,
                last_fill_done: Cycle::ZERO,
                parked: None,
                miss_parks: 0,
            },
        }
    }

    /// Binds the thread's MMU to an address space.
    pub fn set_context(&mut self, asid: Asid, root: PhysAddr) {
        self.core.memif.set_context(asid, root);
    }

    /// The memory interface (for statistics).
    pub fn memif(&self) -> &Memif {
        &self.core.memif
    }

    /// Mutable memory-interface access (TLB shootdowns).
    pub fn memif_mut(&mut self) -> &mut Memif {
        &mut self.core.memif
    }

    /// The compiled kernel this thread executes.
    pub fn compiled(&self) -> &CompiledKernel {
        &self.core.compiled
    }

    /// Whether the kernel has completed.
    pub fn is_finished(&self) -> bool {
        self.core.finished
    }

    /// Memory operations issued so far. A faulted access's retries do not
    /// re-count, so a value frozen across consecutive faults means the same
    /// access keeps losing its frames — the signal the simulator's
    /// per-access thrash detector keys on.
    pub fn mem_ops_issued(&self) -> u64 {
        self.core.mem_ops
    }

    /// Advances execution from `now` until the kernel finishes, a page fault
    /// needs service, or `budget` cycles of thread-local time elapse.
    ///
    /// The interpreter runs with this call's hooks, so block changes, loads
    /// and stores are handled inside its dispatch loop. It returns here
    /// only when a hook stops it — the budget is spent, an access faults,
    /// or a micro-op parks on a live dependence token — or at `Done`.
    ///
    /// # Panics
    ///
    /// Panics if called after [`HwStep::Finished`] was returned, or if no
    /// context was bound.
    pub fn advance(&mut self, mem: &mut MemorySystem, now: Cycle, budget: u64) -> HwStep {
        // Caller-contract assert, not workload-reachable: the simulator
        // retires a thread from scheduling on `Finished`, so no kernel
        // content can re-enter a finished thread.
        assert!(
            !self.core.finished,
            "advance called on a finished hardware thread"
        );
        let nonblocking = self.core.memif.miss_depth() > 1;
        let mut cx = Advance {
            core: &mut self.core,
            mem,
            start: now,
            budget,
            t: now,
            nonblocking,
            step: None,
        };
        if !cx.core.started {
            cx.core.started = true;
            let cost = cx.core.compiled.enter_costs[cx.core.compiled.kernel.entry.0 as usize];
            cx.core.charge(&mut cx.t, cost);
        }
        // Retry a faulted access first (the OS has serviced the fault).
        if let Err(step) = cx.retry_pending(&mut self.interp) {
            return step;
        }
        if cx.spent() {
            return HwStep::Yielded { now: cx.t };
        }
        // A parked micro-op resumes first: its wake was scheduled at the
        // fill's exact completion cycle, and the stall was already booked
        // when it parked. It replays through the hook that parked it.
        if let Some((ev, wake)) = cx.core.parked.take() {
            cx.t = cx.t.max(wake);
            let flow = match ev {
                InterpEvent::Load { addr, width } => match cx.load(addr, width, 0) {
                    Flow::Continue((raw, token)) => {
                        self.interp.provide_load_dep(raw, token);
                        Flow::Continue(())
                    }
                    Flow::Stop((raw, token)) => {
                        self.interp.provide_load_dep(raw, token);
                        Flow::Stop(())
                    }
                    Flow::Decline => Flow::Decline,
                },
                InterpEvent::Store { addr, width, value } => cx.store(addr, width, value, 0),
                InterpEvent::BlockChange { from, to } => cx.block_change(from, to, 0),
                InterpEvent::Done { ret } => return cx.done(ret, 0),
                // Internal invariant: only hooked events and `Done` park.
                InterpEvent::Op(_) => unreachable!("compute ops never park"),
            };
            match flow {
                Flow::Continue(()) => {}
                Flow::Stop(()) => return HwStep::Yielded { now: cx.t },
                Flow::Decline => return cx.step.take().expect("a declined replay faulted"),
            }
        }
        let end = if nonblocking {
            self.interp.run_hooked_dep(&mut cx)
        } else {
            self.interp.run_hooked(&mut cx)
        };
        match end {
            None => HwStep::Yielded { now: cx.t },
            Some((ev, dep)) => match cx.step.take() {
                // A hook declined its event: it parked or faulted.
                Some(step) => step,
                None => match ev {
                    InterpEvent::Done { ret } => cx.done(ret, dep),
                    // Internal invariant: the hooks decline only with a step.
                    _ => unreachable!("hooks declined {ev:?} without a step"),
                },
            },
        }
    }

    /// Counter snapshot (MEMIF and MMU absorbed).
    pub fn stats(&self) -> StatSet {
        let c = &self.core;
        let mut s = StatSet::new();
        s.put("mem_ops", c.mem_ops as f64);
        s.put("compute_cycles", c.compute_cycles as f64);
        s.put("hidden_mem_cycles", c.hidden_mem_cycles as f64);
        s.put("miss_parks", c.miss_parks as f64);
        s.put("instrs", self.interp.steps() as f64);
        s.absorb("memif", c.memif.stats());
        s
    }
}

impl HwCore {
    fn charge(&mut self, t: &mut Cycle, cycles: u64) {
        self.compute_cycles += cycles;
        if cycles > 0 {
            // A new schedule window opens; zero-cost transfers (intra-
            // pipeline) keep the current window's remaining budget.
            self.mem_credit = cycles;
        }
        *t += cycles;
    }

    /// Advances `t` by a memory-access duration, hiding what the current
    /// schedule window covers.
    fn charge_mem(&mut self, t: &mut Cycle, from: Cycle, to: Cycle) {
        let cost = (to - from).0;
        let hidden = cost.min(self.mem_credit);
        self.mem_credit -= hidden;
        self.hidden_mem_cycles += hidden;
        *t = from + (cost - hidden);
    }

    /// Allocates a dependence token for an access that rides an outstanding
    /// fill completing after `t`; `0` (clean) when the data is in hand.
    ///
    /// Completions are clamped monotone in token order: the interface
    /// returns fill data in issue order (the simplest hardware), so a
    /// younger token never delivers before an older one. This keeps the
    /// poison tracker's max-token rule sound when a cross-master MSHR
    /// merge would let a later fill complete earlier on the fabric.
    fn fill_token(&mut self, fill: Option<Cycle>, t: Cycle) -> u32 {
        match fill {
            Some(done) if done > t => {
                // Prune landed fills here, not only at dependence checks:
                // a dependence-free stretch (e.g. a pure reduction) must
                // not grow the ring without bound.
                self.dep_fills.retain(|&(_, d)| d > t);
                let done = done.max(self.last_fill_done);
                self.last_fill_done = done;
                self.next_token += 1;
                self.dep_fills.push((self.next_token, done));
                self.next_token
            }
            _ => 0,
        }
    }

    /// Executes one load: the non-blocking path charges only the interface
    /// handshake and returns a dependence token for any outstanding fill
    /// with the data; the blocking path charges to completion (the
    /// pre-event-delivery discipline). On a fault, records the pending
    /// retry and returns the `PageFault` step.
    fn do_load(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        width: Width,
        t: &mut Cycle,
        nonblocking: bool,
    ) -> Result<(u64, u32), HwStep> {
        let from = *t;
        let res = if nonblocking {
            self.memif
                .read_nb(mem, va, width, from)
                .map(|acc| (acc.raw, acc.next, acc.fill))
        } else {
            self.memif
                .read(mem, va, width, from)
                .map(|(raw, done)| (raw, done, None))
        };
        match res {
            Ok((raw, until, fill)) => {
                self.charge_mem(t, from, until);
                Ok((raw, self.fill_token(fill, *t)))
            }
            Err(f) => {
                self.pending = Some(Pending::Load { va, width });
                Err(HwStep::PageFault {
                    fault: f.fault,
                    now: f.done,
                })
            }
        }
    }

    /// Executes one store: fire-and-forget at the handshake on the
    /// non-blocking path, charged to completion on the blocking one. On a
    /// fault, records the pending retry and returns the `PageFault` step.
    fn do_store(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        width: Width,
        raw: u64,
        t: &mut Cycle,
        nonblocking: bool,
    ) -> Result<(), HwStep> {
        let from = *t;
        let res = if nonblocking {
            self.memif
                .write_nb(mem, va, width, raw, from)
                .map(|acc| acc.next)
        } else {
            self.memif.write(mem, va, width, raw, from)
        };
        match res {
            Ok(until) => {
                self.charge_mem(t, from, until);
                Ok(())
            }
            Err(f) => {
                self.pending = Some(Pending::Store { va, width, raw });
                Err(HwStep::PageFault {
                    fault: f.fault,
                    now: f.done,
                })
            }
        }
    }
}

/// One [`HwThread::advance`] call: the interpreter hooks that run every
/// block change, load and store, and the state they share.
struct Advance<'a> {
    core: &'a mut HwCore,
    mem: &'a mut MemorySystem,
    /// Thread-local time when the call began.
    start: Cycle,
    budget: u64,
    /// Thread-local time now.
    t: Cycle,
    /// Whether the MEMIF is non-blocking (`miss_depth > 1`).
    nonblocking: bool,
    /// Why a hook declined its event (a park or a page fault): the step
    /// `advance` returns.
    step: Option<HwStep>,
}

impl Advance<'_> {
    /// Whether the call's cycle budget is spent. This per-event check is
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

    /// Hit-under-miss dependence check: an event carrying a live token
    /// parks until that fill's completion; everything else keeps retiring
    /// under the outstanding misses. Returns whether `ev` parked.
    #[inline]
    fn park(&mut self, ev: InterpEvent, dep: u32) -> bool {
        if dep == 0 {
            return false;
        }
        let t = self.t;
        let core = &mut *self.core;
        core.dep_fills.retain(|&(_, done)| done > t);
        match core.dep_fills.iter().find(|&&(tok, _)| tok == dep) {
            Some(&(_, done)) => {
                core.miss_parks += 1;
                core.memif.note_miss_stall((done - t).0);
                core.parked = Some((ev, done));
                self.step = Some(HwStep::Parked { wake: done });
                true
            }
            None => false,
        }
    }

    /// Retries the access whose page fault the OS has just serviced.
    fn retry_pending(&mut self, interp: &mut Interp) -> Result<(), HwStep> {
        let (mem, t, nb) = (&mut *self.mem, &mut self.t, self.nonblocking);
        match self.core.pending.take() {
            Some(Pending::Load { va, width }) => {
                let (raw, token) = self.core.do_load(mem, va, width, t, nb)?;
                interp.provide_load_dep(raw, token);
                Ok(())
            }
            Some(Pending::Store { va, width, raw }) => {
                self.core.do_store(mem, va, width, raw, t, nb)
            }
            None => Ok(()),
        }
    }

    /// The kernel returned: once its value's dependence has landed, the
    /// outstanding fills drain before the final flush — the kernel is only
    /// done when its last miss is.
    fn done(&mut self, ret: Option<i64>, dep: u32) -> HwStep {
        if self.park(InterpEvent::Done { ret }, dep) {
            return self.step.take().expect("a park sets its step");
        }
        let core = &mut *self.core;
        let drained = core.memif.drain_outstanding(self.mem, self.t);
        let done = core.memif.flush(self.mem, drained);
        core.finished = true;
        core.dep_fills.clear();
        HwStep::Finished { ret, now: done }
    }
}

impl InterpHooks for Advance<'_> {
    /// Charges the schedule-derived cost of entering `to` from `from`: the
    /// interpreter runs compute ops silently, so block compute time is
    /// charged per transition from the compiled cost matrix.
    #[inline]
    fn block_change(&mut self, from: BlockId, to: BlockId, dep: u32) -> Flow {
        if self.park(InterpEvent::BlockChange { from, to }, dep) {
            return Flow::Decline;
        }
        let compiled = &self.core.compiled;
        let nblocks = compiled.kernel.blocks.len();
        let cost = compiled.enter_costs[(from.0 as usize + 1) * nblocks + to.0 as usize];
        self.core.charge(&mut self.t, cost);
        self.core.cur_block = to;
        self.flow(())
    }

    /// Fault-free fast path: only a faulting access goes through the
    /// `pending` retry machinery. Non-blocking, the thread pays only the
    /// interface occupancy — the fill latency parks the *dependent*
    /// micro-op.
    #[inline]
    fn load(&mut self, addr: u64, width: Width, dep: u32) -> Flow<(u64, u32)> {
        if self.park(InterpEvent::Load { addr, width }, dep) {
            return Flow::Decline;
        }
        self.core.mem_ops += 1;
        let va = VirtAddr(addr);
        match self
            .core
            .do_load(self.mem, va, width, &mut self.t, self.nonblocking)
        {
            Ok(data) => self.flow(data),
            Err(step) => {
                self.step = Some(step);
                Flow::Decline
            }
        }
    }

    /// Fire-and-forget when non-blocking: the store buffer absorbs the
    /// access at the handshake; a write-allocate miss's fill stays tracked
    /// in the MEMIF miss window.
    #[inline]
    fn store(&mut self, addr: u64, width: Width, value: u64, dep: u32) -> Flow {
        if self.park(InterpEvent::Store { addr, width, value }, dep) {
            return Flow::Decline;
        }
        self.core.mem_ops += 1;
        let va = VirtAddr(addr);
        match self
            .core
            .do_store(self.mem, va, width, value, &mut self.t, self.nonblocking)
        {
            Ok(()) => self.flow(()),
            Err(step) => {
                self.step = Some(step);
                Flow::Decline
            }
        }
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl svmsyn_snap::Snap for Pending {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        match *self {
            Pending::Load { va, width } => {
                w.put_u8(0);
                w.put_u64(va.0);
                width.save(w);
            }
            Pending::Store { va, width, raw } => {
                w.put_u8(1);
                w.put_u64(va.0);
                width.save(w);
                w.put_u64(raw);
            }
        }
    }

    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        Ok(match r.take_u8()? {
            0 => Pending::Load {
                va: VirtAddr(r.take_u64()?),
                width: Width::load(r)?,
            },
            1 => Pending::Store {
                va: VirtAddr(r.take_u64()?),
                width: Width::load(r)?,
                raw: r.take_u64()?,
            },
            _ => return Err(svmsyn_snap::SnapError::Corrupt("pending-access tag")),
        })
    }
}

impl HwThread {
    /// Serializes the thread's dynamic state: interpreter registers, MEMIF
    /// (MMU + burst cache + fill window), control position, the
    /// faulted-access retry slot, the dependence-fill ring, and the parked
    /// micro-op. The compiled kernel and configuration are design-side and
    /// re-supplied at restore.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        let c = &self.core;
        self.interp.save_state(w);
        c.memif.save_state(w);
        c.cur_block.save(w);
        w.put_bool(c.started);
        c.pending.save(w);
        w.put_bool(c.finished);
        w.put_u64(c.mem_ops);
        w.put_u64(c.compute_cycles);
        w.put_u64(c.mem_credit);
        w.put_u64(c.hidden_mem_cycles);
        c.dep_fills.save(w);
        w.put_u32(c.next_token);
        c.last_fill_done.save(w);
        c.parked.save(w);
        w.put_u64(c.miss_parks);
    }

    /// Rebuilds a thread captured by [`save_state`](Self::save_state) over
    /// the design's compiled kernel, configuration, and bus-master
    /// identity.
    pub fn restore_state(
        compiled: Arc<CompiledKernel>,
        cfg: &HwThreadConfig,
        master: MasterId,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let interp = Interp::restore_state(Arc::clone(&compiled.decoded), r)?;
        let memif = Memif::restore_state(cfg.memif, master, r)?;
        let cur_block = BlockId::load(r)?;
        if cur_block.0 as usize >= compiled.kernel.blocks.len() {
            return Err(SnapError::Corrupt("hardware-thread block id"));
        }
        Ok(HwThread {
            interp,
            core: HwCore {
                compiled,
                memif,
                cur_block,
                started: r.take_bool()?,
                pending: Option::load(r)?,
                finished: r.take_bool()?,
                mem_ops: r.take_u64()?,
                compute_cycles: r.take_u64()?,
                mem_credit: r.take_u64()?,
                hidden_mem_cycles: r.take_u64()?,
                dep_fills: Vec::load(r)?,
                next_token: r.take_u32()?,
                last_fill_done: Cycle::load(r)?,
                parked: Option::load(r)?,
                miss_parks: r.take_u64()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmsyn_hls::builder::KernelBuilder;
    use svmsyn_hls::fsmd::{compile, HlsConfig};
    use svmsyn_hls::ir::{BinOp, CmpOp, Kernel};
    use svmsyn_mem::MemConfig;
    use svmsyn_vm::pte::{DirEntry, Pte, PteFlags};

    /// vecadd: dst[i] = src[i] + 1 for i in 0..n
    fn vecadd() -> Kernel {
        let mut b = KernelBuilder::new("vecadd", 3);
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
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.finish().unwrap()
    }

    /// Identity-maps VA pages 0..pages to PFNs 100..100+pages.
    fn setup(pages: u64) -> (MemorySystem, PhysAddr) {
        let mut mem = MemorySystem::new(MemConfig::default());
        let root = PhysAddr::from_frame(5);
        mem.poke_u32(root, DirEntry::table(6).encode());
        let flags = PteFlags {
            writable: true,
            user: true,
            ..PteFlags::default()
        };
        for p in 0..pages {
            mem.poke_u32(
                PhysAddr::from_frame(6).offset(4 * p),
                Pte::leaf(100 + p, flags).encode(),
            );
        }
        (mem, root)
    }

    fn run_to_completion(t: &mut HwThread, mem: &mut MemorySystem) -> (Option<i64>, Cycle) {
        let mut now = Cycle(0);
        loop {
            match t.advance(mem, now, 10_000) {
                HwStep::Yielded { now: n } => now = n,
                HwStep::Parked { wake } => now = wake,
                HwStep::Finished { ret, now } => return (ret, now),
                HwStep::PageFault { fault, .. } => panic!("unexpected fault: {fault}"),
            }
        }
    }

    #[test]
    fn computes_correct_bytes_with_timing() {
        let (mut mem, root) = setup(4);
        let n = 512u64; // 2 KiB in, 2 KiB out
        for i in 0..n {
            mem.poke_u32(PhysAddr::from_frame(100).offset(4 * i), i as u32);
        }
        let ck = Arc::new(compile(&vecadd(), &HlsConfig::default()));
        let mut t = HwThread::new(
            ck,
            &[0, (n * 4) as i64, n as i64],
            &HwThreadConfig::default(),
            MasterId(1),
        );
        t.set_context(Asid(1), root);
        let (ret, end) = run_to_completion(&mut t, &mut mem);
        assert_eq!(ret, None);
        assert!(end > Cycle(n), "timing must be nontrivial");
        for i in 0..n {
            // dst starts at VA n*4 -> PFN 100 + (n*4)/4096 pages offset
            let pa = PhysAddr::from_frame(100).offset(n * 4 + 4 * i);
            assert_eq!(mem.peek_u32(pa), i as u32 + 1, "element {i}");
        }
        assert!(t.is_finished());
        assert!(t.stats().get("memif.cache.misses").unwrap() > 0.0);
    }

    #[test]
    fn page_fault_suspends_and_resumes() {
        let (mut mem, root) = setup(1); // only page 0 mapped; dst page faults
        let n = 8u64;
        let ck = Arc::new(compile(&vecadd(), &HlsConfig::default()));
        let mut t = HwThread::new(
            ck,
            &[0, 4096, n as i64],
            &HwThreadConfig::default(),
            MasterId(1),
        );
        t.set_context(Asid(1), root);
        // The faulting store's value depends on a missed load, so the
        // non-blocking thread may park on that fill before reaching the
        // fault — drive through parks until the fault surfaces.
        let mut now = Cycle(0);
        let (fault, at) = loop {
            match t.advance(&mut mem, now, u64::MAX) {
                HwStep::PageFault { fault, now } => break (fault, now),
                HwStep::Parked { wake } => now = wake,
                HwStep::Yielded { now: n } => now = n,
                other => panic!("expected fault, got {other:?}"),
            }
        };
        assert_eq!(fault.va().page_base(), VirtAddr(4096));
        // "Service" the fault by installing the mapping, then resume.
        let flags = PteFlags {
            writable: true,
            user: true,
            ..PteFlags::default()
        };
        mem.poke_u32(
            PhysAddr::from_frame(6).offset(4),
            Pte::leaf(101, flags).encode(),
        );
        let service_done = at + Cycle(3000);
        let mut now = service_done;
        loop {
            match t.advance(&mut mem, now, u64::MAX) {
                HwStep::Finished { now: end, .. } => {
                    assert!(end > service_done);
                    break;
                }
                HwStep::Yielded { now: n2 } => now = n2,
                HwStep::Parked { wake } => now = wake,
                HwStep::PageFault { fault, .. } => panic!("second fault: {fault}"),
            }
        }
        assert_eq!(mem.peek_u32(PhysAddr::from_frame(101)), 1);
    }

    #[test]
    fn pipelining_speeds_up_hardware_time() {
        let (mut mem, root) = setup(8);
        let n = 1024i64;
        let plain = compile(
            &vecadd(),
            &HlsConfig {
                pipeline_loops: false,
                ..HlsConfig::default()
            },
        );
        let piped = compile(&vecadd(), &HlsConfig::default());
        let run = |ck: svmsyn_hls::fsmd::CompiledKernel, mem: &mut MemorySystem| {
            let mut t = HwThread::new(
                Arc::new(ck),
                &[0, n * 4, n],
                &HwThreadConfig::default(),
                MasterId(1),
            );
            t.set_context(Asid(1), root);
            run_to_completion(&mut t, mem).1
        };
        let (mut mem2, _) = setup(8);
        let t_plain = run(plain, &mut mem);
        let t_piped = run(piped, &mut mem2);
        assert!(
            t_piped < t_plain,
            "pipelined {t_piped} must beat sequential {t_plain}"
        );
    }

    #[test]
    #[should_panic(expected = "finished hardware thread")]
    fn advance_after_finish_panics() {
        let (mut mem, root) = setup(1);
        let mut b = KernelBuilder::new("nop", 0);
        b.ret(None);
        let ck = Arc::new(compile(&b.finish().unwrap(), &HlsConfig::default()));
        let mut t = HwThread::new(ck, &[], &HwThreadConfig::default(), MasterId(1));
        t.set_context(Asid(1), root);
        let _ = t.advance(&mut mem, Cycle(0), u64::MAX);
        let _ = t.advance(&mut mem, Cycle(0), u64::MAX);
    }

    /// `dst[i] = src[i] + 1` for `i in 0..n`; returns `Σ src[i]`.
    fn vecadd_sum() -> Kernel {
        let mut b = KernelBuilder::new("vecadd_sum", 3);
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
        b.finish().unwrap()
    }

    /// How a thread run in fixed-budget advances ended.
    struct Sliced {
        end: Cycle,
        ret: Option<i64>,
        stats: StatSet,
        /// Advances that stopped on the budget.
        yields: u64,
        /// Whether some advance stopped right after a load, a store, and a
        /// block change, in that order.
        stopped_after: [bool; 3],
    }

    /// Runs `vecadd_sum` over `n` elements to completion in `budget`-cycle
    /// advances, each resumed where the previous one stopped.
    fn run_sliced(miss_depth: u32, n: u64, budget: u64) -> (Sliced, Vec<u32>) {
        let (mut mem, root) = setup(2);
        for i in 0..n {
            mem.poke_u32(PhysAddr::from_frame(100).offset(4 * i), 3 * i as u32);
        }
        let cfg = HwThreadConfig {
            memif: MemifConfig {
                miss_depth,
                ..Default::default()
            },
        };
        let ck = Arc::new(compile(&vecadd_sum(), &HlsConfig::default()));
        let mut t = HwThread::new(ck, &[0, 4096, n as i64], &cfg, MasterId(1));
        t.set_context(Asid(1), root);
        let stat = |t: &HwThread, k: &str| t.stats().get(k).unwrap() as u64;
        let mut now = Cycle(0);
        let mut yields = 0;
        let mut stopped_after = [false; 3];
        let sliced = loop {
            let (loads, stores) = (stat(&t, "memif.loads"), stat(&t, "memif.stores"));
            let compute = t.core.compute_cycles;
            let first = !t.core.started;
            match t.advance(&mut mem, now, budget) {
                HwStep::Yielded { now: n } => {
                    // Only a costed event moves time, so the event that
                    // spent the budget is the one kind whose count moved;
                    // compute time moves only at block changes after the
                    // first advance's entry charge.
                    let moved = (
                        stat(&t, "memif.loads") - loads,
                        stat(&t, "memif.stores") - stores,
                        t.core.compute_cycles > compute,
                    );
                    match moved {
                        (1, 0, false) => stopped_after[0] = true,
                        (0, 1, false) => stopped_after[1] = true,
                        (0, 0, true) if !first => stopped_after[2] = true,
                        _ => {}
                    }
                    yields += 1;
                    now = n;
                }
                HwStep::Parked { wake } => now = wake,
                HwStep::Finished { ret, now } => {
                    break Sliced {
                        end: now,
                        ret,
                        stats: t.stats(),
                        yields,
                        stopped_after,
                    };
                }
                HwStep::PageFault { fault, .. } => panic!("unexpected fault: {fault}"),
            }
        };
        let dst = (0..n)
            .map(|i| mem.peek_u32(PhysAddr::from_frame(101).offset(4 * i)))
            .collect();
        (sliced, dst)
    }

    #[test]
    fn advance_budget_does_not_change_the_run() {
        // Budget 1 stops after nearly every event, so every hook's stop-
        // and-resume path runs; 17 stops mid-block; u64::MAX never stops.
        let n = 256u64;
        for miss_depth in [1, 4] {
            let (whole, dst) = run_sliced(miss_depth, n, u64::MAX);
            assert_eq!(whole.ret, Some((0..n as i64).map(|i| 3 * i).sum()));
            assert_eq!(dst, (0..n as u32).map(|i| 3 * i + 1).collect::<Vec<_>>());
            assert_eq!(whole.yields, 0);
            for budget in [1, 17] {
                let (sliced, sliced_dst) = run_sliced(miss_depth, n, budget);
                let ctx = format!("miss_depth {miss_depth}, budget {budget}");
                assert_eq!(sliced.end, whole.end, "{ctx}: finish cycle");
                assert_eq!(sliced.ret, whole.ret, "{ctx}: return value");
                assert_eq!(sliced.stats, whole.stats, "{ctx}: stats");
                assert_eq!(sliced_dst, dst, "{ctx}: output");
                assert!(sliced.yields > 1, "{ctx}: never stopped");
                if budget == 1 {
                    assert!(sliced.yields > n, "{ctx}: only {} stops", sliced.yields);
                    assert_eq!(
                        sliced.stopped_after, [true; 3],
                        "{ctx}: stops after [load, store, block change]"
                    );
                }
            }
        }
    }

    #[test]
    fn yield_respects_budget() {
        let (mut mem, root) = setup(8);
        let ck = Arc::new(compile(&vecadd(), &HlsConfig::default()));
        let mut t = HwThread::new(
            ck,
            &[0, 8192, 1024],
            &HwThreadConfig::default(),
            MasterId(1),
        );
        t.set_context(Asid(1), root);
        match t.advance(&mut mem, Cycle(0), 50) {
            HwStep::Yielded { now } => assert!(now >= Cycle(50)),
            other => panic!("expected yield, got {other:?}"),
        }
    }
}

//! The resumable kernel interpreter.
//!
//! One interpreter serves three consumers:
//!
//! * **golden-model runs** ([`run`]) for tests and software references,
//! * the **CPU execution model** in `svmsyn-os`, which costs each
//!   event with a CPI table and a cache model,
//! * the **FSMD execution engine** in `svmsyn-hwt`, which ignores per-op
//!   events and charges schedule-derived block times, but uses the same
//!   memory events — so hardware and software runs are functionally
//!   identical by construction.
//!
//! The interpreter *yields* at every costed operation instead of owning the
//! clock: `next()` returns an [`InterpEvent`]; memory loads pause the machine
//! until the caller supplies data via [`Interp::provide_load`].
//!
//! The two timed executors do not take a yield per event. They pass an
//! [`InterpHooks`] implementation to [`Interp::run_hooked`] (or
//! [`Interp::run_hooked_dep`]), and the dispatch loop calls the hook for
//! every block change, load and store inline; it returns only when a hook
//! stops or declines, or at `Done`. `next`, `next_mem` and `next_mem_dep`
//! are the same loop with hooks that decline every event.
//!
//! Since the pre-decode rework, [`Interp`] executes a flat
//! [`DecodedKernel`] micro-op program (see [`crate::decode`]) instead of
//! walking the IR: one dense array, direct value-table operand indices,
//! phis lowered to edge moves, and free ops folded out of the hot loop. The
//! original IR-walking implementation is retained as
//! [`reference::SlowInterp`] — the oracle the differential tests replay
//! every workload against. The two must yield identical event sequences,
//! return values, and step counts for any verified kernel.

use std::sync::Arc;

use crate::decode::{DecodedKernel, UCode, ValInit, NO_VAL};
use crate::ir::{BinOp, BlockId, Kernel, OpClass, Width};

/// An event yielded by the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpEvent {
    /// A compute operation executed (class given for CPI costing). Free ops
    /// (constants, arguments, phis) execute silently and are never yielded.
    Op(OpClass),
    /// A load was issued; call [`Interp::provide_load`] before `next()`.
    Load {
        /// Virtual byte address.
        addr: u64,
        /// Access width.
        width: Width,
    },
    /// A store was issued; the caller performs the write.
    Store {
        /// Virtual byte address.
        addr: u64,
        /// Access width.
        width: Width,
        /// Raw value truncated to `width`.
        value: u64,
    },
    /// Control transferred between basic blocks (terminator executed).
    BlockChange {
        /// The block just left.
        from: BlockId,
        /// The block just entered.
        to: BlockId,
    },
    /// The kernel returned.
    Done {
        /// The return value, if any.
        ret: Option<i64>,
    },
}

/// What an [`InterpHooks`] method did with the event it was handed.
///
/// `T` is what a handled event hands back to the interpreter: the load
/// hook's `(raw data, dependence token)`, nothing for the other hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow<T = ()> {
    /// Handled; keep executing.
    Continue(T),
    /// Handled; return to the caller now (for example, the cycle budget is
    /// spent). A load's data is delivered before the interpreter returns.
    Stop(T),
    /// Not handled: the interpreter yields the event exactly as
    /// [`Interp::next_mem_dep`] would (a declined load leaves the machine
    /// waiting for [`Interp::provide_load_dep`]), and the caller replays it
    /// later.
    Decline,
}

/// Inline handlers for the events of [`Interp::run_hooked`].
///
/// `dep` is the event's dependence token, as
/// [`next_mem_dep`](Interp::next_mem_dep) reports it; it is always `0`
/// under [`run_hooked`](Interp::run_hooked), which does not track
/// dependences. `Done` has no hook: it always ends the run.
pub trait InterpHooks {
    /// Control moved from block `from` to block `to`.
    fn block_change(&mut self, from: BlockId, to: BlockId, dep: u32) -> Flow;
    /// A load of `width` bytes at `addr`. A handled load hands back the raw
    /// little-endian data and its dependence token, as for
    /// [`Interp::provide_load_dep`].
    fn load(&mut self, addr: u64, width: Width, dep: u32) -> Flow<(u64, u32)>;
    /// A store of `value` (already truncated to `width`) at `addr`.
    fn store(&mut self, addr: u64, width: Width, value: u64, dep: u32) -> Flow;
}

/// The hooks behind `next`, `next_mem` and `next_mem_dep`: every event is
/// declined, so each one is yielded to the caller.
struct YieldAll;

impl InterpHooks for YieldAll {
    fn block_change(&mut self, _: BlockId, _: BlockId, _: u32) -> Flow {
        Flow::Decline
    }

    fn load(&mut self, _: u64, _: Width, _: u32) -> Flow<(u64, u32)> {
        Flow::Decline
    }

    fn store(&mut self, _: u64, _: Width, _: u64, _: u32) -> Flow {
        Flow::Decline
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    AwaitLoad,
    Finished,
}

/// The resumable interpreter over a pre-decoded kernel.
///
/// # Example
///
/// ```
/// use svmsyn_hls::builder::KernelBuilder;
/// use svmsyn_hls::ir::BinOp;
/// use svmsyn_hls::interp::{Interp, InterpEvent};
///
/// let mut b = KernelBuilder::new("add", 2);
/// let x = b.arg(0);
/// let y = b.arg(1);
/// let s = b.bin(BinOp::Add, x, y);
/// b.ret(Some(s));
/// let k = b.finish().unwrap();
///
/// let mut i = Interp::new(std::sync::Arc::new(k), &[2, 40]);
/// loop {
///     match i.next() {
///         InterpEvent::Done { ret } => {
///             assert_eq!(ret, Some(42));
///             break;
///         }
///         _ => {}
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Interp {
    prog: Arc<DecodedKernel>,
    vals: Vec<i64>,
    pc: u32,
    pending_load: Option<(u32, Width)>,
    state: State,
    steps: u64,
    step_limit: u64,
    /// Per-value dependence tags for hit-under-miss timing (see
    /// [`next_mem_dep`](Self::next_mem_dep)): `poison[v]` is the caller's
    /// token for the youngest outstanding load `v` transitively depends on,
    /// `0` when clean. Empty until dependence tracking is first requested —
    /// the plain `next`/`next_mem` paths never touch it.
    poison: Vec<u32>,
    /// Pending control dependence: the poison of the last executed
    /// `Branch`'s condition, delivered with the next `BlockChange`.
    ctrl_poison: u32,
}

impl Interp {
    /// Starts a run with the given arguments, decoding the kernel first.
    ///
    /// Callers that run the same kernel repeatedly should decode once with
    /// [`DecodedKernel::decode`] and use [`Interp::from_decoded`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `args.len()` differs from the kernel's declared count.
    pub fn new(kernel: Arc<Kernel>, args: &[i64]) -> Self {
        Self::from_decoded(Arc::new(DecodedKernel::decode(&kernel)), args)
    }

    /// Starts a run over an already-decoded program (the hot path: decode
    /// once, run many times).
    ///
    /// # Panics
    ///
    /// Panics if `args.len()` differs from the kernel's declared count.
    pub fn from_decoded(prog: Arc<DecodedKernel>, args: &[i64]) -> Self {
        assert_eq!(
            args.len(),
            prog.num_args() as usize,
            "kernel {} expects {} args",
            prog.name(),
            prog.num_args()
        );
        let mut vals = vec![0i64; prog.nvals()];
        for &(v, init) in prog.init() {
            vals[v as usize] = match init {
                ValInit::Const(c) => c,
                ValInit::Arg(n) => args[n as usize],
            };
        }
        let entry_pc = prog.entry_pc();
        Interp {
            prog,
            vals,
            pc: entry_pc,
            pending_load: None,
            state: State::Running,
            steps: 0,
            step_limit: u64::MAX,
            poison: Vec::new(),
            ctrl_poison: 0,
        }
    }

    /// The decoded program this interpreter executes.
    pub fn decoded(&self) -> &Arc<DecodedKernel> {
        &self.prog
    }

    /// Caps the number of executed instructions (defaults to unlimited).
    ///
    /// Exceeding the cap panics — it indicates a non-terminating kernel in a
    /// test, not a recoverable condition. Counting is in source-IR
    /// instructions (free ops included), the same units as [`steps`][Self::steps];
    /// because folded free ops are charged in batches, the panic may trigger
    /// on the micro-op that crosses the cap rather than the exact free op.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Source-IR instructions executed so far (free ops included).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The current value of `v` (primarily for tests/debugging).
    ///
    /// Constants and arguments are pre-initialized at launch, so their
    /// values are visible even before "executing".
    pub fn value(&self, v: crate::ir::Value) -> i64 {
        self.vals[v.0 as usize]
    }

    /// Supplies the raw data for the pending load.
    ///
    /// # Panics
    ///
    /// Panics if no load is pending.
    pub fn provide_load(&mut self, raw: u64) {
        self.provide_load_dep(raw, 0);
    }

    /// Supplies the pending load's data *and* its dependence token: `token`
    /// is the caller's handle for the load's outstanding fill (`0` = data
    /// already in hand). The token poisons the destination slot and
    /// propagates through every computation that consumes it, so later
    /// events report (via [`next_mem_dep`](Self::next_mem_dep)) exactly
    /// which outstanding miss they must wait for.
    ///
    /// # Panics
    ///
    /// Panics if no load is pending.
    pub fn provide_load_dep(&mut self, raw: u64, token: u32) {
        let (dst, width) = self
            .pending_load
            .take()
            .expect("provide_load called with no pending load");
        deliver(&mut self.vals, &mut self.poison, dst, width, raw, token);
        self.state = State::Running;
    }

    /// Executes until the next costed event.
    ///
    /// # Panics
    ///
    /// Panics if called while a load is pending, after `Done`, or when the
    /// step limit is exceeded.
    #[allow(clippy::should_implement_trait)] // established API; not an Iterator
    pub fn next(&mut self) -> InterpEvent {
        self.yield_next::<true, false>().0
    }

    /// Like [`next`][Self::next], but executes compute operations silently:
    /// only `Load`/`Store`/`BlockChange`/`Done` are yielded, never
    /// [`InterpEvent::Op`]. Values, memory events, and step counts are
    /// identical to driving [`next`][Self::next] and discarding the `Op`
    /// yields. The timed executors charge compute per block, not per op,
    /// and take these events through [`run_hooked`][Self::run_hooked]
    /// instead of one yield each.
    pub fn next_mem(&mut self) -> InterpEvent {
        self.yield_next::<false, false>().0
    }

    /// Like [`next_mem`][Self::next_mem], but additionally reports the
    /// event's **dependence token**: the caller-assigned token (see
    /// [`provide_load_dep`](Self::provide_load_dep)) of the youngest
    /// outstanding load this event transitively depends on, or `0` if it
    /// depends on no outstanding data. Dependences are exact, derived from
    /// the micro-op operand graph:
    ///
    /// * a `Load`'s token is its *address* operand's;
    /// * a `Store`'s is the max of its address and data operands';
    /// * a `BlockChange` carries the condition poison of the branch that
    ///   chose it (control dependence) — unconditional jumps are clean;
    /// * `Done` carries the return value's poison.
    ///
    /// Tokens must be assigned in monotonically increasing order, so "max"
    /// selects the youngest dependence. Event sequences and values are
    /// identical to [`next_mem`][Self::next_mem]; only the token is extra.
    pub fn next_mem_dep(&mut self) -> (InterpEvent, u32) {
        self.track_deps();
        self.yield_next::<false, true>()
    }

    /// Executes like [`next_mem`][Self::next_mem], but hands every block
    /// change, load and store to `hooks` inline instead of yielding it.
    ///
    /// Returns `None` when a hook answered [`Flow::Stop`]; otherwise the
    /// event that ended the run and its dependence token (always `0` here):
    /// an event a hook declined, or `Done`. A declined event leaves the
    /// machine exactly where [`next_mem`][Self::next_mem] would after
    /// yielding it, so the caller may replay it through the same hook and,
    /// for a load, [`provide_load_dep`](Self::provide_load_dep).
    ///
    /// # Panics
    ///
    /// As [`next`][Self::next].
    pub fn run_hooked<H: InterpHooks>(&mut self, hooks: &mut H) -> Option<(InterpEvent, u32)> {
        self.dispatch::<H, false, false>(hooks)
    }

    /// [`run_hooked`][Self::run_hooked] with dependence tracking: each hook
    /// receives the dependence token [`next_mem_dep`][Self::next_mem_dep]
    /// would report for its event, and a load hook's token poisons the
    /// loaded value as [`provide_load_dep`](Self::provide_load_dep) does.
    ///
    /// # Panics
    ///
    /// As [`next`][Self::next].
    pub fn run_hooked_dep<H: InterpHooks>(&mut self, hooks: &mut H) -> Option<(InterpEvent, u32)> {
        self.track_deps();
        self.dispatch::<H, false, true>(hooks)
    }

    /// Allocates the poison table on the first dependence-tracking call.
    fn track_deps(&mut self) {
        if self.poison.is_empty() {
            self.poison = vec![0; self.vals.len().max(1)];
        }
    }

    /// One yielded event: the dispatch loop with every event declined.
    fn yield_next<const YIELD_OPS: bool, const TRACK: bool>(&mut self) -> (InterpEvent, u32) {
        self.dispatch::<YieldAll, YIELD_OPS, TRACK>(&mut YieldAll)
            .expect("declining hooks never stop")
    }

    /// The dispatch loop. Returns `None` when a hook stops, otherwise the
    /// yielded event and its dependence token.
    fn dispatch<H: InterpHooks, const YIELD_OPS: bool, const TRACK: bool>(
        &mut self,
        hooks: &mut H,
    ) -> Option<(InterpEvent, u32)> {
        // Driver-contract panics, not workload-reachable: the executors
        // (HwThread, SwExec) always provide a pending load before stepping
        // again and stop at `Done`; no kernel content can trigger these.
        match self.state {
            State::AwaitLoad => panic!("next() called with a pending load"),
            State::Finished => panic!("next() called after Done"),
            State::Running => {}
        }
        // Destructure into disjoint borrows so the dispatch loop runs over a
        // directly-held uop slice and value table, with pc/steps hoisted
        // into locals (written back whenever the loop returns).
        let Interp {
            prog,
            vals,
            pc,
            pending_load,
            state,
            steps,
            step_limit,
            poison,
            ctrl_poison,
        } = self;
        let uops = prog.uops();
        let vals = vals.as_mut_slice();
        let poison = poison.as_mut_slice();
        let mut pcv = *pc;
        let mut stepsv = *steps;
        let mut ctrlv = *ctrl_poison;
        macro_rules! leave {
            ($out:expr) => {{
                *pc = pcv;
                *steps = stepsv;
                *ctrl_poison = ctrlv;
                return $out;
            }};
        }
        macro_rules! yield_ev {
            ($ev:expr) => {
                yield_ev!($ev, 0)
            };
            ($ev:expr, $dep:expr) => {
                leave!(Some(($ev, $dep)))
            };
        }
        macro_rules! bin {
            ($u:ident, $class:expr, $f:expr) => {{
                let a = vals[$u.a as usize];
                let b = vals[$u.b as usize];
                vals[$u.dst as usize] = $f(a, b);
                if TRACK {
                    poison[$u.dst as usize] = poison[$u.a as usize].max(poison[$u.b as usize]);
                }
                if YIELD_OPS {
                    yield_ev!(InterpEvent::Op($class));
                }
            }};
        }
        macro_rules! cmp {
            ($u:ident, $f:expr) => {{
                let a = vals[$u.a as usize];
                let b = vals[$u.b as usize];
                vals[$u.dst as usize] = $f(a, b) as i64;
                if TRACK {
                    poison[$u.dst as usize] = poison[$u.a as usize].max(poison[$u.b as usize]);
                }
                if YIELD_OPS {
                    yield_ev!(InterpEvent::Op(OpClass::Alu));
                }
            }};
        }
        loop {
            // `MicroOp` is a 20-byte `Copy` record: copying it out keeps the
            // borrow checker away from the value-table writes below.
            let u = uops[pcv as usize];
            pcv += 1;
            if u.steps != 0 {
                stepsv += u.steps as u64;
                assert!(
                    stepsv <= *step_limit,
                    "kernel {} exceeded the step limit of {}",
                    prog.name(),
                    step_limit
                );
            }
            match u.code {
                UCode::Add => bin!(u, OpClass::Alu, i64::wrapping_add),
                UCode::Sub => bin!(u, OpClass::Alu, i64::wrapping_sub),
                UCode::Mul => bin!(u, OpClass::Mul, i64::wrapping_mul),
                UCode::Div => bin!(u, OpClass::Div, |a, b| BinOp::Div.eval(a, b)),
                UCode::Rem => bin!(u, OpClass::Div, |a, b| BinOp::Rem.eval(a, b)),
                UCode::And => bin!(u, OpClass::Alu, |a, b| a & b),
                UCode::Or => bin!(u, OpClass::Alu, |a, b| a | b),
                UCode::Xor => bin!(u, OpClass::Alu, |a, b| a ^ b),
                UCode::Shl => bin!(
                    u,
                    OpClass::Alu,
                    |a: i64, b: i64| ((a as u64) << (b as u64 & 63)) as i64
                ),
                UCode::Shr => bin!(
                    u,
                    OpClass::Alu,
                    |a: i64, b: i64| ((a as u64) >> (b as u64 & 63)) as i64
                ),
                UCode::Sra => bin!(u, OpClass::Alu, |a: i64, b: i64| a >> (b as u64 & 63)),
                UCode::Min => bin!(u, OpClass::Alu, i64::min),
                UCode::Max => bin!(u, OpClass::Alu, i64::max),
                UCode::CmpEq => cmp!(u, |a, b| a == b),
                UCode::CmpNe => cmp!(u, |a, b| a != b),
                UCode::CmpLt => cmp!(u, |a, b| a < b),
                UCode::CmpLe => cmp!(u, |a, b| a <= b),
                UCode::CmpGt => cmp!(u, |a, b| a > b),
                UCode::CmpGe => cmp!(u, |a, b| a >= b),
                UCode::CmpUlt => cmp!(u, |a: i64, b: i64| (a as u64) < (b as u64)),
                UCode::CmpUle => cmp!(u, |a: i64, b: i64| (a as u64) <= (b as u64)),
                UCode::Select => {
                    vals[u.dst as usize] = if vals[u.c as usize] != 0 {
                        vals[u.a as usize]
                    } else {
                        vals[u.b as usize]
                    };
                    if TRACK {
                        poison[u.dst as usize] = poison[u.c as usize]
                            .max(poison[u.a as usize])
                            .max(poison[u.b as usize]);
                    }
                    if YIELD_OPS {
                        yield_ev!(InterpEvent::Op(OpClass::Alu));
                    }
                }
                UCode::Load => {
                    let addr = vals[u.a as usize] as u64;
                    let dep = if TRACK { poison[u.a as usize] } else { 0 };
                    match hooks.load(addr, u.width, dep) {
                        Flow::Continue((raw, token)) => {
                            deliver(vals, poison, u.dst, u.width, raw, token);
                        }
                        Flow::Stop((raw, token)) => {
                            deliver(vals, poison, u.dst, u.width, raw, token);
                            leave!(None);
                        }
                        Flow::Decline => {
                            *pending_load = Some((u.dst, u.width));
                            *state = State::AwaitLoad;
                            yield_ev!(
                                InterpEvent::Load {
                                    addr,
                                    width: u.width,
                                },
                                dep
                            );
                        }
                    }
                }
                UCode::Store => {
                    let dep = if TRACK {
                        poison[u.a as usize].max(poison[u.b as usize])
                    } else {
                        0
                    };
                    let addr = vals[u.a as usize] as u64;
                    let value = u.width.truncate(vals[u.b as usize]);
                    match hooks.store(addr, u.width, value, dep) {
                        Flow::Continue(()) => {}
                        Flow::Stop(()) => leave!(None),
                        Flow::Decline => yield_ev!(
                            InterpEvent::Store {
                                addr,
                                width: u.width,
                                value,
                            },
                            dep
                        ),
                    }
                }
                UCode::Move => {
                    vals[u.dst as usize] = vals[u.a as usize];
                    if TRACK {
                        poison[u.dst as usize] = poison[u.a as usize];
                    }
                }
                UCode::Jump => {
                    pcv = u.dst;
                    // The branch that selected this edge (if any) left its
                    // condition poison pending: this BlockChange is where
                    // the control dependence surfaces, then it is spent.
                    let dep = ctrlv;
                    ctrlv = 0;
                    let (from, to) = (BlockId(u.a), BlockId(u.b));
                    match hooks.block_change(from, to, dep) {
                        Flow::Continue(()) => {}
                        Flow::Stop(()) => leave!(None),
                        Flow::Decline => yield_ev!(InterpEvent::BlockChange { from, to }, dep),
                    }
                }
                UCode::Branch => {
                    pcv = if vals[u.c as usize] != 0 { u.dst } else { u.a };
                    if TRACK {
                        ctrlv = ctrlv.max(poison[u.c as usize]);
                    }
                }
                UCode::Ret => {
                    *state = State::Finished;
                    let (ret, dep) = if u.a == NO_VAL {
                        (None, 0)
                    } else {
                        (
                            Some(vals[u.a as usize]),
                            if TRACK { poison[u.a as usize] } else { 0 },
                        )
                    };
                    yield_ev!(InterpEvent::Done { ret }, dep);
                }
                UCode::Nop => {}
            }
        }
    }
}

/// Writes a load's data into its destination slot and, when dependences
/// are tracked, its token into the slot's poison.
#[inline(always)]
fn deliver(vals: &mut [i64], poison: &mut [u32], dst: u32, width: Width, raw: u64, token: u32) {
    vals[dst as usize] = width.sign_extend(raw);
    if !poison.is_empty() {
        poison[dst as usize] = token;
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl svmsyn_snap::Snap for InterpEvent {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        match *self {
            InterpEvent::Op(class) => {
                w.put_u8(0);
                class.save(w);
            }
            InterpEvent::Load { addr, width } => {
                w.put_u8(1);
                w.put_u64(addr);
                width.save(w);
            }
            InterpEvent::Store { addr, width, value } => {
                w.put_u8(2);
                w.put_u64(addr);
                width.save(w);
                w.put_u64(value);
            }
            InterpEvent::BlockChange { from, to } => {
                w.put_u8(3);
                from.save(w);
                to.save(w);
            }
            InterpEvent::Done { ret } => {
                w.put_u8(4);
                ret.save(w);
            }
        }
    }

    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        Ok(match r.take_u8()? {
            0 => InterpEvent::Op(OpClass::load(r)?),
            1 => InterpEvent::Load {
                addr: r.take_u64()?,
                width: Width::load(r)?,
            },
            2 => InterpEvent::Store {
                addr: r.take_u64()?,
                width: Width::load(r)?,
                value: r.take_u64()?,
            },
            3 => InterpEvent::BlockChange {
                from: BlockId::load(r)?,
                to: BlockId::load(r)?,
            },
            4 => InterpEvent::Done {
                ret: Option::load(r)?,
            },
            _ => return Err(svmsyn_snap::SnapError::Corrupt("interp-event tag")),
        })
    }
}

impl Interp {
    /// Serializes the machine registers: the value table, program counter,
    /// pending load (if any), run state, step accounting, and dependence
    /// poison. The decoded program is *not* captured — it is a pure function
    /// of the design and is re-supplied at restore.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        self.vals.save(w);
        w.put_u32(self.pc);
        self.pending_load.save(w);
        w.put_u8(match self.state {
            State::Running => 0,
            State::AwaitLoad => 1,
            State::Finished => 2,
        });
        w.put_u64(self.steps);
        w.put_u64(self.step_limit);
        // Emptiness is meaningful: the poison table is lazily allocated on
        // the first `next_mem_dep` call, so an empty vector must round-trip
        // as empty to keep re-snapshots byte-identical.
        self.poison.save(w);
        w.put_u32(self.ctrl_poison);
    }

    /// Rebuilds an interpreter captured by [`save_state`](Self::save_state)
    /// over the design's decoded program.
    pub fn restore_state(
        prog: Arc<DecodedKernel>,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::{Snap, SnapError};
        let vals: Vec<i64> = Vec::load(r)?;
        if vals.len() != prog.nvals() {
            return Err(SnapError::Corrupt("interpreter value-table size"));
        }
        let pc = r.take_u32()?;
        // `pc == uops.len()` is legitimate: the counter is saved already
        // advanced past the yielding uop, so a `Ret` as the final uop
        // parks a finished interpreter exactly one past the end.
        if (pc as usize) > prog.uops().len() {
            return Err(SnapError::Corrupt("interpreter program counter"));
        }
        let pending_load: Option<(u32, Width)> = Snap::load(r)?;
        if let Some((dst, _)) = pending_load {
            if dst as usize >= vals.len() {
                return Err(SnapError::Corrupt("pending-load destination"));
            }
        }
        let state = match r.take_u8()? {
            0 => State::Running,
            1 => State::AwaitLoad,
            2 => State::Finished,
            _ => return Err(SnapError::Corrupt("interpreter state tag")),
        };
        if pending_load.is_some() != (state == State::AwaitLoad) {
            return Err(SnapError::Corrupt("pending load vs interpreter state"));
        }
        let steps = r.take_u64()?;
        let step_limit = r.take_u64()?;
        let poison: Vec<u32> = Vec::load(r)?;
        if !poison.is_empty() && poison.len() != vals.len().max(1) {
            return Err(SnapError::Corrupt("poison table size"));
        }
        let ctrl_poison = r.take_u32()?;
        Ok(Interp {
            prog,
            vals,
            pc,
            pending_load,
            state,
            steps,
            step_limit,
            poison,
            ctrl_poison,
        })
    }
}

/// The retained IR-walking interpreter, kept as the differential oracle.
pub mod reference {
    use std::sync::Arc;

    use super::{InterpEvent, State};
    use crate::ir::{BlockId, Kernel, Op, OpClass, Terminator, Value, Width};

    /// The original resumable interpreter: walks the IR block-by-block,
    /// re-interpreting each [`Op`] on every execution. Slower than
    /// [`Interp`](super::Interp) by design — it exists so differential tests
    /// can replay workloads on both engines and assert identical event
    /// traces, return values, and step counts.
    #[derive(Debug, Clone)]
    pub struct SlowInterp {
        kernel: Arc<Kernel>,
        args: Vec<i64>,
        vals: Vec<i64>,
        cur: BlockId,
        idx: usize,
        pending_load: Option<(Value, Width)>,
        state: State,
        steps: u64,
        step_limit: u64,
    }

    impl SlowInterp {
        /// Starts a run with the given arguments.
        ///
        /// # Panics
        ///
        /// Panics if `args.len()` differs from the kernel's declared count.
        pub fn new(kernel: Arc<Kernel>, args: &[i64]) -> Self {
            assert_eq!(
                args.len(),
                kernel.num_args as usize,
                "kernel {} expects {} args",
                kernel.name,
                kernel.num_args
            );
            let nvals = kernel.instrs.len();
            let entry = kernel.entry;
            SlowInterp {
                kernel,
                args: args.to_vec(),
                vals: vec![0; nvals],
                cur: entry,
                idx: 0,
                pending_load: None,
                state: State::Running,
                steps: 0,
                step_limit: u64::MAX,
            }
        }

        /// Caps the number of executed instructions (defaults to unlimited).
        pub fn set_step_limit(&mut self, limit: u64) {
            self.step_limit = limit;
        }

        /// Instructions executed so far.
        pub fn steps(&self) -> u64 {
            self.steps
        }

        /// The current value of `v` (primarily for tests/debugging).
        pub fn value(&self, v: Value) -> i64 {
            self.vals[v.0 as usize]
        }

        /// Supplies the raw data for the pending load.
        ///
        /// # Panics
        ///
        /// Panics if no load is pending.
        pub fn provide_load(&mut self, raw: u64) {
            let (v, width) = self
                .pending_load
                .take()
                .expect("provide_load called with no pending load");
            self.vals[v.0 as usize] = width.sign_extend(raw);
            self.state = State::Running;
        }

        fn transition(&mut self, to: BlockId) {
            // Evaluate all phis of `to` in parallel over the edge `cur -> to`.
            let from = self.cur;
            let kernel = Arc::clone(&self.kernel);
            let block = kernel.block(to);
            let mut updates: Vec<(Value, i64)> = Vec::new();
            for &v in &block.instrs {
                match &kernel.instr(v).op {
                    Op::Phi(incoming) => {
                        // Unreachable for verified IR: `verify()` rejects
                        // phi edge sets that differ from the predecessor
                        // set, and kernels reach interpreters only through
                        // `KernelBuilder::finish` or application
                        // validation, both of which verify.
                        let src = incoming
                            .iter()
                            .find(|(p, _)| *p == from)
                            .map(|(_, val)| *val)
                            .unwrap_or_else(|| panic!("phi {v} has no edge from {from}"));
                        updates.push((v, self.vals[src.0 as usize]));
                    }
                    _ => break, // phis are a prefix of the block
                }
            }
            for (v, val) in updates {
                self.vals[v.0 as usize] = val;
            }
            self.cur = to;
            self.idx = 0;
        }

        /// Executes until the next costed event.
        ///
        /// # Panics
        ///
        /// Panics if called while a load is pending, after `Done`, or when
        /// the step limit is exceeded.
        #[allow(clippy::should_implement_trait)] // established API; not an Iterator
        pub fn next(&mut self) -> InterpEvent {
            match self.state {
                State::AwaitLoad => panic!("next() called with a pending load"),
                State::Finished => panic!("next() called after Done"),
                State::Running => {}
            }
            let kernel = Arc::clone(&self.kernel);
            loop {
                let block = kernel.block(self.cur);
                if self.idx < block.instrs.len() {
                    let v = block.instrs[self.idx];
                    self.idx += 1;
                    self.steps += 1;
                    assert!(
                        self.steps <= self.step_limit,
                        "kernel {} exceeded the step limit of {}",
                        self.kernel.name,
                        self.step_limit
                    );
                    let op = &kernel.instr(v).op;
                    match op {
                        Op::Const(c) => {
                            self.vals[v.0 as usize] = *c;
                        }
                        Op::Arg(n) => {
                            self.vals[v.0 as usize] = self.args[*n as usize];
                        }
                        Op::Phi(_) => {
                            // Assigned during transition; at kernel start an
                            // entry-block phi reads 0 (documented).
                        }
                        Op::Bin(bop, a, b) => {
                            self.vals[v.0 as usize] =
                                bop.eval(self.vals[a.0 as usize], self.vals[b.0 as usize]);
                            return InterpEvent::Op(op.class());
                        }
                        Op::Cmp(cop, a, b) => {
                            self.vals[v.0 as usize] =
                                cop.eval(self.vals[a.0 as usize], self.vals[b.0 as usize]);
                            return InterpEvent::Op(OpClass::Alu);
                        }
                        Op::Select(c, a, b) => {
                            self.vals[v.0 as usize] = if self.vals[c.0 as usize] != 0 {
                                self.vals[a.0 as usize]
                            } else {
                                self.vals[b.0 as usize]
                            };
                            return InterpEvent::Op(OpClass::Alu);
                        }
                        Op::Load { addr, width } => {
                            self.pending_load = Some((v, *width));
                            self.state = State::AwaitLoad;
                            return InterpEvent::Load {
                                addr: self.vals[addr.0 as usize] as u64,
                                width: *width,
                            };
                        }
                        Op::Store { addr, value, width } => {
                            return InterpEvent::Store {
                                addr: self.vals[addr.0 as usize] as u64,
                                width: *width,
                                value: width.truncate(self.vals[value.0 as usize]),
                            };
                        }
                    }
                } else {
                    match &block.term {
                        Terminator::Jump(t) => {
                            let from = self.cur;
                            self.transition(*t);
                            return InterpEvent::BlockChange { from, to: *t };
                        }
                        Terminator::Branch {
                            cond,
                            then_to,
                            else_to,
                        } => {
                            let from = self.cur;
                            let to = if self.vals[cond.0 as usize] != 0 {
                                *then_to
                            } else {
                                *else_to
                            };
                            self.transition(to);
                            return InterpEvent::BlockChange { from, to };
                        }
                        Terminator::Return(v) => {
                            self.state = State::Finished;
                            return InterpEvent::Done {
                                ret: v.map(|v| self.vals[v.0 as usize]),
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Functional memory for golden-model runs.
pub trait DataPort {
    /// Reads `width` bytes (little-endian, zero-extended into the result).
    fn read(&mut self, addr: u64, width: Width) -> u64;
    /// Writes the low `width` bytes of `raw` (little-endian).
    fn write(&mut self, addr: u64, width: Width, raw: u64);
}

/// A flat byte buffer as a [`DataPort`]; addresses index the slice directly.
#[derive(Debug)]
pub struct SliceMemory<'a>(pub &'a mut [u8]);

impl DataPort for SliceMemory<'_> {
    fn read(&mut self, addr: u64, width: Width) -> u64 {
        let a = addr as usize;
        let n = width.bytes() as usize;
        let mut raw = [0u8; 8];
        raw[..n].copy_from_slice(&self.0[a..a + n]);
        u64::from_le_bytes(raw)
    }

    fn write(&mut self, addr: u64, width: Width, raw: u64) {
        let a = addr as usize;
        let n = width.bytes() as usize;
        self.0[a..a + n].copy_from_slice(&raw.to_le_bytes()[..n]);
    }
}

/// Aggregate results of a functional run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Return value, if the kernel returned one.
    pub ret: Option<i64>,
    /// Instructions executed (free ops included).
    pub instrs: u64,
    /// Loads performed.
    pub loads: u64,
    /// Stores performed.
    pub stores: u64,
    /// Block transitions taken.
    pub branches: u64,
    /// Counts of yielded ALU / MUL / DIV ops.
    pub alu_ops: u64,
    /// Multiplier operations.
    pub mul_ops: u64,
    /// Divider operations.
    pub div_ops: u64,
}

/// Runs a kernel to completion against `port`.
///
/// # Panics
///
/// Panics if the kernel exceeds `step_limit` instructions.
pub fn run(kernel: &Kernel, args: &[i64], port: &mut dyn DataPort, step_limit: u64) -> RunSummary {
    let mut interp = Interp::new(Arc::new(kernel.clone()), args);
    interp.set_step_limit(step_limit);
    let mut s = RunSummary::default();
    loop {
        match interp.next() {
            InterpEvent::Op(OpClass::Alu) => s.alu_ops += 1,
            InterpEvent::Op(OpClass::Mul) => s.mul_ops += 1,
            InterpEvent::Op(OpClass::Div) => s.div_ops += 1,
            InterpEvent::Op(_) => {}
            InterpEvent::Load { addr, width } => {
                s.loads += 1;
                let raw = port.read(addr, width);
                interp.provide_load(raw);
            }
            InterpEvent::Store { addr, width, value } => {
                s.stores += 1;
                port.write(addr, width, value);
            }
            InterpEvent::BlockChange { .. } => s.branches += 1,
            InterpEvent::Done { ret } => {
                s.ret = ret;
                s.instrs = interp.steps();
                return s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::SlowInterp;
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::{BinOp, CmpOp};

    fn sum_kernel() -> Kernel {
        // sum(base, n) over i32 array
        let mut b = KernelBuilder::new("sum", 2);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let base = b.arg(0);
        let n = b.arg(1);
        let zero = b.constant(0);
        let four = b.constant(4);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi();
        let acc = b.phi();
        let cont = b.cmp(CmpOp::Lt, i, n);
        b.branch(cont, body, exit);
        b.switch_to(body);
        let off = b.bin(BinOp::Mul, i, four);
        let addr = b.bin(BinOp::Add, base, off);
        let elem = b.load(addr, Width::W32);
        let acc2 = b.bin(BinOp::Add, acc, elem);
        let one = b.constant(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.set_phi_incoming(acc, &[(entry, zero), (body, acc2)]);
        b.finish().unwrap()
    }

    #[test]
    fn straight_line_return() {
        let mut b = KernelBuilder::new("k", 2);
        let x = b.arg(0);
        let y = b.arg(1);
        let m = b.bin(BinOp::Mul, x, y);
        b.ret(Some(m));
        let k = b.finish().unwrap();
        let mut buf = [0u8; 0];
        let s = run(&k, &[6, 7], &mut SliceMemory(&mut buf), 1000);
        assert_eq!(s.ret, Some(42));
        assert_eq!(s.mul_ops, 1);
    }

    #[test]
    fn loop_sums_memory() {
        let k = sum_kernel();
        let mut buf = vec![0u8; 64];
        for i in 0..16u32 {
            buf[(i * 4) as usize..(i * 4 + 4) as usize].copy_from_slice(&(i as i32).to_le_bytes());
        }
        let s = run(&k, &[0, 16], &mut SliceMemory(&mut buf), 100_000);
        assert_eq!(s.ret, Some((0..16).sum::<i64>()));
        assert_eq!(s.loads, 16);
        assert_eq!(s.stores, 0);
        assert!(s.branches >= 17);
    }

    #[test]
    fn negative_values_sign_extend() {
        let k = sum_kernel();
        let mut buf = vec![0u8; 8];
        buf[0..4].copy_from_slice(&(-5i32).to_le_bytes());
        buf[4..8].copy_from_slice(&(3i32).to_le_bytes());
        let s = run(&k, &[0, 2], &mut SliceMemory(&mut buf), 1000);
        assert_eq!(s.ret, Some(-2));
    }

    #[test]
    fn stores_write_through_port() {
        // memset(base, n): store i as i32 at base + 4i
        let mut b = KernelBuilder::new("iota", 2);
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
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let four = b.constant(4);
        let off = b.bin(BinOp::Mul, i, four);
        let addr = b.bin(BinOp::Add, base, off);
        b.store(addr, i, Width::W32);
        let one = b.constant(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        let k = b.finish().unwrap();

        let mut buf = vec![0u8; 40];
        let s = run(&k, &[0, 10], &mut SliceMemory(&mut buf), 10_000);
        assert_eq!(s.stores, 10);
        for i in 0..10i32 {
            let mut w = [0u8; 4];
            w.copy_from_slice(&buf[(i * 4) as usize..(i * 4 + 4) as usize]);
            assert_eq!(i32::from_le_bytes(w), i);
        }
    }

    #[test]
    fn select_picks_branchlessly() {
        let mut b = KernelBuilder::new("max0", 1);
        let x = b.arg(0);
        let zero = b.constant(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let v = b.select(c, x, zero);
        b.ret(Some(v));
        let k = b.finish().unwrap();
        let mut none = [0u8; 0];
        assert_eq!(
            run(&k, &[-5], &mut SliceMemory(&mut none), 100).ret,
            Some(0)
        );
        assert_eq!(run(&k, &[9], &mut SliceMemory(&mut none), 100).ret, Some(9));
    }

    #[test]
    #[should_panic(expected = "step limit")]
    fn infinite_loop_hits_step_limit() {
        let mut b = KernelBuilder::new("spin", 0);
        let l = b.new_block();
        b.jump(l);
        b.switch_to(l);
        let one = b.constant(1);
        let two = b.bin(BinOp::Add, one, one);
        let _ = two;
        b.jump(l);
        let k = b.finish().unwrap();
        let mut none = [0u8; 0];
        run(&k, &[], &mut SliceMemory(&mut none), 100);
    }

    #[test]
    #[should_panic(expected = "pending load")]
    fn next_with_pending_load_panics() {
        let mut b = KernelBuilder::new("l", 1);
        let p = b.arg(0);
        let v = b.load(p, Width::W32);
        b.ret(Some(v));
        let k = b.finish().unwrap();
        let mut i = Interp::new(Arc::new(k), &[0]);
        assert!(matches!(i.next(), InterpEvent::Load { .. }));
        i.next(); // must panic: load not provided
    }

    #[test]
    #[should_panic(expected = "expects 2 args")]
    fn wrong_arg_count_panics() {
        let k = sum_kernel();
        Interp::new(Arc::new(k), &[1]);
    }

    #[test]
    fn phi_swap_is_parallel() {
        // Two phis that swap each other's values each iteration: after an
        // odd number of iterations the values must be exchanged, which only
        // happens with parallel phi evaluation.
        let mut b = KernelBuilder::new("swap", 1);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let n = b.arg(0);
        let zero = b.constant(0);
        let a0 = b.constant(111);
        let b0 = b.constant(222);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi();
        let x = b.phi();
        let y = b.phi();
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let one = b.constant(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        let diff = b.bin(BinOp::Sub, x, y);
        b.ret(Some(diff));
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.set_phi_incoming(x, &[(entry, a0), (body, y)]);
        b.set_phi_incoming(y, &[(entry, b0), (body, x)]);
        let k = b.finish().unwrap();
        let mut none = [0u8; 0];
        // 1 iteration: x=222, y=111 -> diff = 111
        assert_eq!(
            run(&k, &[1], &mut SliceMemory(&mut none), 1000).ret,
            Some(111)
        );
        // 2 iterations: swapped twice -> diff = -111
        assert_eq!(
            run(&k, &[2], &mut SliceMemory(&mut none), 1000).ret,
            Some(-111)
        );
    }

    #[test]
    fn decoded_matches_reference_on_sum() {
        // Quick in-crate oracle check: decoded and reference interpreters
        // agree on yields and results for a loop kernel (including a
        // zero-trip run). The exhaustive trace-equivalence contract —
        // workloads, optimized kernels, property-generated CFGs — lives in
        // `tests/interp_equivalence.rs` at the workspace root.
        let k = sum_kernel();
        let mut buf = vec![0u8; 64];
        for i in 0..16u32 {
            buf[(i * 4) as usize..(i * 4 + 4) as usize]
                .copy_from_slice(&(i as i32).wrapping_mul(3).to_le_bytes());
        }
        for n in [16i64, 0] {
            let mut fast_mem = buf.clone();
            let mut slow_mem = buf.clone();
            let mut fast = Interp::new(Arc::new(k.clone()), &[0, n]);
            let mut slow = SlowInterp::new(Arc::new(k.clone()), &[0, n]);
            loop {
                let ef = fast.next();
                assert_eq!(ef, slow.next());
                assert_eq!(fast.steps(), slow.steps());
                match ef {
                    InterpEvent::Load { addr, width } => {
                        fast.provide_load(SliceMemory(&mut fast_mem).read(addr, width));
                        slow.provide_load(SliceMemory(&mut slow_mem).read(addr, width));
                    }
                    InterpEvent::Done { ret } => {
                        assert_eq!(ret, Some((0..n).sum::<i64>() * 3));
                        break;
                    }
                    _ => {}
                }
            }
            assert_eq!(fast_mem, slow_mem);
        }
    }

    #[test]
    fn dep_tokens_track_data_dependences() {
        // a = load(base); chase = load(a); ind = load(64); store(base, a+ind)
        let mut b = KernelBuilder::new("dep", 1);
        let base = b.arg(0);
        let a = b.load(base, Width::W32);
        let chase = b.load(a, Width::W32); // address depends on `a`
        let ind = b.constant(64);
        let c = b.load(ind, Width::W32); // independent address
        let s = b.bin(BinOp::Add, chase, c);
        b.store(base, s, Width::W32);
        b.ret(None);
        let k = b.finish().unwrap();
        let mut i = Interp::new(Arc::new(k), &[8]);

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::Load { addr: 8, .. }));
        assert_eq!(dep, 0, "first load's address is an argument");
        i.provide_load_dep(16, 7); // outstanding fill, token 7

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::Load { addr: 16, .. }));
        assert_eq!(dep, 7, "pointer chase depends on the outstanding load");
        i.provide_load_dep(5, 9);

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::Load { addr: 64, .. }));
        assert_eq!(dep, 0, "independent stream rides under the miss");
        i.provide_load_dep(3, 0); // a hit: clean

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::Store { value: 8, .. }));
        assert_eq!(dep, 9, "store data depends on the youngest poisoned load");

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::Done { ret: None }));
        assert_eq!(dep, 0);
    }

    #[test]
    fn dep_tokens_track_control_dependences() {
        // if (load(base) != 0) store(base, 1); unconditional jumps clean.
        let mut b = KernelBuilder::new("ctrl", 1);
        let then_b = b.new_block();
        let exit = b.new_block();
        let base = b.arg(0);
        let v = b.load(base, Width::W32);
        let zero = b.constant(0);
        let c = b.cmp(CmpOp::Ne, v, zero);
        b.branch(c, then_b, exit);
        b.switch_to(then_b);
        let one = b.constant(1);
        b.store(base, one, Width::W32);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(v));
        let k = b.finish().unwrap();
        let mut i = Interp::new(Arc::new(k), &[0]);

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::Load { .. }));
        assert_eq!(dep, 0);
        i.provide_load_dep(1, 3);

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::BlockChange { .. }));
        assert_eq!(dep, 3, "taken branch carries the condition's poison");

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::Store { .. }));
        assert_eq!(
            dep, 0,
            "store of a constant to an argument address is clean"
        );

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::BlockChange { .. }));
        assert_eq!(dep, 0, "unconditional jump is control-clean");

        let (ev, dep) = i.next_mem_dep();
        assert!(matches!(ev, InterpEvent::Done { ret: Some(1) }));
        assert_eq!(dep, 3, "return value is the poisoned load");
    }

    /// Hooks that serve each load as `addr + 1` with token 4 and stop after
    /// it, decline every store, and pass block changes.
    #[derive(Default)]
    struct StopDecline {
        seen: Vec<(InterpEvent, u32)>,
    }

    impl InterpHooks for StopDecline {
        fn block_change(&mut self, from: BlockId, to: BlockId, dep: u32) -> Flow {
            self.seen.push((InterpEvent::BlockChange { from, to }, dep));
            Flow::Continue(())
        }

        fn load(&mut self, addr: u64, width: Width, dep: u32) -> Flow<(u64, u32)> {
            self.seen.push((InterpEvent::Load { addr, width }, dep));
            Flow::Stop((addr + 1, 4))
        }

        fn store(&mut self, _: u64, _: Width, _: u64, _: u32) -> Flow {
            Flow::Decline
        }
    }

    #[test]
    fn hooks_stop_after_delivery_and_decline_like_a_yield() {
        // if (load(base) != 0) store(base, 1); return the loaded value.
        let mut b = KernelBuilder::new("ctrl", 1);
        let then_b = b.new_block();
        let exit = b.new_block();
        let base = b.arg(0);
        let v = b.load(base, Width::W32);
        let zero = b.constant(0);
        let c = b.cmp(CmpOp::Ne, v, zero);
        b.branch(c, then_b, exit);
        b.switch_to(then_b);
        let one = b.constant(1);
        b.store(base, one, Width::W32);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(v));
        let k = Arc::new(b.finish().unwrap());
        let mut hooked = Interp::new(Arc::clone(&k), &[8]);
        let mut yielded = Interp::new(k, &[8]);
        let mut h = StopDecline::default();

        // A stopped load is delivered, value and token, before returning.
        assert_eq!(hooked.run_hooked_dep(&mut h), None);
        assert_eq!(hooked.value(v), 9);
        assert_eq!(yielded.next_mem_dep().0, h.seen[0].0);
        yielded.provide_load_dep(9, 4);

        // The block change passes with the branch's token; the store is
        // declined and yielded exactly as next_mem_dep reports it.
        let declined = hooked.run_hooked_dep(&mut h);
        assert_eq!(h.seen[1], yielded.next_mem_dep());
        assert_eq!(declined, Some(yielded.next_mem_dep()));
        assert!(matches!(
            declined,
            Some((
                InterpEvent::Store {
                    addr: 8,
                    value: 1,
                    ..
                },
                0
            ))
        ));
        assert_eq!(hooked.steps(), yielded.steps());

        // A declined store needs no replay call; the run goes on to Done.
        assert_eq!(h.seen.len(), 2);
        let done = hooked.run_hooked_dep(&mut h);
        assert_eq!(h.seen[2], yielded.next_mem_dep());
        assert_eq!(done, Some(yielded.next_mem_dep()));
        assert_eq!(done, Some((InterpEvent::Done { ret: Some(9) }, 4)));
        assert_eq!(hooked.steps(), yielded.steps());
    }

    #[test]
    #[should_panic(expected = "pending load")]
    fn declined_load_awaits_its_data() {
        struct DeclineLoads;
        impl InterpHooks for DeclineLoads {
            fn block_change(&mut self, _: BlockId, _: BlockId, _: u32) -> Flow {
                Flow::Continue(())
            }
            fn load(&mut self, _: u64, _: Width, _: u32) -> Flow<(u64, u32)> {
                Flow::Decline
            }
            fn store(&mut self, _: u64, _: Width, _: u64, _: u32) -> Flow {
                Flow::Continue(())
            }
        }
        let mut i = Interp::new(Arc::new(sum_kernel()), &[0, 4]);
        let ev = i.run_hooked(&mut DeclineLoads);
        assert!(matches!(ev, Some((InterpEvent::Load { addr: 0, .. }, 0))));
        i.run_hooked(&mut DeclineLoads); // must panic: load not provided
    }

    #[test]
    fn from_decoded_shares_the_program() {
        let k = Arc::new(sum_kernel());
        let dk = Arc::new(DecodedKernel::decode(&k));
        let mut a = Interp::from_decoded(Arc::clone(&dk), &[0, 0]);
        let mut b = Interp::from_decoded(Arc::clone(&dk), &[0, 0]);
        loop {
            if let InterpEvent::Done { ret } = a.next() {
                assert_eq!(ret, Some(0));
                break;
            }
        }
        loop {
            if let InterpEvent::Done { ret } = b.next() {
                assert_eq!(ret, Some(0));
                break;
            }
        }
    }
}

//! The generic discrete-event scheduler.
//!
//! The scheduler is generic over a *model* type `M` that owns the complete
//! simulated system state. Events are fired in `(time, insertion order)`
//! order; two events scheduled for the same cycle fire in the order they were
//! scheduled, which makes runs deterministic without any tie-breaking
//! randomness.
//!
//! # Engine
//!
//! The queue is a **slab-backed timing wheel** (calendar queue), not a binary
//! heap:
//!
//! * Events live in a reusable `Vec`-backed slab and are linked into buckets
//!   by small integer handles — steady-state scheduling performs **no heap
//!   allocation** (closures up to [`INLINE_EVENT_BYTES`] are stored inline in
//!   the slab slot; larger ones fall back to a thin `Box`).
//! * The near-future wheel indexes buckets by `cycle & mask`: scheduling and
//!   popping are O(1). Within the wheel window every bucket corresponds to
//!   exactly one absolute cycle, so a bucket's intrusive FIFO list *is* the
//!   same-cycle insertion order — the determinism contract is structural, not
//!   enforced by comparisons.
//! * Events beyond the window land in an overflow level: a binary heap of
//!   `(cycle, schedule sequence, slot)` keys, so same-cycle overflow events
//!   pop in insertion order. They are promoted whenever the wheel drains and
//!   re-anchors. A far-future event costs one heap push and no allocation
//!   once the heap has grown to the schedule's overflow depth.
//!
//! The previous `BinaryHeap`-of-boxed-closures engine is retained verbatim as
//! [`reference::HeapScheduler`] so benchmarks and property tests can prove
//! the wheel fires any schedule in the exact `(time, insertion order)`
//! sequence the heap produced.

use crate::time::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr;

/// A schedulable event acting on a model of type `M`.
///
/// Any `FnOnce(&mut M, &mut Scheduler<M>)` closure is an event, which is the
/// common way to use the scheduler; implement the trait directly only when an
/// event needs a named type (e.g. for size control). `fire` consumes the
/// event *by value* — small events are stored inline in the scheduler's slab
/// and never touch the heap.
pub trait Event<M> {
    /// Consumes the event and applies its effect to `model`, possibly
    /// scheduling follow-up events on `sched`.
    fn fire(self, model: &mut M, sched: &mut Scheduler<M>);
}

impl<M, F> Event<M> for F
where
    F: FnOnce(&mut M, &mut Scheduler<M>),
{
    fn fire(self, model: &mut M, sched: &mut Scheduler<M>) {
        self(model, sched)
    }
}

/// Events whose closure state fits in this many bytes (with alignment at
/// most that of `u64`) are stored inline in the slab; larger events cost one
/// heap allocation, exactly like the old engine.
pub const INLINE_EVENT_BYTES: usize = 24;

const INLINE_WORDS: usize = INLINE_EVENT_BYTES / 8;

type CallFn<M> = unsafe fn(*mut MaybeUninit<u64>, &mut M, &mut Scheduler<M>);
type DropFn = unsafe fn(*mut MaybeUninit<u64>);
/// Every stored closure is `Send` (the schedule methods require it), so the
/// erased storage is `Send` too — which is what lets a whole scheduler (a
/// shard's wheel) migrate to a worker thread between lookahead windows. The
/// marker states that contract where the type erasure would otherwise hide
/// it from auto-trait inference.
type SendMarker<M> = PhantomData<Box<dyn FnOnce(&mut M) + Send>>;

/// Type-erased event storage: a small inline buffer plus hand-rolled call
/// and drop function pointers. The event type `E` is known at `schedule_at`
/// time, so even the heap fallback stores a *thin* pointer — there is no
/// `dyn` dispatch anywhere on the hot path.
struct SmallEvent<M> {
    data: [MaybeUninit<u64>; INLINE_WORDS],
    call: CallFn<M>,
    drop_fn: DropFn,
    _marker: SendMarker<M>,
}

unsafe fn call_inline<M, E: Event<M>>(
    data: *mut MaybeUninit<u64>,
    model: &mut M,
    sched: &mut Scheduler<M>,
) {
    // SAFETY: constructed by `SmallEvent::new` for exactly this `E`, and the
    // caller (fire) guarantees the slot is consumed exactly once.
    let event = unsafe { ptr::read(data.cast::<E>()) };
    event.fire(model, sched);
}

unsafe fn drop_inline<E>(data: *mut MaybeUninit<u64>) {
    // SAFETY: same provenance argument as `call_inline`.
    unsafe { ptr::drop_in_place(data.cast::<E>()) }
}

unsafe fn call_boxed<M, E: Event<M>>(
    data: *mut MaybeUninit<u64>,
    model: &mut M,
    sched: &mut Scheduler<M>,
) {
    // SAFETY: the buffer holds a `*mut E` obtained from `Box::into_raw`.
    let raw = unsafe { ptr::read(data.cast::<*mut E>()) };
    let event = unsafe { Box::from_raw(raw) };
    (*event).fire(model, sched);
}

unsafe fn drop_boxed<E>(data: *mut MaybeUninit<u64>) {
    // SAFETY: the buffer holds a `*mut E` obtained from `Box::into_raw`.
    let raw = unsafe { ptr::read(data.cast::<*mut E>()) };
    drop(unsafe { Box::from_raw(raw) });
}

impl<M> SmallEvent<M> {
    fn new<E: Event<M> + Send + 'static>(event: E) -> Self {
        let mut data = [MaybeUninit::<u64>::uninit(); INLINE_WORDS];
        if size_of::<E>() <= size_of::<[u64; INLINE_WORDS]>()
            && align_of::<E>() <= align_of::<u64>()
        {
            // SAFETY: `E` fits the buffer in both size and alignment.
            unsafe { ptr::write(data.as_mut_ptr().cast::<E>(), event) };
            SmallEvent {
                data,
                call: call_inline::<M, E>,
                drop_fn: drop_inline::<E>,
                _marker: PhantomData,
            }
        } else {
            let raw = Box::into_raw(Box::new(event));
            // SAFETY: a thin pointer always fits the buffer.
            unsafe { ptr::write(data.as_mut_ptr().cast::<*mut E>(), raw) };
            SmallEvent {
                data,
                call: call_boxed::<M, E>,
                drop_fn: drop_boxed::<E>,
                _marker: PhantomData,
            }
        }
    }

    fn fire(self, model: &mut M, sched: &mut Scheduler<M>) {
        // Ownership of the payload moves into `call`; suppress our Drop so
        // the payload is not dropped twice.
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `call` was built for the payload currently in `data`, and
        // `ManuallyDrop` guarantees single consumption.
        unsafe { (this.call)(this.data.as_mut_ptr(), model, sched) }
    }
}

impl<M> Drop for SmallEvent<M> {
    fn drop(&mut self) {
        // SAFETY: only reached for events that were never fired.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr()) }
    }
}

const NIL: u32 = u32::MAX;

/// One slab slot: an intrusive `next` link (bucket FIFO list when queued,
/// free list when vacant) plus the event payload.
struct Slot<M> {
    next: u32,
    event: Option<SmallEvent<M>>,
}

#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A deterministic discrete-event scheduler over a model `M`.
///
/// # Example
///
/// ```
/// use svmsyn_sim::{Cycle, Scheduler};
/// let mut sched: Scheduler<u64> = Scheduler::new();
/// sched.schedule_at(Cycle(5), |count: &mut u64, _: &mut Scheduler<u64>| *count += 1);
/// let mut count = 0u64;
/// sched.run(&mut count);
/// assert_eq!(count, 1);
/// assert_eq!(sched.now(), Cycle(5));
/// ```
pub struct Scheduler<M> {
    now: Cycle,
    fired: u64,
    scheduled: u64,
    halted: bool,
    pending: usize,
    /// First cycle covered by the wheel window `[base, base + wheel_size)`.
    base: u64,
    mask: u64,
    wheel_count: usize,
    buckets: Box<[Bucket]>,
    /// One bit per bucket: set iff the bucket list is non-empty.
    occupancy: Box<[u64]>,
    slab: Vec<Slot<M>>,
    free_head: u32,
    /// Far-future events as a min-heap of `(cycle, schedule sequence,
    /// slot)`: the sequence (the `scheduled` count at booking) breaks
    /// same-cycle ties in insertion order.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl<M> Default for Scheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> std::fmt::Debug for Scheduler<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.pending)
            .field("wheel", &self.wheel_count)
            .field("overflow", &(self.pending - self.wheel_count))
            .field("fired", &self.fired)
            .field("halted", &self.halted)
            .finish()
    }
}

/// Default wheel size: 4096 buckets (32 KiB of bucket headers), which covers
/// the default simulation quantum with room to spare.
const DEFAULT_WHEEL_BITS: u32 = 12;

impl<M> Scheduler<M> {
    /// Creates an empty scheduler at time zero with the default wheel size.
    pub fn new() -> Self {
        Self::with_wheel_bits(DEFAULT_WHEEL_BITS)
    }

    /// Creates an empty scheduler whose wheel covers `2^bits` cycles.
    ///
    /// Larger wheels keep more of the schedule on the O(1) path at the cost
    /// of `2^bits * 8` bytes of bucket headers; events beyond the window go
    /// to the overflow heap and are promoted when the wheel drains.
    /// `bits` is clamped to `[6, 20]`.
    pub fn with_wheel_bits(bits: u32) -> Self {
        let bits = bits.clamp(6, 20);
        let size = 1usize << bits;
        Scheduler {
            now: Cycle::ZERO,
            fired: 0,
            scheduled: 0,
            halted: false,
            pending: 0,
            base: 0,
            mask: (size - 1) as u64,
            wheel_count: 0,
            buckets: vec![EMPTY_BUCKET; size].into_boxed_slice(),
            occupancy: vec![0u64; size / 64].into_boxed_slice(),
            slab: Vec::new(),
            free_head: NIL,
            overflow: BinaryHeap::new(),
        }
    }

    /// Creates a scheduler with slab capacity for `events` pending events,
    /// avoiding reallocation during the warm-up ramp.
    pub fn with_capacity(events: usize) -> Self {
        let mut s = Self::new();
        s.slab.reserve(events);
        s
    }

    /// Rewinds a *fresh, empty* scheduler to a checkpointed position: sets
    /// the current time and the fired/scheduled counters without firing
    /// anything. The caller then re-schedules the checkpoint's pending
    /// events in their original insertion order (each re-schedule bumps the
    /// `scheduled` counter again, so pass the checkpoint value minus the
    /// number of events about to be re-added), reproducing same-cycle FIFO
    /// order exactly.
    ///
    /// # Panics
    ///
    /// Panics if events are already pending — restoring into a scheduler
    /// that has live events would interleave two timelines.
    pub fn restore_meta(&mut self, now: Cycle, fired: u64, scheduled: u64) {
        assert!(
            self.pending == 0,
            "restore_meta requires an empty scheduler"
        );
        self.now = now;
        self.base = now.0;
        self.fired = fired;
        self.scheduled = scheduled;
        self.halted = false;
    }

    /// The current simulation time (the timestamp of the event being fired,
    /// or of the last event fired).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events scheduled so far.
    pub fn events_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Number of cycles the near-future wheel spans.
    pub fn wheel_size(&self) -> u64 {
        self.mask + 1
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.pending == 0 {
            return None;
        }
        if self.wheel_count == 0 {
            return self.overflow.peek().map(|&Reverse((t, _, _))| Cycle(t));
        }
        Some(Cycle(self.next_occupied_time(self.now.0.max(self.base))))
    }

    /// Schedules `event` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (`time < self.now()`): a model that
    /// schedules into the past is broken and must be fixed, not tolerated.
    pub fn schedule_at<E: Event<M> + Send + 'static>(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "event scheduled into the past: {time} < now {}",
            self.now
        );
        self.scheduled += 1;
        let slot = self.alloc_slot(SmallEvent::new(event));
        if self.pending == 0 {
            // Queue was empty: re-anchor the window at `now` so the wheel
            // horizon is maximal no matter how far time has advanced.
            self.base = self.now.0;
        }
        self.pending += 1;
        let t = time.0;
        if t - self.base <= self.mask {
            self.enqueue_wheel(t, slot);
        } else {
            self.overflow.push(Reverse((t, self.scheduled, slot)));
        }
    }

    /// Schedules `event` to fire `delay` cycles from now.
    pub fn schedule_in<E: Event<M> + Send + 'static>(&mut self, delay: Cycle, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules a wake event at `time`, clamping to the current cycle if
    /// the moment has already passed.
    ///
    /// This is the completion-delivery entry point: wake times come from
    /// the calendar-analytic memory fabric (a transaction's completion
    /// cycle is known at issue), and a consumer may only notice it parked
    /// on a completion *after* simulation time has moved past it — e.g. a
    /// thread that was descheduled across the completion. A plain
    /// [`schedule_at`](Self::schedule_at) treats that as a model bug and
    /// panics; a wake legitimately fires "as soon as possible" instead.
    pub fn schedule_wake<E: Event<M> + Send + 'static>(&mut self, time: Cycle, event: E) {
        self.schedule_at(time.max(self.now), event);
    }

    /// Requests that [`run`](Self::run) return before firing further events.
    ///
    /// Intended to be called from inside an event (e.g. when the simulated
    /// application has finished); pending events stay queued.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Whether [`halt`](Self::halt) has been requested.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    fn alloc_slot(&mut self, event: SmallEvent<M>) -> u32 {
        if self.free_head != NIL {
            let i = self.free_head;
            let slot = &mut self.slab[i as usize];
            self.free_head = slot.next;
            slot.next = NIL;
            slot.event = Some(event);
            i
        } else {
            let i = self.slab.len();
            assert!(i < NIL as usize, "event slab exhausted");
            self.slab.push(Slot {
                next: NIL,
                event: Some(event),
            });
            i as u32
        }
    }

    /// Appends `slot` to the bucket for absolute cycle `t` (which must lie
    /// within the current window).
    fn enqueue_wheel(&mut self, t: u64, slot: u32) {
        let bi = (t & self.mask) as usize;
        let tail = self.buckets[bi].tail;
        if tail == NIL {
            self.buckets[bi].head = slot;
            self.occupancy[bi >> 6] |= 1u64 << (bi & 63);
        } else {
            self.slab[tail as usize].next = slot;
        }
        self.buckets[bi].tail = slot;
        self.wheel_count += 1;
    }

    /// Moves the window to start at `new_base` and promotes every overflow
    /// event that now fits. Called only when the wheel is empty, so bucket
    /// residues cannot collide with leftover entries.
    fn rebase(&mut self, new_base: u64) {
        debug_assert_eq!(self.wheel_count, 0);
        self.base = new_base;
        while let Some(&Reverse((t, _, slot))) = self.overflow.peek() {
            if t - new_base > self.mask {
                break;
            }
            self.overflow.pop();
            self.enqueue_wheel(t, slot);
        }
    }

    /// Finds the next occupied bucket at or after absolute cycle `from`
    /// (callers guarantee the wheel is non-empty and every queued cycle is
    /// `>= from`), returning its absolute cycle.
    fn next_occupied_time(&self, from: u64) -> u64 {
        debug_assert!(self.wheel_count > 0);
        let size = (self.mask + 1) as usize;
        let start = (from & self.mask) as usize;
        let nwords = self.occupancy.len();
        let mut word_i = start >> 6;
        let mut word = self.occupancy[word_i] & (!0u64 << (start & 63));
        for _ in 0..=nwords {
            if word != 0 {
                let bit = (word_i << 6) + word.trailing_zeros() as usize;
                let dist = (bit + size - start) & (size - 1);
                return from + dist as u64;
            }
            word_i = (word_i + 1) % nwords;
            word = self.occupancy[word_i];
        }
        unreachable!("wheel_count > 0 but no occupied bucket");
    }

    /// Removes and returns the earliest pending event.
    fn pop_next(&mut self) -> Option<(Cycle, SmallEvent<M>)> {
        if self.pending == 0 {
            return None;
        }
        if self.wheel_count == 0 {
            // Everything lives in the overflow level: re-anchor the window
            // at the earliest overflow cycle and promote.
            let Reverse((first, _, _)) = *self.overflow.peek().expect("pending > 0");
            self.rebase(first);
        }
        let t = self.next_occupied_time(self.now.0.max(self.base));
        let bi = (t & self.mask) as usize;
        let head = self.buckets[bi].head;
        debug_assert_ne!(head, NIL);
        let slot = &mut self.slab[head as usize];
        let next = slot.next;
        let event = slot.event.take().expect("queued slot holds an event");
        slot.next = self.free_head;
        self.free_head = head;
        self.buckets[bi].head = next;
        if next == NIL {
            self.buckets[bi].tail = NIL;
            self.occupancy[bi >> 6] &= !(1u64 << (bi & 63));
        }
        self.wheel_count -= 1;
        self.pending -= 1;
        Some((Cycle(t), event))
    }

    /// Fires the single earliest pending event. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self, model: &mut M) -> bool {
        match self.pop_next() {
            Some((time, event)) => {
                debug_assert!(time >= self.now);
                self.now = time;
                self.fired += 1;
                event.fire(model, self);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains or [`halt`](Self::halt) is called.
    /// Returns the final simulation time.
    pub fn run(&mut self, model: &mut M) -> Cycle {
        while !self.halted && self.step(model) {}
        self.now
    }

    /// Runs until the queue drains, `halt` is called, or the next event would
    /// fire strictly after `deadline`. Returns the final simulation time.
    pub fn run_until(&mut self, model: &mut M, deadline: Cycle) -> Cycle {
        while !self.halted {
            match self.peek_time() {
                Some(t) if t <= deadline => {
                    self.step(model);
                }
                _ => break,
            }
        }
        self.now
    }
}

/// The retired `BinaryHeap`-of-boxed-closures engine, kept as the golden
/// reference for ordering semantics and as the benchmark baseline.
pub mod reference {
    use crate::time::Cycle;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    type BoxedEvent<M> = Box<dyn FnOnce(&mut M, &mut HeapScheduler<M>)>;

    struct Entry<M> {
        time: Cycle,
        seq: u64,
        event: BoxedEvent<M>,
    }

    impl<M> PartialEq for Entry<M> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<M> Eq for Entry<M> {}
    impl<M> PartialOrd for Entry<M> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<M> Ord for Entry<M> {
        /// Reversed so the `BinaryHeap` (a max-heap) pops the *earliest*
        /// entry.
        fn cmp(&self, other: &Self) -> Ordering {
            (other.time, other.seq).cmp(&(self.time, self.seq))
        }
    }

    /// The pre-timing-wheel scheduler: one heap allocation plus an
    /// O(log n) sift per event. Same `(time, insertion order)` contract as
    /// [`Scheduler`](super::Scheduler).
    pub struct HeapScheduler<M> {
        now: Cycle,
        seq: u64,
        fired: u64,
        halted: bool,
        heap: BinaryHeap<Entry<M>>,
    }

    impl<M> Default for HeapScheduler<M> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<M> std::fmt::Debug for HeapScheduler<M> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("HeapScheduler")
                .field("now", &self.now)
                .field("pending", &self.heap.len())
                .field("fired", &self.fired)
                .field("halted", &self.halted)
                .finish()
        }
    }

    impl<M> HeapScheduler<M> {
        /// Creates an empty scheduler at time zero.
        pub fn new() -> Self {
            HeapScheduler {
                now: Cycle::ZERO,
                seq: 0,
                fired: 0,
                halted: false,
                heap: BinaryHeap::new(),
            }
        }

        /// The current simulation time.
        pub fn now(&self) -> Cycle {
            self.now
        }

        /// Number of events fired so far.
        pub fn events_fired(&self) -> u64 {
            self.fired
        }

        /// Number of events still pending.
        pub fn pending(&self) -> usize {
            self.heap.len()
        }

        /// Schedules `event` to fire at absolute time `time`.
        ///
        /// # Panics
        ///
        /// Panics if `time < self.now()`.
        pub fn schedule_at<F>(&mut self, time: Cycle, event: F)
        where
            F: FnOnce(&mut M, &mut HeapScheduler<M>) + 'static,
        {
            assert!(
                time >= self.now,
                "event scheduled into the past: {time} < now {}",
                self.now
            );
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry {
                time,
                seq,
                event: Box::new(event),
            });
        }

        /// Schedules `event` to fire `delay` cycles from now.
        pub fn schedule_in<F>(&mut self, delay: Cycle, event: F)
        where
            F: FnOnce(&mut M, &mut HeapScheduler<M>) + 'static,
        {
            self.schedule_at(self.now + delay, event);
        }

        /// Requests that [`run`](Self::run) return before firing further
        /// events.
        pub fn halt(&mut self) {
            self.halted = true;
        }

        /// Fires the single earliest pending event. Returns `false` when the
        /// queue is empty.
        pub fn step(&mut self, model: &mut M) -> bool {
            match self.heap.pop() {
                Some(entry) => {
                    debug_assert!(entry.time >= self.now);
                    self.now = entry.time;
                    self.fired += 1;
                    (entry.event)(model, self);
                    true
                }
                None => false,
            }
        }

        /// Runs until the event queue drains or `halt` is called.
        pub fn run(&mut self, model: &mut M) -> Cycle {
            while !self.halted && self.step(model) {}
            self.now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Log(Vec<(u64, &'static str)>);

    #[test]
    fn fires_in_time_order() {
        let mut s: Scheduler<Log> = Scheduler::new();
        s.schedule_at(Cycle(30), |m: &mut Log, _: &mut Scheduler<Log>| {
            m.0.push((30, "c"))
        });
        s.schedule_at(Cycle(10), |m: &mut Log, _: &mut Scheduler<Log>| {
            m.0.push((10, "a"))
        });
        s.schedule_at(Cycle(20), |m: &mut Log, _: &mut Scheduler<Log>| {
            m.0.push((20, "b"))
        });
        let mut log = Log::default();
        let end = s.run(&mut log);
        assert_eq!(end, Cycle(30));
        assert_eq!(log.0, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn same_time_fires_in_insertion_order() {
        let mut s: Scheduler<Log> = Scheduler::new();
        for name in ["first", "second", "third"] {
            s.schedule_at(Cycle(7), move |m: &mut Log, _: &mut Scheduler<Log>| {
                m.0.push((7, name))
            });
        }
        let mut log = Log::default();
        s.run(&mut log);
        assert_eq!(log.0, vec![(7, "first"), (7, "second"), (7, "third")]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut s: Scheduler<Log> = Scheduler::new();
        s.schedule_at(Cycle(1), |m: &mut Log, s: &mut Scheduler<Log>| {
            m.0.push((s.now().0, "root"));
            s.schedule_in(Cycle(9), |m: &mut Log, s: &mut Scheduler<Log>| {
                m.0.push((s.now().0, "child"));
            });
        });
        let mut log = Log::default();
        s.run(&mut log);
        assert_eq!(log.0, vec![(1, "root"), (10, "child")]);
        assert_eq!(s.events_fired(), 2);
    }

    #[test]
    fn halt_stops_run() {
        let mut s: Scheduler<Log> = Scheduler::new();
        s.schedule_at(Cycle(1), |m: &mut Log, s: &mut Scheduler<Log>| {
            m.0.push((1, "a"));
            s.halt();
        });
        s.schedule_at(Cycle(2), |m: &mut Log, _: &mut Scheduler<Log>| {
            m.0.push((2, "never"))
        });
        let mut log = Log::default();
        s.run(&mut log);
        assert!(s.is_halted());
        assert_eq!(log.0, vec![(1, "a")]);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut s: Scheduler<Log> = Scheduler::new();
        for t in [5u64, 15, 25] {
            s.schedule_at(Cycle(t), move |m: &mut Log, _: &mut Scheduler<Log>| {
                m.0.push((t, "x"))
            });
        }
        let mut log = Log::default();
        s.run_until(&mut log, Cycle(15));
        assert_eq!(log.0.len(), 2);
        s.run(&mut log);
        assert_eq!(log.0.len(), 3);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s: Scheduler<Log> = Scheduler::new();
        s.schedule_at(Cycle(10), |_: &mut Log, s: &mut Scheduler<Log>| {
            s.schedule_at(Cycle(5), |_: &mut Log, _: &mut Scheduler<Log>| {});
        });
        let mut log = Log::default();
        s.run(&mut log);
    }

    #[test]
    fn schedule_wake_clamps_past_times_to_now() {
        let mut s: Scheduler<Log> = Scheduler::new();
        s.schedule_at(Cycle(10), |m: &mut Log, s: &mut Scheduler<Log>| {
            m.0.push((s.now().0, "tick"));
            // A completion at cycle 4 noticed at cycle 10: fires now, not
            // never (schedule_at would panic).
            s.schedule_wake(Cycle(4), |m: &mut Log, s: &mut Scheduler<Log>| {
                m.0.push((s.now().0, "late-wake"));
            });
            s.schedule_wake(Cycle(15), |m: &mut Log, s: &mut Scheduler<Log>| {
                m.0.push((s.now().0, "future-wake"));
            });
        });
        let mut log = Log::default();
        s.run(&mut log);
        assert_eq!(
            log.0,
            vec![(10, "tick"), (10, "late-wake"), (15, "future-wake")]
        );
    }

    #[test]
    fn debug_is_nonempty() {
        let s: Scheduler<Log> = Scheduler::new();
        assert!(!format!("{s:?}").is_empty());
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let horizon = s.wheel_size();
        // One event inside the window, two far beyond it (same cycle, so
        // FIFO order must survive the overflow promotion), one farther out.
        s.schedule_at(Cycle(3), |m: &mut Log, _: &mut Scheduler<Log>| {
            m.0.push((3, "near"))
        });
        let far = horizon * 5 + 17;
        s.schedule_at(Cycle(far), move |m: &mut Log, _: &mut Scheduler<Log>| {
            m.0.push((far, "far1"))
        });
        s.schedule_at(Cycle(far), move |m: &mut Log, _: &mut Scheduler<Log>| {
            m.0.push((far, "far2"))
        });
        let farther = horizon * 9;
        s.schedule_at(
            Cycle(farther),
            move |m: &mut Log, _: &mut Scheduler<Log>| m.0.push((farther, "farther")),
        );
        let mut log = Log::default();
        let end = s.run(&mut log);
        assert_eq!(end, Cycle(farther));
        assert_eq!(
            log.0,
            vec![
                (3, "near"),
                (far, "far1"),
                (far, "far2"),
                (farther, "farther")
            ]
        );
    }

    #[test]
    fn wheel_wraps_across_many_windows() {
        // A self-rescheduling chain that crosses the wheel window many
        // times, with a stride that is not a divisor of the wheel size.
        let mut s: Scheduler<Vec<u64>> = Scheduler::with_wheel_bits(6);
        fn tick(m: &mut Vec<u64>, s: &mut Scheduler<Vec<u64>>) {
            m.push(s.now().0);
            if m.len() < 500 {
                s.schedule_in(Cycle(37), tick);
            }
        }
        s.schedule_at(Cycle(0), tick);
        let mut seen = Vec::new();
        s.run(&mut seen);
        assert_eq!(seen.len(), 500);
        for (i, t) in seen.iter().enumerate() {
            assert_eq!(*t, 37 * i as u64);
        }
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut s: Scheduler<u64> = Scheduler::new();
        for round in 0..100u64 {
            s.schedule_at(Cycle(round * 3), |m: &mut u64, _: &mut Scheduler<u64>| {
                *m += 1
            });
            let mut m = 0u64;
            s.run(&mut m);
        }
        // One event in flight at a time: the slab never grows past one slot.
        assert_eq!(s.slab.len(), 1);
        assert_eq!(s.events_fired(), 100);
        assert_eq!(s.events_scheduled(), 100);
    }

    #[test]
    fn pending_events_are_dropped_cleanly() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let dropped: Arc<AtomicU32> = Arc::default();
        struct Tracker(Arc<AtomicU32>);
        impl Drop for Tracker {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let mut s: Scheduler<u64> = Scheduler::new();
            // One inline-sized and one boxed (oversized) event, both queued
            // and never fired.
            let t1 = Tracker(dropped.clone());
            s.schedule_at(Cycle(1), move |_: &mut u64, _: &mut Scheduler<u64>| {
                drop(t1);
            });
            let t2 = Tracker(dropped.clone());
            let ballast = [0u64; 16];
            s.schedule_at(Cycle(2), move |m: &mut u64, _: &mut Scheduler<u64>| {
                *m += ballast[0];
                drop(t2);
            });
            assert_eq!(s.pending(), 2);
        }
        assert_eq!(
            dropped.load(Ordering::Relaxed),
            2,
            "unfired events must drop their state"
        );
    }

    #[test]
    fn oversized_events_fire_correctly() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        let payload = [7u64; 32]; // 256 bytes: forced onto the boxed path
        s.schedule_at(
            Cycle(4),
            move |m: &mut Vec<u64>, _: &mut Scheduler<Vec<u64>>| m.push(payload.iter().sum()),
        );
        let mut out = Vec::new();
        s.run(&mut out);
        assert_eq!(out, vec![7 * 32]);
    }

    #[test]
    fn peek_time_tracks_the_earliest_event() {
        let mut s: Scheduler<u64> = Scheduler::new();
        assert_eq!(s.peek_time(), None);
        s.schedule_at(Cycle(90), |_: &mut u64, _: &mut Scheduler<u64>| {});
        s.schedule_at(Cycle(10), |_: &mut u64, _: &mut Scheduler<u64>| {});
        let far = s.wheel_size() * 3;
        s.schedule_at(Cycle(far), |_: &mut u64, _: &mut Scheduler<u64>| {});
        assert_eq!(s.peek_time(), Some(Cycle(10)));
        let mut m = 0u64;
        s.step(&mut m);
        assert_eq!(s.peek_time(), Some(Cycle(90)));
        s.step(&mut m);
        assert_eq!(s.peek_time(), Some(Cycle(far)));
        s.step(&mut m);
        assert_eq!(s.peek_time(), None);
    }

    /// The trace-equivalence harness: drives the wheel and the retired heap
    /// engine through the same logical program and compares full traces.
    fn cross_check(initial: &[(u64, u32)], respawn: fn(u64, u32) -> Option<(u64, u32)>) {
        type Trace = Vec<(u64, u32)>;

        type WheelEvent = Box<dyn FnOnce(&mut Trace, &mut Scheduler<Trace>) + Send>;
        type HeapEvent = Box<dyn FnOnce(&mut Trace, &mut reference::HeapScheduler<Trace>)>;

        fn wheel_event(id: u32, respawn: fn(u64, u32) -> Option<(u64, u32)>) -> WheelEvent {
            Box::new(move |m: &mut Trace, s: &mut Scheduler<Trace>| {
                m.push((s.now().0, id));
                if let Some((delay, next_id)) = respawn(s.now().0, id) {
                    s.schedule_in(Cycle(delay), wheel_event(next_id, respawn));
                }
            })
        }
        fn heap_event(id: u32, respawn: fn(u64, u32) -> Option<(u64, u32)>) -> HeapEvent {
            Box::new(
                move |m: &mut Trace, s: &mut reference::HeapScheduler<Trace>| {
                    m.push((s.now().0, id));
                    if let Some((delay, next_id)) = respawn(s.now().0, id) {
                        s.schedule_in(Cycle(delay), heap_event(next_id, respawn));
                    }
                },
            )
        }

        let mut wheel: Scheduler<Trace> = Scheduler::with_wheel_bits(6);
        let mut heap: reference::HeapScheduler<Trace> = reference::HeapScheduler::new();
        for &(t, id) in initial {
            wheel.schedule_at(Cycle(t), wheel_event(id, respawn));
            heap.schedule_at(Cycle(t), heap_event(id, respawn));
        }
        let mut wt = Trace::new();
        let mut ht = Trace::new();
        let wend = wheel.run(&mut wt);
        let hend = heap.run(&mut ht);
        assert_eq!(wt, ht, "wheel and heap traces diverge");
        assert_eq!(wend, hend);
    }

    #[test]
    fn trace_matches_heap_reference_with_ties_and_reschedules() {
        // Dense same-cycle ties plus respawn chains crossing the window.
        let initial: Vec<(u64, u32)> = (0..64u32).map(|i| ((i as u64 * 13) % 32, i)).collect();
        cross_check(&initial, |now, id| {
            // Every third event respawns with a stride derived from its id;
            // chains die out past cycle 2000.
            if id % 3 == 0 && now < 2000 {
                Some(((id as u64 % 7) * 31 + 1, id + 100))
            } else {
                None
            }
        });
    }

    #[test]
    fn trace_matches_heap_reference_zero_delay_chains() {
        // Zero-delay respawns: new events at the *current* cycle must fire
        // after everything already queued for that cycle, on both engines.
        let initial: Vec<(u64, u32)> = (0..16u32).map(|i| (5, i)).collect();
        cross_check(&initial, |_, id| {
            if id < 16 * 4 {
                Some((0, id + 16))
            } else {
                None
            }
        });
    }
}

//! The step queue: the simulator's pending events.
//!
//! Every event the simulator schedules means "step thread `i` at cycle
//! `t`", so the queue holds typed `(fire time, seq, thread)` entries and
//! the engine that pops one calls its own step function directly. Entries
//! pop in `(time, seq)` order. Each queue draws its seqs from a lane
//! `next_seq, next_seq + stride, …` in the order it is pushed, so that
//! order is also insertion order: two steps booked for the same cycle fire
//! in the order they were booked, which makes runs deterministic without
//! any tie-breaking randomness.
//!
//! The entries are plain data, so the queue is its own snapshot record:
//! [`StepQueue::iter`] lists what a checkpoint must hold, and
//! [`StepQueue::push_seq`] books it back on restore.
//!
//! A binary heap suffices: the simulator keeps at most one pending step
//! per thread, so the queue is a few entries deep.

use crate::time::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic queue of pending thread steps.
///
/// # Example
///
/// ```
/// use svmsyn_sim::{Cycle, StepQueue};
/// let mut q = StepQueue::new(Cycle::ZERO, 0, 0, 1);
/// q.push(Cycle(9), 1);
/// q.push(Cycle(5), 0);
/// q.push(Cycle(9), 2);
/// assert_eq!(q.pop(), Some((Cycle(5), 0)));
/// // A completion that already elapsed fires now rather than never.
/// q.push_wake(Cycle(3), 3);
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
/// assert_eq!(order, [(Cycle(5), 3), (Cycle(9), 1), (Cycle(9), 2)]);
/// assert_eq!((q.now(), q.events_fired(), q.pending()), (Cycle(9), 4, 0));
/// ```
#[derive(Debug)]
pub struct StepQueue {
    /// Pending `(fire time, seq, thread)` entries, earliest first.
    heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    now: Cycle,
    fired: u64,
    /// The next seq this queue's lane draws.
    next_seq: u64,
    stride: u64,
}

impl StepQueue {
    /// An empty queue at cycle `now` with `fired` events already fired,
    /// whose seq lane starts at `next_seq` and steps by `stride`.
    pub fn new(now: Cycle, fired: u64, next_seq: u64, stride: u64) -> StepQueue {
        StepQueue {
            heap: BinaryHeap::new(),
            now,
            fired,
            next_seq,
            stride,
        }
    }

    /// The current simulation time: the fire time of the last entry popped
    /// (or the time the queue was built at).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of entries popped so far, plus the `fired` count the queue
    /// was built with.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of entries still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// The next seq [`push`](Self::push) draws.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Restarts the seq lane at `next_seq`, keeping its stride.
    pub fn set_next_seq(&mut self, next_seq: u64) {
        self.next_seq = next_seq;
    }

    /// The fire time of the next pending entry, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Books a step of `thread` at `at` with the lane's next seq.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`): a model that
    /// schedules into the past is broken and must be fixed, not tolerated.
    pub fn push(&mut self, at: Cycle, thread: u32) {
        let seq = self.next_seq;
        self.next_seq += self.stride;
        self.push_seq(at, seq, thread);
    }

    /// Books a wake of `thread` at `at`, clamped to the current cycle if
    /// the moment has already passed.
    ///
    /// This is the completion-delivery entry point: wake times come from
    /// the calendar-analytic memory fabric (a transaction's completion
    /// cycle is known at issue), and a consumer may only notice it parked
    /// on a completion *after* simulation time has moved past it — e.g. a
    /// thread that was descheduled across the completion. A plain
    /// [`push`](Self::push) treats that as a model bug and panics; a wake
    /// legitimately fires "as soon as possible" instead.
    pub fn push_wake(&mut self, at: Cycle, thread: u32) {
        self.push(at.max(self.now), thread);
    }

    /// Books a step with an explicit seq, leaving the lane alone: restore
    /// re-books a checkpoint's entries this way, and the sharded
    /// coordinator its barrier deliveries.
    ///
    /// # Panics
    ///
    /// Panics if `at < self.now()`, as [`push`](Self::push) does.
    pub fn push_seq(&mut self, at: Cycle, seq: u64, thread: u32) {
        assert!(
            at >= self.now,
            "event scheduled into the past: {at} < now {}",
            self.now
        );
        self.heap.push(Reverse((at, seq, thread)));
    }

    /// Removes the earliest pending entry, advances the clock to its fire
    /// time and counts it fired. Returns `(fire time, thread)`, or `None`
    /// when nothing is pending.
    pub fn pop(&mut self) -> Option<(Cycle, u32)> {
        let Reverse((at, _, thread)) = self.heap.pop()?;
        self.now = at;
        self.fired += 1;
        Some((at, thread))
    }

    /// Every pending `(fire time, seq, thread)` entry, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, u64, u32)> + '_ {
        self.heap.iter().map(|&Reverse(entry)| entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> StepQueue {
        StepQueue::new(Cycle::ZERO, 0, 0, 1)
    }

    fn drain(q: &mut StepQueue) -> Vec<(Cycle, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn fires_in_time_order() {
        let mut q = queue();
        q.push(Cycle(30), 2);
        q.push(Cycle(10), 0);
        q.push(Cycle(20), 1);
        assert_eq!(
            drain(&mut q),
            [(Cycle(10), 0), (Cycle(20), 1), (Cycle(30), 2)]
        );
        assert_eq!(q.now(), Cycle(30));
        assert_eq!(q.events_fired(), 3);
    }

    #[test]
    fn same_time_fires_in_insertion_order() {
        let mut q = queue();
        for thread in [4, 1, 3] {
            q.push(Cycle(7), thread);
        }
        assert_eq!(drain(&mut q), [(Cycle(7), 4), (Cycle(7), 1), (Cycle(7), 3)]);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = queue();
        q.push(Cycle(10), 0);
        q.pop();
        q.push(Cycle(5), 0);
    }

    #[test]
    fn schedule_wake_clamps_past_times_to_now() {
        let mut q = queue();
        q.push(Cycle(10), 0);
        q.pop();
        // A completion at cycle 4 noticed at cycle 10: fires now, not
        // never (`push` would panic).
        q.push_wake(Cycle(4), 1);
        q.push_wake(Cycle(15), 2);
        assert_eq!(drain(&mut q), [(Cycle(10), 1), (Cycle(15), 2)]);
    }

    #[test]
    fn peek_time_tracks_the_earliest_event() {
        let mut q = queue();
        assert_eq!(q.peek_time(), None);
        q.push(Cycle(90), 0);
        q.push(Cycle(10), 1);
        q.push(Cycle(1 << 40), 2);
        assert_eq!(q.peek_time(), Some(Cycle(10)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle(90)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle(1 << 40)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn lane_draws_seqs_at_its_stride_and_push_seq_leaves_it() {
        let mut q = StepQueue::new(Cycle(3), 7, 10, 4);
        q.push(Cycle(5), 0);
        q.push_seq(Cycle(5), 2, 1);
        q.push(Cycle(5), 2);
        assert_eq!(q.next_seq(), 18);
        let mut entries: Vec<_> = q.iter().collect();
        entries.sort_unstable();
        assert_eq!(
            entries,
            [(Cycle(5), 2, 1), (Cycle(5), 10, 0), (Cycle(5), 14, 2)]
        );
        // Explicit seqs below the lane fire first within their cycle.
        assert_eq!(drain(&mut q), [(Cycle(5), 1), (Cycle(5), 0), (Cycle(5), 2)]);
        assert_eq!(q.events_fired(), 10);
    }
}

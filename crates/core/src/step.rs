//! Thread-step semantics shared by the serial and the sharded engine.
//!
//! A simulated thread steps through its pre-sync script, its run phase
//! (the kernel advancing on a hardware thread or on the CPU model), and its
//! post-sync script. What one step *does* lives here, once: advancing the
//! body, the fault-streak accounting and per-access thrash trip, running a
//! sync action through the OS with its OSIF-or-syscall and wake costs,
//! retiring the thread, the event-cap and fault-rate watchdog, and the
//! end-of-run assembly. The engines supply only where a follow-up goes:
//!
//! * the serial engine ([`crate::sim`]) books every follow-up on its one
//!   wheel and services hardware page faults inline;
//! * the sharded engine ([`crate::shard`]) books run-phase follow-ups on
//!   the shard's wheel in its seq lane, records faults and kernel
//!   completions as barrier crossings, and runs sync scripts on the
//!   coordinator's control queue.
//!
//! Dispatch is static — generics over [`StepModel`] and [`SyncHost`] — so
//! the serial engine's per-event path never touches windows, replicas, or
//! the control queue.

use std::cell::OnceCell;

use svmsyn_hwt::thread::HwStep;
use svmsyn_mem::{MemorySystem, VirtAddr};
use svmsyn_os::cpu::SliceEnd;
use svmsyn_os::os::Os;
use svmsyn_os::sync::{SyncResult, ThreadId};
use svmsyn_sim::{Cycle, Scheduler};
use svmsyn_vm::mmu::Access;
use svmsyn_vm::tlb::Asid;

use crate::app::SyncAction;
use crate::checkpoint::Checkpoint;
use crate::flow::Placement;
use crate::sim::{
    Body, Phase, ShardSyncStats, SimConfig, SimError, SimOutcome, ThreadMetrics, ThreadRt,
};

/// A hardware thread's consecutive-fault streak `(mem_ops_issued, count,
/// first)`; cleared on any step that makes progress.
pub(crate) type FaultStreak = Option<(u64, u32, Cycle)>;

/// Mirror of every step event resident on one wheel.
///
/// Wheel closures cannot be serialized, but every event in this system is
/// "step thread `i` at cycle `t`", so snapshots record this registry
/// instead and restore re-books equivalent events in `(time, seq)` order.
/// Each event unregisters its own entry as it fires. Seqs come from a lane
/// `next_seq, next_seq + stride, …`: stride 1 on the serial wheel, `N` on
/// shard `s` of `N` (lane base `+ s`), so seqs stay globally unique
/// without cross-shard coordination and each wheel's insertion order
/// equals its `(time, seq)` order.
#[derive(Debug)]
pub(crate) struct StepMirror {
    /// `(fire time, seq, thread)` of every resident step event, in no
    /// particular order (snapshots sort).
    pub(crate) pending: Vec<(Cycle, u64, u32)>,
    /// The next seq this lane draws.
    pub(crate) next_seq: u64,
    stride: u64,
}

impl StepMirror {
    /// An empty mirror whose lane starts at `next_seq`.
    pub(crate) fn new(next_seq: u64, stride: u64) -> Self {
        StepMirror {
            pending: Vec::new(),
            next_seq,
            stride,
        }
    }

    fn draw(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += self.stride;
        seq
    }

    /// Books a step of thread `i` at `at` with the next seq of this lane.
    pub(crate) fn book<M: StepModel>(&mut self, sched: &mut Scheduler<M>, at: Cycle, i: usize) {
        let seq = self.draw();
        self.book_seq(sched, at, seq, i);
    }

    /// Books a step with an explicit seq: restore, and the coordinator's
    /// barrier deliveries, which draw seqs below the window lanes.
    pub(crate) fn book_seq<M: StepModel>(
        &mut self,
        sched: &mut Scheduler<M>,
        at: Cycle,
        seq: u64,
        i: usize,
    ) {
        self.pending.push((at, seq, i as u32));
        sched.schedule_at(at, move |m: &mut M, s: &mut Scheduler<M>| {
            m.steps().unregister(seq);
            m.step(s, i);
        });
    }

    /// Completion delivery for a parked thread: wakes it at the fill's
    /// exact completion cycle (clamped to `now` if the completion already
    /// elapsed while the thread was descheduled — `schedule_wake`'s
    /// contract). The mirror records the *clamped* time: that is the cycle
    /// the wheel actually holds, and the one restore must re-book at.
    pub(crate) fn book_wake<M: StepModel>(
        &mut self,
        sched: &mut Scheduler<M>,
        wake: Cycle,
        i: usize,
    ) {
        let seq = self.draw();
        self.pending.push((wake.max(sched.now()), seq, i as u32));
        sched.schedule_wake(wake, move |m: &mut M, s: &mut Scheduler<M>| {
            m.steps().unregister(seq);
            m.step(s, i);
        });
    }

    /// Drops `seq` as its event fires. Order in the mirror is irrelevant,
    /// so the removal is a swap.
    fn unregister(&mut self, seq: u64) {
        if let Some(idx) = self.pending.iter().position(|&(_, s, _)| s == seq) {
            self.pending.swap_remove(idx);
        }
    }
}

/// The state one run-phase advance touches, borrowed from a model at once.
pub(crate) struct RunParts<'a> {
    pub(crate) rt: &'a mut ThreadRt,
    pub(crate) streak: &'a mut FaultStreak,
    pub(crate) mem: &'a mut MemorySystem,
    /// `None` where the OS does not live (shards hosting only hardware
    /// threads).
    pub(crate) os: Option<&'a mut Os>,
    pub(crate) quantum: u64,
    pub(crate) retry_budget: u32,
}

/// A wheel model whose events all step threads — the serial engine's
/// system state and each shard's state. It says where a run-phase
/// follow-up goes; [`run_phase`] says what the step does.
pub(crate) trait StepModel: Sized + 'static {
    /// The mirror of this model's wheel.
    fn steps(&mut self) -> &mut StepMirror;
    /// Fires one (already unregistered) step event of thread `i`.
    fn step(&mut self, sched: &mut Scheduler<Self>, i: usize);
    /// Everything a run-phase advance of thread `i` touches.
    fn run_parts(&mut self, i: usize) -> RunParts<'_>;
    /// Routes the page fault hardware thread `i` raised at `at`.
    fn fault(
        &mut self,
        sched: &mut Scheduler<Self>,
        i: usize,
        at: Cycle,
        va: VirtAddr,
        write: bool,
    );
    /// Routes thread `i`, whose kernel returned at `at`, to its post-sync
    /// script.
    fn finished(&mut self, sched: &mut Scheduler<Self>, i: usize, at: Cycle);
    /// Stops the run on `error`, raised by the event firing at `at`.
    fn fail(&mut self, sched: &mut Scheduler<Self>, at: Cycle, error: SimError);
}

/// Where one run-phase advance leaves its thread.
enum Next {
    Step(Cycle),
    /// A hardware thread parked on an outstanding miss: wake at exactly
    /// the fill's completion cycle via the wheel's wake path.
    Wake(Cycle),
    Finished(Cycle),
    Fault {
        at: Cycle,
        va: VirtAddr,
        write: bool,
    },
    /// The run stops; `rearm` books the thread again at the trip cycle
    /// first.
    Stop {
        error: SimError,
        rearm: bool,
    },
}

/// Advances run-phase thread `i` by one quantum at `now`. Inlined into
/// [`run_phase`], its only caller, so the outcome is branched on directly
/// instead of materialized on every event.
#[inline(always)]
fn advance(p: RunParts<'_>, i: usize, now: Cycle) -> Next {
    let RunParts {
        rt,
        streak,
        mem,
        os,
        quantum,
        retry_budget,
    } = p;
    let (ret, end) = match &mut rt.body {
        Body::Hw(hw) => match hw.advance(mem, now, quantum) {
            HwStep::Yielded { now } => {
                *streak = None;
                return Next::Step(now);
            }
            // Event-driven completion delivery: the thread parked a
            // dependent micro-op on an outstanding miss.
            HwStep::Parked { wake } => {
                *streak = None;
                return Next::Wake(wake);
            }
            HwStep::PageFault { fault, now } => {
                // A fault with no memory op issued since the previous one
                // is a retry that lost its frames again (faulted issues
                // don't re-count on retry). Past the budget the access can
                // never complete — stop instead of spinning to max_events.
                let issued = hw.mem_ops_issued();
                let (count, first) = match streak {
                    Some((at, c, f)) if *at == issued => {
                        *c += 1;
                        (*c, *f)
                    }
                    s => {
                        *s = Some((issued, 1, now));
                        (1, now)
                    }
                };
                if retry_budget > 0 && count > retry_budget {
                    // Re-arm the faulting thread at the trip before
                    // stopping: the checkpoint attached to this error then
                    // has a runnable thread, so restoring it under a raised
                    // `fault_retry_budget` retries the access instead of
                    // wedging. The streak is preserved in the snapshot, so
                    // a resume under the *same* budget trips again.
                    return Next::Stop {
                        error: SimError::Thrashing {
                            thread: rt.name.clone(),
                            faults: count as u64,
                            window: (now - first).0,
                            checkpoint: None,
                        },
                        rearm: true,
                    };
                }
                return Next::Fault {
                    at: now,
                    va: fault.va(),
                    write: fault.access() == Access::Write,
                };
            }
            HwStep::Finished { ret, now } => {
                *streak = None;
                (ret, now)
            }
        },
        Body::Sw(sw) => {
            let os = os.expect("software threads run where the OS lives");
            // Reserve a CPU window, then execute inside it.
            let (start, _) = os.cpus.run_slice(ThreadId(i as u32), now, quantum);
            match sw.run_slice(os, mem, start, quantum) {
                Ok((end, SliceEnd::Finished { ret })) => (ret, end),
                Ok((end, SliceEnd::BudgetExhausted)) => return Next::Step(end),
                Err(fault) => {
                    return Next::Stop {
                        error: SimError::Segv {
                            thread: rt.name.clone(),
                            fault,
                        },
                        rearm: false,
                    }
                }
            }
        }
    };
    rt.ret = ret;
    rt.phase = Phase::Post(0);
    Next::Finished(end)
}

/// One run-phase step of thread `i` on model `m`'s wheel.
pub(crate) fn run_phase<M: StepModel>(m: &mut M, sched: &mut Scheduler<M>, i: usize) {
    let now = sched.now();
    match advance(m.run_parts(i), i, now) {
        Next::Step(at) => m.steps().book(sched, at, i),
        Next::Wake(wake) => m.steps().book_wake(sched, wake, i),
        Next::Finished(at) => m.finished(sched, i, at),
        Next::Fault { at, va, write } => m.fault(sched, i, at, va, write),
        Next::Stop { error, rearm } => {
            if rearm {
                m.steps().book(sched, now, i);
            }
            m.fail(sched, now, error);
        }
    }
}

/// An engine's sync-script executor: the serial engine (follow-ups on its
/// wheel) and the sharded coordinator (follow-ups on its control queue,
/// run-phase entries delivered into shards at the barrier).
pub(crate) trait SyncHost {
    /// Thread `i`'s runtime, wherever it lives.
    fn thread(&mut self, i: usize) -> &mut ThreadRt;
    /// The OS and the application's sync-object ids.
    fn os(&mut self) -> (&mut Os, &[u32]);
    /// Books a step of thread `i` at `at`: the caller's next action, or a
    /// woken thread's.
    fn book(&mut self, at: Cycle, i: usize);
    /// Counts a retired thread.
    fn retire(&mut self);
    /// Thread `i` finished its pre-sync script at `at` and enters its run
    /// phase.
    fn enter_run(&mut self, at: Cycle, i: usize) {
        self.book(at, i);
    }
}

/// Runs thread `i`'s next pre- or post-sync action at `now`: the action
/// through the OS, the caller's OSIF-or-syscall cost, the wakes it causes
/// at their wake costs, and the phase advance — or, past the script's
/// end, run-phase entry (pre) or retirement (post).
pub(crate) fn sync_step<H: SyncHost>(h: &mut H, now: Cycle, i: usize) {
    let rt = h.thread(i);
    let (pre, k) = match rt.phase {
        Phase::Pre(k) => (true, k),
        Phase::Post(k) => (false, k),
        Phase::Run | Phase::Done => unreachable!("sync step outside a sync script"),
    };
    let script = if pre { &rt.pre } else { &rt.post };
    let Some(&action) = script.get(k) else {
        if pre {
            rt.phase = Phase::Run;
            h.enter_run(now, i);
        } else {
            rt.phase = Phase::Done;
            rt.end = Some(now);
            h.retire();
        }
        return;
    };
    // A blocked action completes upon wakeup (FIFO handoff semantics), so
    // the phase index always advances.
    rt.phase = if pre {
        Phase::Pre(k + 1)
    } else {
        Phase::Post(k + 1)
    };
    let placement = rt.placement;
    let (os, sync_ids) = h.os();
    let t = now
        + match placement {
            Placement::Hardware => os.costs.osif_call_total(),
            Placement::Software => os.costs.syscall,
        };
    let tid = ThreadId(i as u32);
    let oid = sync_ids[action.object()];
    let sync = &mut os.sync;
    let (result, wakes) = match action {
        SyncAction::MutexLock(_) => (sync.mutex_lock(tid, oid), vec![]),
        SyncAction::MutexUnlock(_) => (
            SyncResult::Proceed { value: None },
            sync.mutex_unlock(tid, oid),
        ),
        SyncAction::SemWait(_) => (sync.sem_wait(tid, oid), vec![]),
        SyncAction::SemPost(_) => (SyncResult::Proceed { value: None }, sync.sem_post(oid)),
        SyncAction::BarrierWait(_) => sync.barrier_wait(tid, oid),
        SyncAction::MboxPut(_, v) => sync.mbox_put(tid, oid, v),
        SyncAction::MboxGet(_) => sync.mbox_get(tid, oid),
    };
    for w in wakes {
        let j = w.thread().0 as usize;
        let placement = h.thread(j).placement;
        let costs = &h.os().0.costs;
        let cost = match placement {
            Placement::Software => costs.context_switch,
            Placement::Hardware => costs.delegate_wakeup + costs.osif_transfer,
        };
        h.book(t + cost, j);
    }
    // A blocked caller is re-booked by its waker.
    if let SyncResult::Proceed { .. } = result {
        h.book(t, i);
    }
}

/// Names of the threads that have not retired, in application order.
fn unretired<'a>(threads: impl IntoIterator<Item = &'a ThreadRt>) -> Vec<String> {
    threads
        .into_iter()
        .filter(|t| t.phase != Phase::Done)
        .map(|t| t.name.clone())
        .collect()
}

/// The run-level budgets, checked between events (serial) or at barriers
/// (sharded): the event cap and the fault-rate watchdog. Its window
/// anchor is part of every snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Watchdog {
    /// Fault-rate window anchor cycle.
    pub(crate) start: Cycle,
    /// Faults observed at the anchor.
    pub(crate) base_faults: u64,
}

impl Watchdog {
    /// Checks the event cap, then the fault-rate window, at `now` after
    /// `fired` events. A trip returns its error without a checkpoint and
    /// leaves the watchdog untouched, so the caller's snapshot (see
    /// [`with_checkpoint`]) records the position at the trip.
    pub(crate) fn check<'a>(
        &mut self,
        cfg: &SimConfig,
        now: Cycle,
        fired: u64,
        os: &Os,
        threads: impl IntoIterator<Item = &'a ThreadRt>,
    ) -> Option<SimError> {
        if fired > cfg.max_events {
            return Some(SimError::EventLimit {
                cycle: now.0,
                events: fired,
                runnable: unretired(threads),
                checkpoint: None,
            });
        }
        if cfg.thrash_fault_limit > 0 {
            let faults = os.hw_faults() + os.sw_faults();
            if (now - self.start).0 >= cfg.thrash_window {
                self.start = now;
                self.base_faults = faults;
            } else if faults - self.base_faults > cfg.thrash_fault_limit as u64 {
                // No single thread owns a system-wide fault storm. The
                // watchdog trips between events, so the pending steps are
                // intact and the checkpoint resumes under a raised limit.
                return Some(SimError::Thrashing {
                    thread: "system".to_string(),
                    faults: faults - self.base_faults,
                    window: cfg.thrash_window,
                    checkpoint: None,
                });
            }
        }
        None
    }
}

/// Attaches the resumable checkpoint a budget error
/// ([`SimError::EventLimit`] / [`SimError::Thrashing`]) was raised
/// without; every other error passes through.
pub(crate) fn with_checkpoint(
    mut error: SimError,
    snapshot: impl FnOnce() -> Checkpoint,
) -> SimError {
    if let SimError::EventLimit { checkpoint, .. } | SimError::Thrashing { checkpoint, .. } =
        &mut error
    {
        if checkpoint.is_none() {
            *checkpoint = Some(snapshot());
        }
    }
    error
}

/// Assembles the outcome of a run with no events left: the makespan and
/// per-thread metrics — or [`SimError::Deadlock`] naming the threads still
/// blocked on synchronization.
pub(crate) fn outcome(
    threads: Vec<ThreadRt>,
    buffer_vas: Vec<VirtAddr>,
    mem: MemorySystem,
    os: Os,
    asid: Asid,
    shootdowns: u64,
    sync: Option<ShardSyncStats>,
) -> Result<SimOutcome, SimError> {
    let blocked = unretired(&threads);
    if !blocked.is_empty() {
        return Err(SimError::Deadlock { blocked });
    }
    let makespan = threads
        .iter()
        .filter_map(|t| t.end)
        .max()
        .unwrap_or(Cycle::ZERO);
    let threads = threads
        .into_iter()
        .map(|t| ThreadMetrics {
            name: t.name,
            placement: t.placement,
            start: t.start,
            end: t.end.expect("all threads finished"),
            ret: t.ret,
            body: t.body,
            stats: OnceCell::new(),
        })
        .collect();
    Ok(SimOutcome {
        makespan,
        threads,
        stats: OnceCell::new(),
        buffer_vas,
        mem,
        os,
        asid,
        shootdowns,
        sync,
    })
}

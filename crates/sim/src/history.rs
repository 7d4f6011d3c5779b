//! Operation-history recording for linearizability checking.
//!
//! Where [`trace`](crate::trace) records low-level *events* (transaction
//! boundaries, epoch pins), this module records whole *operations* —
//! invocation and response, stamped with the recording thread's virtual
//! clock — so `pto-check` can replay them against a sequential
//! specification and decide whether the concurrent execution linearizes.
//!
//! The recorded payload is deliberately untyped: an operation is a `u16`
//! code plus two `u64` words (argument and encoded return value). The
//! meaning of the codes belongs to the recorder (`pto_check::record`); this
//! module only owns the typed front end over [`probe`](crate::probe), which
//! must live next to [`clock`](crate::clock) so the stamps are the same
//! virtual cycles every other subsystem reports.
//!
//! A [`HistorySession`] binds to the arming thread's context and every
//! `Sim` lane or `par` job that inherits it, so many sessions can record
//! concurrently on disjoint threads — the sharded lincheck explorer runs
//! one per cell. Design constraints mirror [`trace`](crate::trace):
//!
//! 1. **Zero effect when disarmed.** [`record`] never calls
//!    [`charge`](crate::charge) and its disarmed path is a single relaxed
//!    atomic load, so virtual-time results are bit-identical with recording
//!    compiled in but disarmed (the `golden_makespan` suite runs with the
//!    hooks in place).
//! 2. **Bounded memory.** Each per-thread buffer stores at most the session
//!    capacity; overflow increments a drop counter, and a drained history
//!    that dropped records is unusable for checking (the checker refuses
//!    incomplete histories).
//! 3. **Whole histories or a visible loss.** A thread's buffer never
//!    rotates, so its program order stays in one [`ThreadHistory`].
//!    [`RawHistory::lost_threads`] counts any buffer that was created but
//!    never collected, so a checker can refuse the history rather than
//!    silently verify a subset.

use crate::{ctx, probe};
use std::cell::RefCell;
use std::sync::atomic::AtomicUsize;

/// Default per-thread operation capacity of a session.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// One completed operation as the recorder saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Virtual clock at invocation (before the operation ran).
    pub inv: u64,
    /// Virtual clock at response (after it returned). `res >= inv` on a
    /// given thread; cross-thread comparisons carry the gate skew.
    pub res: u64,
    /// Operation code; meaning assigned by the recorder.
    pub op: u16,
    /// Operation argument (key/value), recorder-defined.
    pub arg: u64,
    /// Encoded return value, recorder-defined.
    pub ret: u64,
}

/// One recording thread's operation sequence, in program order.
pub type ThreadHistory = probe::Track<OpRecord>;

/// Live history sessions in the process (the disarmed check).
static LIVE: AtomicUsize = AtomicUsize::new(0);

impl probe::Kind for OpRecord {
    type Era = ();
    const SESSION: &'static str = "HistorySession";
    const SLOT: usize = ctx::SLOT_HISTORY;
    const DROP_OLDEST: bool = false;
    // A split would cut the program-order edges the checker relies on.
    const ROTATE: bool = false;
    fn live() -> &'static AtomicUsize {
        &LIVE
    }
    fn ts(&self) -> u64 {
        self.res
    }
    fn buffer(local: &probe::Local) -> &RefCell<Option<probe::Buffer<Self>>> {
        &local.history
    }
}

/// True while the current thread would record: a [`HistorySession`] is
/// armed in its context (recorders may use this to skip building payloads;
/// [`record`] is safe to call either way).
#[inline]
pub fn armed() -> bool {
    probe::live::<OpRecord>() && ctx::is_set(ctx::SLOT_HISTORY)
}

/// Record one completed operation on the current thread.
///
/// `inv` and `res` are the caller's [`now`](crate::now) readings bracketing
/// the operation (reading the clock charges nothing). A no-op (one relaxed
/// load) unless a session is live; records only on threads whose context
/// carries one. Never charges virtual time.
#[inline]
pub fn record(op: u16, arg: u64, ret: u64, inv: u64, res: u64) {
    if !probe::live::<OpRecord>() {
        return;
    }
    record_slow(op, arg, ret, inv, res);
}

#[cold]
fn record_slow(op: u16, arg: u64, ret: u64, inv: u64, res: u64) {
    probe::record(|_, _| OpRecord {
        inv,
        res,
        op,
        arg,
        ret,
    });
}

/// A drained session: one [`ThreadHistory`] per recording thread, in
/// thread-creation order.
#[derive(Debug)]
pub struct RawHistory {
    pub threads: Vec<ThreadHistory>,
    /// Buffers created during the session that never reached its sink (a
    /// recording thread outside `Sim` and `par` was still running, or its
    /// TLS destructor lost the race with the drain). Nonzero means the
    /// history is incomplete and must not be checked.
    pub lost_threads: u64,
}

impl RawHistory {
    /// Total recorded operations across all threads.
    pub fn ops(&self) -> usize {
        self.threads.iter().map(|t| t.items.len()).sum()
    }

    /// Total operations discarded due to capacity, across all threads.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// True when every created buffer was collected and none overflowed:
    /// the history is exactly what the recorders observed.
    pub fn complete(&self) -> bool {
        self.lost_threads == 0 && self.dropped() == 0
    }
}

/// A scoped arming of history recording, bound to the arming thread's
/// context (and the `Sim` lanes and `par` jobs that inherit it). At most
/// one session can be armed per context; [`HistorySession::drain`] (or
/// drop) disarms.
///
/// `Sim` lanes and `par` jobs park their buffers as they finish; any other
/// scoped thread that records must call
/// [`probe::flush_local`](crate::probe::flush_local) before it returns.
/// Check [`RawHistory::lost_threads`] before trusting the result.
#[must_use = "an unarmed session records nothing; call drain() to collect"]
pub struct HistorySession(probe::Session<OpRecord>);

impl HistorySession {
    /// Arm recording with [`DEFAULT_CAPACITY`] operations per thread.
    pub fn arm() -> HistorySession {
        HistorySession::with_capacity(DEFAULT_CAPACITY)
    }

    /// Arm recording with an explicit per-thread operation capacity.
    ///
    /// Panics if a session is already armed in this context.
    pub fn with_capacity(capacity: usize) -> HistorySession {
        HistorySession(probe::Session::arm(capacity))
    }

    /// Disarm and collect everything recorded since arming.
    pub fn drain(self) -> RawHistory {
        let (threads, lost_threads) = self.0.drain();
        RawHistory {
            threads,
            lost_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_record_is_a_no_op() {
        record(1, 2, 3, 0, 10);
        let raw = HistorySession::arm().drain();
        assert_eq!(raw.ops(), 0);
        assert!(!armed());
    }

    #[test]
    fn records_round_trip_in_program_order() {
        let session = HistorySession::arm();
        assert!(armed());
        record(1, 100, 1, 0, 5);
        record(2, 200, 0, 5, 9);
        let raw = session.drain();
        let own = raw
            .threads
            .iter()
            .find(|t| t.items.iter().any(|o| o.arg == 100))
            .expect("own thread history");
        assert_eq!(own.items.len(), 2);
        assert_eq!(own.items[0], OpRecord { inv: 0, res: 5, op: 1, arg: 100, ret: 1 });
        assert_eq!(own.items[1], OpRecord { inv: 5, res: 9, op: 2, arg: 200, ret: 0 });
        // Recording after drain is a no-op.
        record(3, 300, 0, 9, 12);
        let raw2 = HistorySession::arm().drain();
        assert_eq!(raw2.ops(), 0);
    }

    #[test]
    fn flushed_worker_histories_survive_scope_join() {
        let session = HistorySession::arm();
        let inherited = ctx::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                ctx::adopt(&inherited);
                record(7, 1, 0, 0, 1);
                record(7, 2, 0, 1, 2);
                probe::flush_local();
            });
            s.spawn(|| {
                ctx::adopt(&inherited);
                record(7, 3, 0, 0, 1);
                probe::flush_local();
            });
        });
        let raw = session.drain();
        assert_eq!(raw.lost_threads, 0);
        assert_eq!(raw.ops(), 3);
        // Two distinct thread histories with stable ordinals.
        assert_eq!(raw.threads.len(), 2);
        assert_ne!(raw.threads[0].ordinal, raw.threads[1].ordinal);
        assert!(raw.complete());
    }

    #[test]
    fn joined_thread_history_is_parked_by_tls_destructor() {
        // Plain spawn + join waits for TLS destructors, so the backup
        // parking path collects without an explicit flush.
        let session = HistorySession::arm();
        let inherited = ctx::capture();
        std::thread::spawn(move || {
            ctx::adopt(&inherited);
            record(7, 9, 0, 0, 1)
        })
        .join()
        .unwrap();
        let raw = session.drain();
        assert_eq!(raw.lost_threads, 0);
        assert_eq!(raw.ops(), 1);
        assert_eq!(raw.threads[0].items[0].arg, 9);
    }

    #[test]
    fn unflushed_scoped_worker_is_counted_as_lost() {
        // A scoped worker that skips the flush may or may not win the TLS
        // destructor race against the drain; either way the accounting must
        // balance so the checker can tell whether the history is whole.
        let session = HistorySession::arm();
        let inherited = ctx::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                ctx::adopt(&inherited);
                record(7, 1, 0, 0, 1)
            });
        });
        let raw = session.drain();
        assert_eq!(raw.threads.len() as u64 + raw.lost_threads, 1);
        assert_eq!(raw.complete(), raw.ops() == 1);
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let session = HistorySession::with_capacity(3);
        for i in 0..10 {
            record(1, i, 0, i, i + 1);
        }
        let raw = session.drain();
        assert_eq!(raw.ops(), 3);
        assert_eq!(raw.dropped(), 7);
    }

    #[test]
    fn double_arm_panics_and_abandoned_session_disarms() {
        let session = HistorySession::arm();
        assert!(std::panic::catch_unwind(HistorySession::arm).is_err());
        drop(session); // abandoned: must disarm
        HistorySession::arm().drain();
    }

    #[test]
    fn sim_lane_histories_park_at_detach() {
        let session = HistorySession::arm();
        assert!(armed(), "a session must arm the current thread");
        let out = crate::Sim::new(2).run(|lane| {
            let t0 = crate::now();
            crate::charge_cycles(10);
            record(9, lane as u64, 0, t0, crate::now());
        });
        assert_eq!(out.per_thread.len(), 2);
        let raw = session.drain();
        assert_eq!(raw.lost_threads, 0);
        assert_eq!(raw.ops(), 2);
        assert!(!armed(), "draining disarms the thread");
        // Nothing leaks into a later session.
        assert_eq!(HistorySession::arm().drain().ops(), 0);
    }

    #[test]
    fn concurrent_sessions_stay_isolated() {
        // Four worker threads, each its own session and its own 2-lane
        // sim: the sharded-lincheck shape. Each drain must see exactly its
        // own cell's ops.
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for cell in 0..4u64 {
                handles.push(s.spawn(move || {
                    let session = HistorySession::arm();
                    crate::Sim::new(2).run(|_| {
                        for i in 0..10 + cell {
                            record(1, cell * 1000 + i, 0, i, i + 1);
                        }
                    });
                    (cell, session.drain())
                }));
            }
            for h in handles {
                let (cell, raw) = h.join().unwrap();
                assert_eq!(raw.lost_threads, 0, "cell {cell}");
                assert_eq!(raw.ops() as u64, 2 * (10 + cell), "cell {cell}");
                for t in &raw.threads {
                    assert!(
                        t.items.iter().all(|o| o.arg / 1000 == cell),
                        "cell {cell} saw a foreign record"
                    );
                }
            }
        });
    }

    #[test]
    fn lane_is_captured_from_the_gate() {
        let session = HistorySession::arm();
        let out = crate::Sim::new(2).run(|lane| {
            let t0 = crate::now();
            crate::charge_cycles(10);
            record(9, lane as u64, 0, t0, crate::now());
        });
        assert_eq!(out.per_thread.len(), 2);
        let raw = session.drain();
        assert_eq!(raw.lost_threads, 0);
        let lanes: Vec<Option<usize>> = raw.threads.iter().map(|t| t.lane).collect();
        assert!(lanes.contains(&Some(0)) && lanes.contains(&Some(1)), "{lanes:?}");
        for t in &raw.threads {
            assert!(t.items.iter().all(|o| o.res >= o.inv));
        }
    }
}

//! HTM event statistics (begins, commits, aborts by cause).
//!
//! Three layers:
//!
//! * the **process-global** counters behind [`snapshot`] record every
//!   transaction attempt made outside an [`HtmScope`]; whole-run summaries
//!   take a snapshot before and after a region and diff them with
//!   [`HtmSnapshot::delta`];
//! * [`HtmScope`] is a **cell-scoped** counter block (a
//!   [`probe::Scope`] in context slot [`ctx::SLOT_HTM_STATS`]): while
//!   installed, every attempt on the installing thread — and on `Sim`
//!   lanes / `par` workers it spawns — records into the scope instead of
//!   the globals, so concurrent sweep cells measure independently. The
//!   scope's totals flush into the globals when it drops, so whole-run
//!   summaries still add up;
//! * [`CauseCounters`] is an embeddable per-*variant* cause block — each
//!   PTO'd structure (and the TLE baseline) owns one, so several variants
//!   running in one process report independent abort-cause mixes. This is
//!   the diagnostic loop the paper used to tune its retry thresholds
//!   (§3.1, §4.2).
//!
//! Commits and aborts additionally bucket by **locality**: an event on a
//! lane charged a remote-socket cost table (see
//! [`pto_sim::clock::on_remote_socket`]) also counts as `remote_*`, so
//! NUMA-profile sweeps can attribute throughput to sockets.

use crate::txn::AbortCause;
use pto_sim::ctx;
use pto_sim::metrics::{self, Series};
use pto_sim::probe::{self, Block};
use pto_sim::stats::Counter;
use pto_sim::trace::{self, EventKind};

/// Per-cause abort counters, embeddable in any per-variant stats block
/// (`PtoStats`). All increments are relaxed; read with `get()`.
#[derive(Default, Debug)]
pub struct CauseCounters {
    /// Conflicting concurrent (or non-transactional) access.
    pub conflict: Counter,
    /// Read/write set exceeded the best-effort capacity.
    pub capacity: Counter,
    /// `TxAbort` executed by the program (helping avoidance, §2.4).
    pub explicit: Counter,
    /// `TxBegin` inside a running transaction.
    pub nested: Counter,
    /// Spontaneous best-effort failure (failure injection).
    pub spurious: Counter,
}

impl CauseCounters {
    pub const fn new() -> Self {
        CauseCounters {
            conflict: Counter::new(),
            capacity: Counter::new(),
            explicit: Counter::new(),
            nested: Counter::new(),
            spurious: Counter::new(),
        }
    }

    /// Record one abort under its cause bucket.
    #[inline]
    pub fn record(&self, cause: AbortCause) {
        match cause {
            AbortCause::Conflict => self.conflict.inc(),
            AbortCause::Capacity => self.capacity.inc(),
            AbortCause::Explicit(_) => self.explicit.inc(),
            AbortCause::Nested => self.nested.inc(),
            AbortCause::Spurious => self.spurious.inc(),
        }
    }

    /// Total aborts across every cause.
    pub fn total(&self) -> u64 {
        self.conflict.get()
            + self.capacity.get()
            + self.explicit.get()
            + self.nested.get()
            + self.spurious.get()
    }

    pub fn reset(&self) {
        self.conflict.reset();
        self.capacity.reset();
        self.explicit.reset();
        self.nested.reset();
        self.spurious.reset();
    }
}

pto_sim::counters! {
    /// A point-in-time copy of the HTM counters.
    pub struct HtmSnapshot, block HtmBlock, slot ctx::SLOT_HTM_STATS, global GLOBAL {
        begins,
        commits,
        aborts_conflict,
        aborts_capacity,
        aborts_explicit,
        aborts_nested,
        aborts_spurious,
        /// Commits on lanes modeling a remote (non-socket-0) NUMA socket.
        remote_commits,
        /// Aborts (any cause) on remote-socket lanes.
        remote_aborts,
    }
}

/// A transaction began at read version `rv`.
#[inline]
pub(crate) fn on_begin(rv: u64) {
    probe::count::<HtmBlock>(|b| b.begins.inc());
    trace::emit(EventKind::TxBegin { rv });
}

/// A transaction committed at write version `wv`.
#[inline]
pub(crate) fn on_commit(wv: u64) {
    let remote = pto_sim::clock::on_remote_socket();
    probe::count::<HtmBlock>(|b| {
        b.commits.inc();
        if remote {
            b.remote_commits.inc();
        }
    });
    trace::emit(EventKind::TxCommit { wv });
    metrics::emit(Series::Commits, 1);
}

/// A begun transaction aborted with `cause`.
#[inline]
pub(crate) fn on_abort(cause: AbortCause) {
    let series = count_abort(cause);
    trace::emit(EventKind::TxAbort {
        cause: cause.trace_code(),
    });
    metrics::emit(series, 1);
}

/// A `TxBegin` inside a running transaction aborted. It never began, so
/// it emits no trace event.
#[inline]
pub(crate) fn on_nested() {
    metrics::emit(count_abort(AbortCause::Nested), 1);
}

/// Count one abort under its cause, and return the cause's metrics series.
#[inline]
fn count_abort(cause: AbortCause) -> Series {
    let remote = pto_sim::clock::on_remote_socket();
    let (series, counter): (Series, fn(&HtmBlock) -> &Counter) = match cause {
        AbortCause::Conflict => (Series::AbortConflict, |b| &b.aborts_conflict),
        AbortCause::Capacity => (Series::AbortCapacity, |b| &b.aborts_capacity),
        AbortCause::Explicit(_) => (Series::AbortExplicit, |b| &b.aborts_explicit),
        AbortCause::Nested => (Series::AbortNested, |b| &b.aborts_nested),
        AbortCause::Spurious => (Series::AbortSpurious, |b| &b.aborts_spurious),
    };
    probe::count::<HtmBlock>(|b| {
        counter(b).inc();
        if remote {
            b.remote_aborts.inc();
        }
    });
    series
}

/// RAII scope isolating HTM statistics for one sweep cell: while alive,
/// transaction events on the installing thread (and the `Sim` lanes and
/// [`pto_sim::par`] jobs that inherit its context) record into the scope
/// instead of the process globals. Read the cell's own totals with
/// `snapshot()`; on drop the totals flush into the globals, so
/// [`snapshot`]-based whole-run summaries see every event exactly once.
pub type HtmScope = probe::Scope<HtmBlock>;

impl HtmSnapshot {
    pub fn total_aborts(&self) -> u64 {
        self.aborts_conflict
            + self.aborts_capacity
            + self.aborts_explicit
            + self.aborts_nested
            + self.aborts_spurious
    }

    /// Fraction of begun transactions that committed, in [0, 1].
    pub fn commit_rate(&self) -> f64 {
        if self.begins == 0 {
            0.0
        } else {
            self.commits as f64 / self.begins as f64
        }
    }
}

/// Read the current **process-global** counters. Events recorded inside a
/// live [`HtmScope`] are not visible here until that scope drops (and
/// flushes).
pub fn snapshot() -> HtmSnapshot {
    GLOBAL.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_rate_handles_zero_begins() {
        let s = HtmSnapshot::default();
        assert_eq!(s.commit_rate(), 0.0);
    }

    #[test]
    fn total_aborts_sums_causes() {
        let s = HtmSnapshot {
            begins: 10,
            commits: 4,
            aborts_conflict: 1,
            aborts_capacity: 2,
            aborts_explicit: 3,
            ..Default::default()
        };
        assert_eq!(s.total_aborts(), 6);
        assert!((s.commit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn sim_lanes_record_into_the_spawners_scope() {
        let scope = HtmScope::new();
        let w = crate::TxWord::new(0);
        pto_sim::Sim::new(4).run(|_| {
            let _ = crate::transaction(|tx| tx.read(&w));
            let _: Result<(), _> = crate::transaction(|tx| Err(tx.abort(1)));
        });
        let s = scope.snapshot();
        assert_eq!(s.aborts_explicit, 4);
        assert_eq!(s.begins, s.commits + s.total_aborts());
        assert_eq!(s.begins, 8);
    }

    #[test]
    fn remote_lanes_bucket_commits_by_socket() {
        use pto_sim::{CostProfile, Sim};
        let scope = HtmScope::new();
        let w = crate::TxWord::new(0);
        // 16 NumaIsh lanes: lanes 0-7 are socket 0 (local), 8-15 remote.
        Sim::new(16)
            .with_profile(CostProfile::NumaIsh)
            .run(|_| {
                let _ = crate::transaction(|tx| tx.read(&w));
            });
        let s = scope.snapshot();
        assert_eq!(s.commits + s.total_aborts(), 16);
        assert_eq!(
            s.remote_commits + s.remote_aborts,
            8,
            "exactly the 8 off-socket lanes must tag remote: {s:?}"
        );
    }

    #[test]
    fn cause_counters_bucket_by_cause() {
        let c = CauseCounters::new();
        c.record(AbortCause::Conflict);
        c.record(AbortCause::Conflict);
        c.record(AbortCause::Capacity);
        c.record(AbortCause::Explicit(7));
        c.record(AbortCause::Nested);
        c.record(AbortCause::Spurious);
        assert_eq!(c.conflict.get(), 2);
        assert_eq!(c.capacity.get(), 1);
        assert_eq!(c.explicit.get(), 1);
        assert_eq!(c.nested.get(), 1);
        assert_eq!(c.spurious.get(), 1);
        assert_eq!(c.total(), 6);
        c.reset();
        assert_eq!(c.total(), 0);
    }
}

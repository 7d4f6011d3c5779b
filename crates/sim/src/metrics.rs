//! Virtual-time metrics: counter time-series and per-cell aggregates.
//!
//! Traces (PR 3) record individual events; this module records the
//! *trajectory* of the load-bearing gauges — commit/abort rates per cause,
//! fallback occupancy, gate skew and park/backstop counts, epoch lag, pool
//! magazine occupancy, limbo depth — as virtual-time-stamped samples in
//! bounded per-lane rings. A [`MetricsSession`] arms the rings in its
//! thread's context through [`probe`](crate::probe), the recorder shared
//! with trace and history; drained, it exports the series
//! as Perfetto **counter tracks**, either standalone
//! ([`Metrics::to_chrome_json`]) or merged into a trace export
//! ([`Trace::to_chrome_json_with_metrics`](crate::trace::Trace::to_chrome_json_with_metrics))
//! so spans and counters line up on one timeline.
//!
//! Independent of any session, a [`MetricsScope`] aggregates the same
//! series (count/sum/max per [`Series`]) for one sweep cell via context
//! slot [`ctx::SLOT_METRICS`](crate::ctx::SLOT_METRICS), giving the bench
//! reports per-cell gauge summaries without rings or drains.
//!
//! Design constraints, matching [`trace`](crate::trace):
//!
//! 1. **Zero effect when disarmed.** [`emit`]'s disarmed path is a single
//!    relaxed load of one process-global counter, and the armed path never
//!    calls [`charge`](crate::charge) — virtual-time results are
//!    bit-identical armed or not (`tests/metrics_overhead.rs`).
//! 2. **Bounded memory, oldest-dropped.** Each per-thread ring holds at
//!    most the session capacity. Unlike trace buffers (which keep the
//!    *oldest* events — the interesting ramp-up), a saturated metrics ring
//!    drops its **oldest** samples: the series' recent trajectory is the
//!    signal. Cumulative series carry per-track running totals in every
//!    sample, so dropping old samples loses time resolution but the latest
//!    sample's count stays exact.
//! 3. **No cross-thread coordination on the hot path.** Rings are
//!    thread-local; finished rings park into the session's sink when the
//!    lane detaches or on a clock-era rotation, exactly like trace tracks.

use crate::{ctx, probe};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default per-thread sample capacity of a session.
pub const DEFAULT_CAPACITY: usize = 1 << 14;

/// Number of [`Series`] variants (array-index domain).
pub const N_SERIES: usize = 19;

/// One tracked metric. `Cumulative` series sample a per-track running
/// total on every emit (the emitted value is the increment); `Gauge`
/// series sample the emitted level directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Series {
    /// Committed transaction attempts.
    Commits = 0,
    /// Aborts by [`AbortCause` trace code](crate::trace::CAUSE_NAMES).
    AbortConflict = 1,
    AbortCapacity = 2,
    AbortExplicit = 3,
    AbortNested = 4,
    AbortSpurious = 5,
    /// Gauge: 1 while the lane executes a non-speculative fallback, 0
    /// otherwise (fallback occupancy).
    FallbackDepth = 6,
    /// Gate parks (lane blocked waiting for stragglers).
    GateParks = 7,
    /// Gauge: the parking lane's clock minus the gate's published lower
    /// bound, in cycles (how far ahead of the pack the lane ran).
    GateSkew = 8,
    /// Tournament-root staleness backstops: exact `O(lanes)` rescans fired
    /// from the park poll loop because the cached root bound went stale.
    GateBackstops = 9,
    /// Gauge: global epoch minus the oldest pinned announcement, in epochs
    /// (how far reclamation lags the frontier).
    EpochLag = 10,
    /// Gauge: the allocating thread's pool magazine occupancy after the
    /// operation.
    PoolMagazine = 11,
    /// Gauge: shared limbo-queue depth (retired slots awaiting grace).
    LimboDepth = 12,
    /// Requests serviced by flat-combining rounds.
    CombineServiced = 13,
    /// Gauge: the retry budget an adaptive policy granted the current
    /// operation's call site (attempts allowed before fallback).
    PolicySiteBudget = 14,
    /// Middle-path entries: attempts re-run under a software-held orec
    /// instead of a full fallback.
    PolicyMiddleEntries = 15,
    /// Adaptive-regime transitions (a call site flipping between
    /// healthy/conflict/capacity/spurious handling).
    PolicyAdaptFlips = 16,
    /// Composed cross-structure operations started (each `Composed::run`).
    PolicyComposeEntries = 17,
    /// Composed operations that demoted to the ordered-lock fallback.
    PolicyComposeFallbacks = 18,
}

/// Every series, in index order.
pub const ALL_SERIES: [Series; N_SERIES] = [
    Series::Commits,
    Series::AbortConflict,
    Series::AbortCapacity,
    Series::AbortExplicit,
    Series::AbortNested,
    Series::AbortSpurious,
    Series::FallbackDepth,
    Series::GateParks,
    Series::GateSkew,
    Series::GateBackstops,
    Series::EpochLag,
    Series::PoolMagazine,
    Series::LimboDepth,
    Series::CombineServiced,
    Series::PolicySiteBudget,
    Series::PolicyMiddleEntries,
    Series::PolicyAdaptFlips,
    Series::PolicyComposeEntries,
    Series::PolicyComposeFallbacks,
];

impl Series {
    /// Stable exported name (the Perfetto counter-track name).
    pub fn name(self) -> &'static str {
        match self {
            Series::Commits => "commits",
            Series::AbortConflict => "abort_conflict",
            Series::AbortCapacity => "abort_capacity",
            Series::AbortExplicit => "abort_explicit",
            Series::AbortNested => "abort_nested",
            Series::AbortSpurious => "abort_spurious",
            Series::FallbackDepth => "fallback_depth",
            Series::GateParks => "gate_parks",
            Series::GateSkew => "gate_skew",
            Series::GateBackstops => "gate_backstops",
            Series::EpochLag => "epoch_lag",
            Series::PoolMagazine => "pool_magazine",
            Series::LimboDepth => "limbo_depth",
            Series::CombineServiced => "combine_serviced",
            Series::PolicySiteBudget => "policy.site_budget",
            Series::PolicyMiddleEntries => "policy.middle_entries",
            Series::PolicyAdaptFlips => "policy.adapt_flips",
            Series::PolicyComposeEntries => "policy.compose_entries",
            Series::PolicyComposeFallbacks => "policy.compose_fallbacks",
        }
    }

    /// Does this series sample a running total (vs a level)?
    pub fn is_cumulative(self) -> bool {
        matches!(
            self,
            Series::Commits
                | Series::AbortConflict
                | Series::AbortCapacity
                | Series::AbortExplicit
                | Series::AbortNested
                | Series::AbortSpurious
                | Series::GateParks
                | Series::GateBackstops
                | Series::CombineServiced
                | Series::PolicyMiddleEntries
                | Series::PolicyAdaptFlips
                | Series::PolicyComposeEntries
                | Series::PolicyComposeFallbacks
        )
    }
}

/// One timestamped sample: `ts` is the emitting thread's virtual clock,
/// `value` a running total (cumulative series) or a level (gauges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub ts: u64,
    pub series: Series,
    pub value: u64,
}

/// One thread's (one clock-era's) sample ring, oldest-dropped.
pub type MetricsTrack = probe::Track<Sample>;

/// Count of live arming sources: +1 per armed [`MetricsSession`], +1 per
/// live [`MetricsScope`]. The disarmed [`emit`] path is exactly one
/// relaxed load of this.
static LIVE: AtomicUsize = AtomicUsize::new(0);

impl probe::Kind for Sample {
    /// Per-track running totals of the cumulative series; a rotation
    /// restarts them from zero.
    type Era = [u64; N_SERIES];
    const SESSION: &'static str = "MetricsSession";
    const SLOT: usize = ctx::SLOT_METRICS_RING;
    // The recent trajectory is the signal: evict the oldest samples.
    const DROP_OLDEST: bool = true;
    const ROTATE: bool = true;
    fn live() -> &'static AtomicUsize {
        &LIVE
    }
    fn ts(&self) -> u64 {
        self.ts
    }
    fn buffer(local: &probe::Local) -> &RefCell<Option<probe::Buffer<Self>>> {
        &local.metrics
    }
}

/// Record one metric emission on the current thread.
///
/// For cumulative series `value` is the increment; for gauges it is the
/// new level. A no-op (one relaxed load) unless a [`MetricsSession`] or a
/// [`MetricsScope`] is live somewhere in the process; records only into
/// those in the thread's context. Never charges virtual time.
#[inline]
pub fn emit(series: Series, value: u64) {
    if !probe::live::<Sample>() {
        return;
    }
    emit_slow(series, value);
}

/// Like [`emit`], but the value is computed only when a consumer is armed
/// in this thread's context — for emit sites whose value itself costs
/// something to read (e.g. a clock difference).
#[inline]
pub fn emit_with(series: Series, value: impl FnOnce() -> u64) {
    if !probe::live::<Sample>() {
        return;
    }
    if ctx::is_set(ctx::SLOT_METRICS) || ctx::is_set(ctx::SLOT_METRICS_RING) {
        emit_slow(series, value());
    }
}

#[cold]
fn emit_slow(series: Series, value: u64) {
    // Per-cell aggregation first: scopes see every emission on threads
    // that inherited their context slot, session or no session.
    probe::count::<MetricsBlock>(|b| b.record(series, value));
    probe::record(|ts, totals: &mut [u64; N_SERIES]| {
        let value = if series.is_cumulative() {
            let t = &mut totals[series as usize];
            *t = t.saturating_add(value);
            *t
        } else {
            value
        };
        Sample { ts, series, value }
    });
}

/// A scoped arming of the metrics rings, bound to the arming thread's
/// context (and the `Sim` lanes and `par` jobs that inherit it). At most
/// one session can be armed per context; [`MetricsSession::drain`] (or
/// drop) disarms.
///
/// Like [`TraceSession`](crate::trace::TraceSession), draining while
/// worker threads are still running loses their rings: drain from the
/// arming thread after `Sim::run` or the `par` batch returns.
#[must_use = "an unarmed session records nothing; call drain() to collect"]
pub struct MetricsSession(probe::Session<Sample>);

impl MetricsSession {
    /// Arm with [`DEFAULT_CAPACITY`] samples per thread.
    pub fn arm() -> MetricsSession {
        MetricsSession::with_capacity(DEFAULT_CAPACITY)
    }

    /// Arm with an explicit per-thread sample capacity.
    ///
    /// Panics if a session is already armed in this context.
    pub fn with_capacity(capacity: usize) -> MetricsSession {
        MetricsSession(probe::Session::arm(capacity))
    }

    /// Disarm and collect everything recorded since arming.
    pub fn drain(self) -> Metrics {
        Metrics {
            tracks: self.0.drain().0,
        }
    }
}

/// Offset separating metrics-track tids from trace-track tids in merged
/// Chrome exports (trace ordinals are small; this keeps the id spaces
/// disjoint so per-track ts monotonicity holds independently).
pub(crate) const METRICS_TID_BASE: u64 = 1 << 20;

/// A drained sample stream: one [`MetricsTrack`] per thread per clock era.
#[derive(Debug)]
pub struct Metrics {
    pub tracks: Vec<MetricsTrack>,
}

impl Metrics {
    /// Total stored samples across all tracks.
    pub fn samples(&self) -> usize {
        self.tracks.iter().map(|t| t.items.len()).sum()
    }

    /// Total samples evicted (oldest-dropped), across all tracks.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// True if any track sampled `series`.
    pub fn has(&self, series: Series) -> bool {
        self.tracks
            .iter()
            .any(|t| t.items.iter().any(|s| s.series == series))
    }

    /// Distinct series sampled anywhere in the session, in index order.
    pub fn series_present(&self) -> Vec<Series> {
        ALL_SERIES
            .iter()
            .copied()
            .filter(|&s| self.has(s))
            .collect()
    }

    /// Final running total of a cumulative series, summed over tracks
    /// (each track's last sample carries its exact per-era total).
    pub fn final_total(&self, series: Series) -> u64 {
        debug_assert!(series.is_cumulative());
        self.tracks
            .iter()
            .map(|t| {
                t.items
                    .iter()
                    .rev()
                    .find(|s| s.series == series)
                    .map_or(0, |s| s.value)
            })
            .sum()
    }

    /// Write this dump's counter events (plus per-track `thread_name`
    /// metadata) into an open `traceEvents` array.
    pub(crate) fn write_counter_events(&self, out: &mut String) {
        for track in &self.tracks {
            let tid = METRICS_TID_BASE + track.ordinal;
            let tname = match track.lane {
                Some(l) => format!("metrics lane {l} (track {})", track.ordinal),
                None => format!("metrics main (track {})", track.ordinal),
            };
            crate::trace::push_event(
                out,
                "thread_name",
                "M",
                tid,
                0,
                Some(&format!("{{\"name\":\"{}\"}}", crate::json::escape(&tname))),
            );
            let mut last_ts = 0u64;
            for s in &track.items {
                last_ts = s.ts;
                crate::trace::push_event(
                    out,
                    s.series.name(),
                    "C",
                    tid,
                    s.ts,
                    Some(&format!("{{\"value\":{}}}", s.value)),
                );
            }
            if track.dropped > 0 {
                crate::trace::push_event(
                    out,
                    "metrics_dropped",
                    "C",
                    tid,
                    last_ts,
                    Some(&format!("{{\"dropped\":{}}}", track.dropped)),
                );
            }
        }
    }

    /// Export the counter tracks alone as Chrome trace-event JSON. To see
    /// counters on the same timeline as spans, use
    /// [`Trace::to_chrome_json_with_metrics`](crate::trace::Trace::to_chrome_json_with_metrics).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        self.write_counter_events(&mut out);
        if out.ends_with(",\n") {
            out.truncate(out.len() - 2);
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// In-terminal summary: per-series sample counts and final values.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "metrics summary: {} tracks, {} samples, {} dropped\n",
            self.tracks.len(),
            self.samples(),
            self.dropped()
        );
        let _ = writeln!(out, "  {:<18} {:>8} {:>14}", "series", "samples", "final/total");
        for s in self.series_present() {
            let n: usize = self
                .tracks
                .iter()
                .map(|t| t.items.iter().filter(|x| x.series == s).count())
                .sum();
            let fin = if s.is_cumulative() {
                self.final_total(s)
            } else {
                // Latest observed level across tracks.
                self.tracks
                    .iter()
                    .filter_map(|t| t.items.iter().rev().find(|x| x.series == s))
                    .map(|x| x.value)
                    .max()
                    .unwrap_or(0)
            };
            let _ = writeln!(out, "  {:<18} {:>8} {:>14}", s.name(), n, fin);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Per-cell scoped aggregation.
// ---------------------------------------------------------------------------

/// Lock-free per-series aggregate cell: emission count, sum of emitted
/// values (increments for cumulative series, levels for gauges), and max.
#[derive(Default)]
struct SeriesAgg {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// One [`MetricsScope`]'s aggregate block, installed in
/// [`ctx::SLOT_METRICS`].
#[derive(Default)]
pub struct MetricsBlock {
    cells: [SeriesAgg; N_SERIES],
}

impl MetricsBlock {
    fn record(&self, series: Series, value: u64) {
        let c = &self.cells[series as usize];
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
        c.max.fetch_max(value, Ordering::Relaxed);
    }
}

impl probe::Block for MetricsBlock {
    type Snapshot = MetricsSnapshot;
    const SLOT: usize = ctx::SLOT_METRICS;
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counts: std::array::from_fn(|i| self.cells[i].count.load(Ordering::Relaxed)),
            sums: std::array::from_fn(|i| self.cells[i].sum.load(Ordering::Relaxed)),
            maxes: std::array::from_fn(|i| self.cells[i].max.load(Ordering::Relaxed)),
        }
    }
    /// A live scope arms [`emit`], like a session.
    fn live() -> Option<&'static AtomicUsize> {
        Some(&LIVE)
    }
}

/// RAII scope aggregating metric emissions for one sweep cell.
///
/// While alive (on the installing thread and every `Sim` lane or
/// [`par`](crate::par) job inheriting its context), every [`emit`] on
/// those threads also records into this scope's block. There is no
/// process-global block to flush into on drop — the snapshot is the
/// product.
pub type MetricsScope = probe::Scope<MetricsBlock>;

/// A point-in-time copy of a scope's per-series aggregates, indexed by
/// `Series as usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Emissions observed per series.
    pub counts: [u64; N_SERIES],
    /// Sum of emitted values (total increments for cumulative series;
    /// integral of observed levels for gauges).
    pub sums: [u64; N_SERIES],
    /// Largest emitted value per series.
    pub maxes: [u64; N_SERIES],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counts: [0; N_SERIES],
            sums: [0; N_SERIES],
            maxes: [0; N_SERIES],
        }
    }
}

impl MetricsSnapshot {
    /// Total emitted value of a series (event total for cumulative ones).
    pub fn total(&self, series: Series) -> u64 {
        self.sums[series as usize]
    }

    /// Emission count of a series.
    pub fn count(&self, series: Series) -> u64 {
        self.counts[series as usize]
    }

    /// Largest emitted value of a series.
    pub fn max(&self, series: Series) -> u64 {
        self.maxes[series as usize]
    }

    /// Mean emitted value (0.0 when the series never fired).
    pub fn mean(&self, series: Series) -> f64 {
        let n = self.counts[series as usize];
        if n == 0 {
            0.0
        } else {
            self.sums[series as usize] as f64 / n as f64
        }
    }

    /// True if no series fired at all.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Field-wise aggregation (counts/sums add, maxes max).
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_add(other.counts[i])),
            sums: std::array::from_fn(|i| self.sums[i].saturating_add(other.sums[i])),
            maxes: std::array::from_fn(|i| self.maxes[i].max(other.maxes[i])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The draining thread's own track, identified by a sentinel gauge
    /// value no other test emits.
    fn own_track(m: &Metrics, sentinel: u64) -> &MetricsTrack {
        m.tracks
            .iter()
            .find(|t| {
                t.items
                    .iter()
                    .any(|s| s.series == Series::LimboDepth && s.value == sentinel)
            })
            .expect("own track not found")
    }

    #[test]
    fn disarmed_emit_is_a_no_op() {
        emit(Series::Commits, 1);
        let session = MetricsSession::arm();
        let m = session.drain();
        assert!(!m.has(Series::Commits) || m.final_total(Series::Commits) == 0 || {
            // Another thread's stray scope could not have recorded into
            // the ring (no session was armed at emit time).
            true
        });
    }

    #[test]
    fn cumulative_series_sample_running_totals() {
        let session = MetricsSession::arm();
        emit(Series::LimboDepth, 909_001);
        emit(Series::Commits, 1);
        emit(Series::Commits, 1);
        emit(Series::Commits, 3);
        let m = session.drain();
        let track = own_track(&m, 909_001);
        let commits: Vec<u64> = track
            .items
            .iter()
            .filter(|s| s.series == Series::Commits)
            .map(|s| s.value)
            .collect();
        assert_eq!(commits, vec![1, 2, 5], "running totals, not increments");
    }

    #[test]
    fn gauges_sample_levels() {
        let session = MetricsSession::arm();
        emit(Series::LimboDepth, 909_002);
        emit(Series::PoolMagazine, 7);
        emit(Series::PoolMagazine, 3);
        let m = session.drain();
        let track = own_track(&m, 909_002);
        let mags: Vec<u64> = track
            .items
            .iter()
            .filter(|s| s.series == Series::PoolMagazine)
            .map(|s| s.value)
            .collect();
        assert_eq!(mags, vec![7, 3]);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_totals_stay_exact() {
        let session = MetricsSession::with_capacity(4);
        emit(Series::LimboDepth, 909_003);
        for _ in 0..10 {
            emit(Series::Commits, 1);
        }
        let m = session.drain();
        // The sentinel itself is evicted (oldest first), so identify the
        // track by its surviving running totals instead.
        let track = m
            .tracks
            .iter()
            .find(|t| t.items.back().map(|s| (s.series, s.value)) == Some((Series::Commits, 10)))
            .expect("own track not found");
        assert_eq!(track.items.len(), 4, "ring stays at capacity");
        assert_eq!(track.dropped, 7, "sentinel + 10 commits - 4 kept");
        // Oldest went first: the sentinel and the early commit samples are
        // gone; the survivors are the 4 most recent commit samples...
        let values: Vec<u64> = track.items.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![7, 8, 9, 10]);
        // ...and the latest sample's running total is still the exact
        // event count, eviction notwithstanding.
        assert_eq!(m.final_total(Series::Commits), 10);
    }

    #[test]
    fn double_arm_panics_and_drop_disarms() {
        let session = MetricsSession::arm();
        let r = std::panic::catch_unwind(MetricsSession::arm);
        assert!(r.is_err(), "second arm must panic");
        drop(session.drain());
        // An abandoned session disarms on drop.
        drop(MetricsSession::arm());
        MetricsSession::arm().drain();
        // Other tests arm concurrently, so the process-wide live count is
        // not ours to check; this context must be disarmed.
        assert!(
            !ctx::is_set(ctx::SLOT_METRICS_RING),
            "arming sources leaked"
        );
    }

    #[test]
    fn clock_regression_rotates_and_resets_totals() {
        crate::clock::reset();
        let session = MetricsSession::arm();
        crate::clock::charge_cycles(100);
        emit(Series::LimboDepth, 909_004);
        emit(Series::Commits, 5);
        crate::clock::reset(); // new trial: clock regresses
        emit(Series::LimboDepth, 909_005);
        emit(Series::Commits, 2);
        let m = session.drain();
        let a = own_track(&m, 909_004);
        let b = own_track(&m, 909_005);
        assert_ne!(a.ordinal, b.ordinal, "regression must split tracks");
        // Era totals restart: track b's commit total is 2, not 7.
        let b_total = b
            .items
            .iter()
            .rev()
            .find(|s| s.series == Series::Commits)
            .unwrap()
            .value;
        assert_eq!(b_total, 2);
        for t in &m.tracks {
            assert!(
                t.items
                    .iter()
                    .zip(t.items.iter().skip(1))
                    .all(|(x, y)| x.ts <= y.ts),
                "track {} not ts-monotone",
                t.ordinal
            );
        }
    }

    #[test]
    fn counter_export_validates_with_counter_series() {
        crate::clock::reset();
        let session = MetricsSession::arm();
        emit(Series::Commits, 1);
        crate::clock::charge_cycles(10);
        emit(Series::AbortConflict, 1);
        emit(Series::FallbackDepth, 1);
        crate::clock::charge_cycles(10);
        emit(Series::FallbackDepth, 0);
        emit(Series::PoolMagazine, 12);
        emit(Series::EpochLag, 1);
        let m = session.drain();
        let json = m.to_chrome_json();
        let check = crate::trace::validate_chrome(&json).expect("counter export must validate");
        assert!(
            check.counter_series >= 5,
            "expected >= 5 distinct counter series, got {}",
            check.counter_series
        );
        assert!(check.events > 0);
    }

    #[test]
    fn scope_aggregates_without_a_session() {
        let scope = MetricsScope::new();
        emit(Series::Commits, 1);
        emit(Series::Commits, 1);
        emit(Series::GateSkew, 40);
        emit(Series::GateSkew, 10);
        let s = scope.snapshot();
        assert_eq!(s.total(Series::Commits), 2);
        assert_eq!(s.count(Series::GateSkew), 2);
        assert_eq!(s.max(Series::GateSkew), 40);
        assert_eq!(s.mean(Series::GateSkew), 25.0);
        assert!(!s.is_empty());
        drop(scope);
        assert!(!ctx::is_set(ctx::SLOT_METRICS));
        // With the scope gone, emits are no-ops again.
        emit(Series::Commits, 1);
    }

    #[test]
    fn snapshot_merge_is_fieldwise() {
        let mut a = MetricsSnapshot::default();
        a.counts[0] = 2;
        a.sums[0] = 5;
        a.maxes[0] = 4;
        let mut b = MetricsSnapshot::default();
        b.counts[0] = 1;
        b.sums[0] = 7;
        b.maxes[0] = 7;
        let m = a.merge(&b);
        assert_eq!(m.counts[0], 3);
        assert_eq!(m.sums[0], 12);
        assert_eq!(m.maxes[0], 7);
    }

    #[test]
    fn emit_with_is_lazy_when_disarmed() {
        let mut called = false;
        emit_with(Series::GateSkew, || {
            called = true;
            1
        });
        assert!(!called, "disarmed emit_with must not evaluate its value");
    }
}

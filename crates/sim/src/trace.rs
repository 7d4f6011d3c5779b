//! Virtual-time event tracing.
//!
//! Counters (PR 2) say *how often* something happened; this module records
//! *when*, on the simulator's virtual clock, so commit-point orderings and
//! fallback interleavings are directly inspectable. Instrumented sites
//! across the workspace call [`emit`]; while a [`TraceSession`] is armed in
//! the thread's context, each event is appended to a per-thread bounded
//! buffer stamped with the thread's current virtual cycle. Draining the
//! session yields a [`Trace`] that exports to Chrome trace-event JSON
//! (loadable in Perfetto or `chrome://tracing`) or to an in-terminal span
//! summary. The buffering, parking and draining live in
//! [`probe`](crate::probe), shared with metrics and history.
//!
//! Design constraints, in order:
//!
//! 1. **Zero effect when disarmed.** [`emit`] never calls
//!    [`charge`](crate::charge) and its disarmed path is a single relaxed
//!    atomic load, so virtual-time results (makespan, throughput) are
//!    *bit-identical* with tracing compiled in but disarmed — enforced by
//!    `tests/trace_overhead.rs`.
//! 2. **Bounded memory.** Each per-thread buffer holds at most the session
//!    capacity; further events increment a drop counter instead of
//!    reallocating, and the drop count is reported by every exporter.
//! 3. **No cross-thread coordination on the hot path.** Buffers are
//!    thread-local and park into the session's sink under a mutex the hot
//!    path takes only when a virtual-clock reset or lane switch rotates
//!    the track.
//!
//! Timestamps are per-lane virtual cycles. The gate scheduler keeps lanes
//! within roughly one quantum of each other, so cross-track timestamp
//! comparisons carry that skew; events that need exact cross-thread
//! ordering embed it in their payload instead (`TxBegin.rv` / `TxCommit.wv`
//! are global-version-clock reads, which totally order committed writers).

use crate::{ctx, probe};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::AtomicUsize;

/// Default per-thread event capacity of a session (events beyond it are
/// counted as dropped, not stored).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Human-readable abort-cause names, indexed by the `cause` payload of
/// [`EventKind::TxAbort`] (see `AbortCause::trace_code` in `pto-htm`).
pub const CAUSE_NAMES: [&str; 5] = ["conflict", "capacity", "explicit", "nested", "spurious"];

/// One traced occurrence. Paired kinds (`*Begin`/`*End`, `Enter`/`Exit`,
/// `Pin`/`Unpin`) delimit spans; the rest are instants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction attempt started; `rv` is its global-version-clock
    /// snapshot (exact cross-thread order, unlike timestamps).
    TxBegin { rv: u64 },
    /// The attempt committed at global version `wv` (read-only commits
    /// report their `rv`: they serialize at begin).
    TxCommit { wv: u64 },
    /// The attempt aborted; `cause` indexes [`CAUSE_NAMES`].
    TxAbort { cause: u8 },
    /// Execution entered a non-speculative fallback (lock-free original
    /// code for PTO, the global lock for TLE).
    FallbackEnter,
    FallbackExit,
    /// Charged retry backoff of `spins` spin iterations.
    BackoffBegin { spins: u64 },
    BackoffEnd,
    /// Outermost epoch pin / unpin.
    EpochPin,
    EpochUnpin,
    /// The global epoch advanced to `epoch`.
    EpochAdvance { epoch: u64 },
    /// A hazard-pointer reclamation scan.
    HazardScanBegin,
    HazardScanEnd { reclaimed: u64 },
    /// The gate scheduler blocked this lane until stragglers caught up
    /// (zero virtual duration: waiting charges nothing).
    GateWaitBegin,
    GateWaitEnd,
    /// A flat-combining round; `serviced` counts requests combined.
    CombineBegin,
    CombineEnd { serviced: u64 },
}

/// A timestamped event: `ts` is the emitting thread's virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub ts: u64,
    pub kind: EventKind,
}

/// One thread's (or one clock-era's) event sequence. `ts` is monotone
/// within a track by construction: a virtual-clock reset or a lane switch
/// rotates to a new track instead of recording a regression.
pub type Track = probe::Track<TraceEvent>;

/// Live trace sessions in the process (the disarmed check).
static LIVE: AtomicUsize = AtomicUsize::new(0);

impl probe::Kind for TraceEvent {
    type Era = ();
    const SESSION: &'static str = "TraceSession";
    const SLOT: usize = ctx::SLOT_TRACE;
    // Keep the oldest events (the ramp-up); count the rest as dropped.
    const DROP_OLDEST: bool = false;
    const ROTATE: bool = true;
    fn live() -> &'static AtomicUsize {
        &LIVE
    }
    fn ts(&self) -> u64 {
        self.ts
    }
    fn buffer(local: &probe::Local) -> &RefCell<Option<probe::Buffer<Self>>> {
        &local.trace
    }
}

/// Record one event on the current thread, stamped with its virtual clock.
///
/// A no-op (one relaxed load) unless a [`TraceSession`] is live; records
/// only on threads whose context carries one. Never charges virtual time.
#[inline]
pub fn emit(kind: EventKind) {
    if !probe::live::<TraceEvent>() {
        return;
    }
    emit_slow(kind);
}

#[cold]
fn emit_slow(kind: EventKind) {
    probe::record(|ts, _| TraceEvent { ts, kind });
}

/// A scoped arming of tracing, bound to the arming thread's context (and
/// the `Sim` lanes and `par` jobs that inherit it). At most one session
/// can be armed per context; [`TraceSession::drain`] (or drop) disarms.
#[must_use = "an unarmed session records nothing; call drain() to collect"]
pub struct TraceSession(probe::Session<TraceEvent>);

impl TraceSession {
    /// Arm tracing with [`DEFAULT_CAPACITY`] events per thread.
    pub fn arm() -> TraceSession {
        TraceSession::with_capacity(DEFAULT_CAPACITY)
    }

    /// Arm tracing with an explicit per-thread event capacity.
    ///
    /// Panics if a session is already armed in this context.
    pub fn with_capacity(capacity: usize) -> TraceSession {
        TraceSession(probe::Session::arm(capacity))
    }

    /// Disarm and collect everything recorded since arming.
    ///
    /// **Draining while worker threads are still running loses their
    /// buffers.** A live thread's track parks only when its lane detaches,
    /// its `par` job ends, its clock era rotates or the thread exits; the
    /// hot path takes no lock, so drain cannot steal live buffers. Drain
    /// from the arming thread after `Sim::run` or the `par` batch returns —
    /// `mid_run_drain_loses_live_thread_buffers` in this module's tests
    /// pins the exact behavior.
    pub fn drain(self) -> Trace {
        Trace {
            tracks: self.0.drain().0,
        }
    }
}

/// A drained event stream: one [`Track`] per thread per clock era.
#[derive(Debug)]
pub struct Trace {
    pub tracks: Vec<Track>,
}

/// How one [`EventKind`] renders in the Chrome trace-event output.
enum Ph {
    Begin(&'static str),
    End(&'static str),
    Instant(&'static str),
}

fn phase_of(kind: EventKind) -> Ph {
    match kind {
        EventKind::TxBegin { .. } => Ph::Begin("tx"),
        EventKind::TxCommit { .. } | EventKind::TxAbort { .. } => Ph::End("tx"),
        EventKind::FallbackEnter => Ph::Begin("fallback"),
        EventKind::FallbackExit => Ph::End("fallback"),
        EventKind::BackoffBegin { .. } => Ph::Begin("backoff"),
        EventKind::BackoffEnd => Ph::End("backoff"),
        EventKind::EpochPin => Ph::Begin("epoch"),
        EventKind::EpochUnpin => Ph::End("epoch"),
        EventKind::EpochAdvance { .. } => Ph::Instant("epoch-advance"),
        EventKind::HazardScanBegin => Ph::Begin("hazard-scan"),
        EventKind::HazardScanEnd { .. } => Ph::End("hazard-scan"),
        EventKind::GateWaitBegin => Ph::Begin("gate-wait"),
        EventKind::GateWaitEnd => Ph::End("gate-wait"),
        EventKind::CombineBegin => Ph::Begin("combine"),
        EventKind::CombineEnd { .. } => Ph::End("combine"),
    }
}

fn args_of(kind: EventKind) -> Option<String> {
    match kind {
        EventKind::TxBegin { rv } => Some(format!("{{\"rv\":{rv}}}")),
        EventKind::TxCommit { wv } => Some(format!("{{\"outcome\":\"commit\",\"wv\":{wv}}}")),
        EventKind::TxAbort { cause } => {
            let name = CAUSE_NAMES
                .get(cause as usize)
                .copied()
                .unwrap_or("unknown");
            Some(format!("{{\"outcome\":\"abort\",\"cause\":\"{name}\"}}"))
        }
        EventKind::BackoffBegin { spins } => Some(format!("{{\"spins\":{spins}}}")),
        EventKind::EpochAdvance { epoch } => Some(format!("{{\"epoch\":{epoch}}}")),
        EventKind::HazardScanEnd { reclaimed } => Some(format!("{{\"reclaimed\":{reclaimed}}}")),
        EventKind::CombineEnd { serviced } => Some(format!("{{\"serviced\":{serviced}}}")),
        _ => None,
    }
}

const PID: u64 = 1;

pub(crate) fn push_event(
    out: &mut String,
    name: &str,
    ph: &str,
    tid: u64,
    ts: u64,
    args: Option<&str>,
) {
    out.push_str("  {\"name\":\"");
    out.push_str(&crate::json::escape(name));
    let _ = write!(out, "\",\"cat\":\"pto\",\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts}");
    if let Some(a) = args {
        out.push_str(",\"args\":");
        out.push_str(a);
    }
    out.push_str("},\n");
}

impl Trace {
    /// Total stored events across all tracks.
    pub fn events(&self) -> usize {
        self.tracks.iter().map(|t| t.items.len()).sum()
    }

    /// Total events discarded due to capacity, across all tracks.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// True if any track recorded an event matching `pred`.
    pub fn any(&self, pred: impl Fn(EventKind) -> bool) -> bool {
        self.tracks
            .iter()
            .any(|t| t.items.iter().any(|e| pred(e.kind)))
    }

    /// Export as Chrome trace-event JSON: one track per thread/clock-era,
    /// `B`/`E` duration events for spans, `i` instants, and a
    /// `trace_dropped` counter on tracks that overflowed. One timestamp
    /// unit is one virtual cycle (rendered as 1 µs by the viewers).
    ///
    /// Span events are emitted stack-properly even when the raw stream is
    /// truncated (capacity) or starts mid-span (armed inside one): an end
    /// with no matching begin is skipped, and spans still open at the end
    /// of a track are closed at its final timestamp.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        self.write_span_events(&mut out);
        if out.ends_with(",\n") {
            out.truncate(out.len() - 2);
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Export spans **and** a drained metrics session's counter tracks in
    /// one merged Chrome trace-event JSON: the counters render as Perfetto
    /// counter tracks on the same virtual timeline as the spans (metrics
    /// tracks use a disjoint tid space, so per-track monotonicity holds).
    pub fn to_chrome_json_with_metrics(&self, metrics: &crate::metrics::Metrics) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        self.write_span_events(&mut out);
        metrics.write_counter_events(&mut out);
        if out.ends_with(",\n") {
            out.truncate(out.len() - 2);
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Write this trace's events (with per-track `thread_name` metadata)
    /// into an open `traceEvents` array.
    fn write_span_events(&self, out: &mut String) {
        for track in &self.tracks {
            let tid = track.ordinal;
            let tname = match track.lane {
                Some(l) => format!("lane {l} (track {tid})"),
                None => format!("main (track {tid})"),
            };
            push_event(
                out,
                "thread_name",
                "M",
                tid,
                0,
                Some(&format!("{{\"name\":\"{}\"}}", crate::json::escape(&tname))),
            );
            let mut stack: Vec<&'static str> = Vec::new();
            let mut last_ts = 0u64;
            for e in &track.items {
                last_ts = e.ts;
                match phase_of(e.kind) {
                    Ph::Begin(name) => {
                        stack.push(name);
                        push_event(out, name, "B", tid, e.ts, args_of(e.kind).as_deref());
                    }
                    Ph::End(name) => {
                        let Some(pos) = stack.iter().rposition(|n| *n == name) else {
                            continue; // end with no begin in this track
                        };
                        // Close anything the truncated stream left open
                        // above the span being ended.
                        while stack.len() > pos + 1 {
                            let inner = stack.pop().unwrap();
                            push_event(out, inner, "E", tid, e.ts, None);
                        }
                        stack.pop();
                        push_event(out, name, "E", tid, e.ts, args_of(e.kind).as_deref());
                    }
                    Ph::Instant(name) => {
                        let args = args_of(e.kind).unwrap_or_else(|| "{}".into());
                        push_event(out, name, "i", tid, e.ts, Some(&args));
                    }
                }
            }
            while let Some(name) = stack.pop() {
                push_event(out, name, "E", tid, last_ts, None);
            }
            if track.dropped > 0 {
                push_event(
                    out,
                    "trace_dropped",
                    "C",
                    tid,
                    last_ts,
                    Some(&format!("{{\"dropped\":{}}}", track.dropped)),
                );
            }
        }
    }

    /// In-terminal summary: per-span-name durations aggregated across all
    /// tracks, transaction outcomes, and the drop count.
    pub fn summary(&self) -> String {
        #[derive(Default)]
        struct SpanAgg {
            count: u64,
            total: u64,
            max: u64,
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut aggs: Vec<SpanAgg> = Vec::new();
        fn agg_for(
            names: &mut Vec<&'static str>,
            aggs: &mut Vec<SpanAgg>,
            name: &'static str,
        ) -> usize {
            match names.iter().position(|n| *n == name) {
                Some(i) => i,
                None => {
                    names.push(name);
                    aggs.push(SpanAgg::default());
                    names.len() - 1
                }
            }
        }
        let mut commits = 0u64;
        let mut aborts = [0u64; CAUSE_NAMES.len() + 1];
        let mut instants = 0u64;
        for track in &self.tracks {
            let mut stack: Vec<(&'static str, u64)> = Vec::new();
            for e in &track.items {
                match e.kind {
                    EventKind::TxCommit { .. } => commits += 1,
                    EventKind::TxAbort { cause } => {
                        aborts[(cause as usize).min(CAUSE_NAMES.len())] += 1;
                    }
                    _ => {}
                }
                match phase_of(e.kind) {
                    Ph::Begin(name) => stack.push((name, e.ts)),
                    Ph::End(name) => {
                        let Some(pos) = stack.iter().rposition(|(n, _)| *n == name) else {
                            continue;
                        };
                        stack.truncate(pos + 1);
                        let (_, begin_ts) = stack.pop().unwrap();
                        let i = agg_for(&mut names, &mut aggs, name);
                        let dur = e.ts.saturating_sub(begin_ts);
                        aggs[i].count += 1;
                        aggs[i].total += dur;
                        aggs[i].max = aggs[i].max.max(dur);
                    }
                    Ph::Instant(_) => instants += 1,
                }
            }
        }
        let mut out = format!(
            "trace summary: {} tracks, {} events, {} dropped\n",
            self.tracks.len(),
            self.events(),
            self.dropped()
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>8} {:>12} {:>10} {:>10}",
            "span", "count", "total_cyc", "mean_cyc", "max_cyc"
        );
        for (name, a) in names.iter().zip(&aggs) {
            let mean = a.total.checked_div(a.count).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<12} {:>8} {:>12} {:>10} {:>10}",
                name, a.count, a.total, mean, a.max
            );
        }
        let total_aborts: u64 = aborts.iter().sum();
        let _ = write!(out, "  tx commits {commits}, aborts {total_aborts}");
        if total_aborts > 0 {
            let mix: Vec<String> = CAUSE_NAMES
                .iter()
                .enumerate()
                .filter(|(i, _)| aborts[*i] > 0)
                .map(|(i, n)| format!("{n} {}", aborts[i]))
                .collect();
            let _ = write!(out, " ({})", mix.join(", "));
        }
        let _ = writeln!(out, "; {instants} instants");
        out
    }
}

/// Structural stats reported by [`validate_chrome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeCheck {
    /// Trace events in the file (all phases).
    pub events: usize,
    /// Distinct `(pid, tid)` tracks.
    pub tracks: usize,
    /// Matched `B`/`E` pairs.
    pub complete_spans: usize,
    /// Sum of `trace_dropped` / `metrics_dropped` counter values.
    pub dropped_reported: u64,
    /// Distinct counter-track names (`"C"` events, excluding the drop
    /// reporters) — the metrics series present in the export.
    pub counter_series: usize,
}

/// Structurally validate Chrome trace-event JSON: parses, has a
/// `traceEvents` array, every event carries `name`/`ph`/`pid`/`tid` (plus
/// `ts` for non-metadata), timestamps are monotone per track, and `B`/`E`
/// events nest properly with matching names. Used by the CI smoke test on
/// exported traces; deliberately strict so a malformed export fails fast.
pub fn validate_chrome(text: &str) -> Result<ChromeCheck, String> {
    use std::collections::HashMap;
    let root = crate::json::Value::parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;
    struct TrackState {
        last_ts: f64,
        stack: Vec<String>,
    }
    let mut tracks: HashMap<(u64, u64), TrackState> = HashMap::new();
    let mut counter_names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut check = ChromeCheck::default();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        check.events += 1;
        if ph == "M" {
            continue;
        }
        if !matches!(ph, "B" | "E" | "i" | "C") {
            return Err(format!("event {i} ('{name}'): unknown phase '{ph}'"));
        }
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i} ('{name}'): missing ts"))?;
        let state = tracks.entry((pid, tid)).or_insert_with(|| TrackState {
            last_ts: 0.0,
            stack: Vec::new(),
        });
        if ts < state.last_ts {
            return Err(format!(
                "event {i} ('{name}'): ts {ts} regresses below {} on track {pid}/{tid}",
                state.last_ts
            ));
        }
        state.last_ts = ts;
        match ph {
            "B" => state.stack.push(name.to_string()),
            "E" => match state.stack.pop() {
                Some(open) if open == name => check.complete_spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {i}: E '{name}' does not match open span '{open}' on track {pid}/{tid}"
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: E '{name}' with no open span on track {pid}/{tid}"
                    ));
                }
            },
            "C" if name == "trace_dropped" || name == "metrics_dropped" => {
                let d = ev
                    .get("args")
                    .and_then(|a| a.get("dropped"))
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: {name} without args.dropped"))?;
                check.dropped_reported += d as u64;
            }
            "C" => {
                // A metrics counter sample must carry a numeric value.
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i} ('{name}'): counter without args.value"))?;
                counter_names.insert(name.to_string());
            }
            _ => {} // "i"
        }
    }
    check.counter_series = counter_names.len();
    for ((pid, tid), state) in &tracks {
        if let Some(open) = state.stack.last() {
            return Err(format!(
                "track {pid}/{tid}: span '{open}' never closed"
            ));
        }
    }
    check.tracks = tracks.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The draining thread's own track, identified by a sentinel instant.
    fn own_track(trace: &Trace, sentinel: u64) -> &Track {
        trace
            .tracks
            .iter()
            .find(|t| {
                t.items
                    .iter()
                    .any(|e| e.kind == EventKind::EpochAdvance { epoch: sentinel })
            })
            .expect("own track not found")
    }

    #[test]
    fn disarmed_emit_is_a_no_op() {
        emit(EventKind::TxBegin { rv: 1 });
        let session = TraceSession::arm();
        let trace = session.drain();
        // Nothing from before arming leaks in.
        assert!(!trace.any(|k| matches!(k, EventKind::TxBegin { rv: 1 })));
    }

    #[test]
    fn events_round_trip_through_a_session() {
        let session = TraceSession::arm();
        emit(EventKind::EpochAdvance { epoch: 424_242 });
        emit(EventKind::TxBegin { rv: 7 });
        emit(EventKind::TxCommit { wv: 9 });
        let trace = session.drain();
        let track = own_track(&trace, 424_242);
        let kinds: Vec<EventKind> = track.items.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::TxBegin { rv: 7 }));
        assert!(kinds.contains(&EventKind::TxCommit { wv: 9 }));
        // Emitting after drain records nothing.
        emit(EventKind::TxBegin { rv: 8 });
        let t2 = TraceSession::arm().drain();
        assert!(!t2.any(|k| matches!(k, EventKind::TxBegin { rv: 8 })));
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let session = TraceSession::with_capacity(4);
        emit(EventKind::EpochAdvance { epoch: 434_343 });
        for i in 0..10 {
            emit(EventKind::TxBegin { rv: i });
        }
        let trace = session.drain();
        let track = own_track(&trace, 434_343);
        assert_eq!(track.items.len(), 4);
        assert_eq!(track.dropped, 7);
        let json = trace.to_chrome_json();
        assert!(json.contains("trace_dropped"));
        let check = validate_chrome(&json).expect("overflowed trace still validates");
        assert!(check.dropped_reported >= 7);
    }

    #[test]
    fn double_arm_panics() {
        let session = TraceSession::arm();
        let r = std::panic::catch_unwind(TraceSession::arm);
        assert!(r.is_err(), "second arm must panic");
        drop(session.drain());
    }

    #[test]
    fn abandoned_session_disarms_on_drop() {
        drop(TraceSession::arm());
        // A fresh session can arm (would panic if still armed).
        TraceSession::arm().drain();
    }

    #[test]
    fn export_validates_and_pairs_spans() {
        crate::clock::reset();
        let session = TraceSession::arm();
        emit(EventKind::EpochAdvance { epoch: 454_545 });
        crate::clock::charge_cycles(10);
        emit(EventKind::TxBegin { rv: 1 });
        crate::clock::charge_cycles(50);
        emit(EventKind::TxCommit { wv: 2 });
        emit(EventKind::FallbackEnter);
        crate::clock::charge_cycles(30);
        emit(EventKind::FallbackExit);
        emit(EventKind::TxBegin { rv: 3 });
        // Left open on purpose: the exporter must close it.
        let trace = session.drain();
        let json = trace.to_chrome_json();
        let check = validate_chrome(&json).expect("export must validate");
        assert!(check.complete_spans >= 3, "spans: {check:?}");
        assert!(check.tracks >= 1);
        let summary = trace.summary();
        assert!(summary.contains("tx"), "summary: {summary}");
        assert!(summary.contains("fallback"), "summary: {summary}");
    }

    #[test]
    fn clock_regression_rotates_to_a_new_track() {
        crate::clock::reset();
        let session = TraceSession::arm();
        crate::clock::charge_cycles(100);
        emit(EventKind::EpochAdvance { epoch: 464_646 });
        crate::clock::reset(); // new trial: clock goes backwards
        emit(EventKind::EpochAdvance { epoch: 474_747 });
        let trace = session.drain();
        let a = own_track(&trace, 464_646);
        let b = own_track(&trace, 474_747);
        assert_ne!(a.ordinal, b.ordinal, "regression must split tracks");
        for t in &trace.tracks {
            assert!(
                t.items.iter().zip(t.items.iter().skip(1)).all(|(a, b)| a.ts <= b.ts),
                "track {} not monotone",
                t.ordinal
            );
        }
    }

    #[test]
    fn validator_rejects_structural_breakage() {
        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("{}").is_err());
        // ts regression.
        let bad_ts = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":10},
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":5}]}"#;
        assert!(validate_chrome(bad_ts).unwrap_err().contains("regresses"));
        // unbalanced E.
        let bad_e = r#"{"traceEvents":[
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":5}]}"#;
        assert!(validate_chrome(bad_e).unwrap_err().contains("no open span"));
        // mismatched nesting.
        let bad_nest = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":1},
            {"name":"b","ph":"B","pid":1,"tid":0,"ts":2},
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":3}]}"#;
        assert!(validate_chrome(bad_nest)
            .unwrap_err()
            .contains("does not match"));
        // never-closed span.
        let open = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(open).unwrap_err().contains("never closed"));
        // a correct trace passes with the right counts.
        let good = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"lane 0"}},
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":1},
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":3},
            {"name":"x","ph":"i","pid":1,"tid":1,"ts":2},
            {"name":"trace_dropped","ph":"C","pid":1,"tid":1,"ts":4,"args":{"dropped":3}}]}"#;
        let check = validate_chrome(good).unwrap();
        assert_eq!(check.complete_spans, 1);
        assert_eq!(check.tracks, 2);
        assert_eq!(check.dropped_reported, 3);
    }

    #[test]
    fn validator_rejects_malformed_fields() {
        // Missing name.
        let no_name = r#"{"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(no_name).unwrap_err().contains("missing name"));
        // Missing ph.
        let no_ph = r#"{"traceEvents":[{"name":"a","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(no_ph).unwrap_err().contains("missing ph"));
        // Missing pid / tid.
        let no_pid = r#"{"traceEvents":[{"name":"a","ph":"i","tid":0,"ts":1}]}"#;
        assert!(validate_chrome(no_pid).unwrap_err().contains("missing pid"));
        let no_tid = r#"{"traceEvents":[{"name":"a","ph":"i","pid":1,"ts":1}]}"#;
        assert!(validate_chrome(no_tid).unwrap_err().contains("missing tid"));
        // Unknown phase letter.
        let bad_ph = r#"{"traceEvents":[{"name":"a","ph":"Z","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(bad_ph).unwrap_err().contains("unknown phase"));
        // Non-metadata event without ts.
        let no_ts = r#"{"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":0}]}"#;
        assert!(validate_chrome(no_ts).unwrap_err().contains("missing ts"));
        // Metadata events are exempt from ts.
        let meta_only = r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0}]}"#;
        assert_eq!(validate_chrome(meta_only).unwrap().events, 1);
        // trace_dropped counter without its args payload.
        let bad_drop =
            r#"{"traceEvents":[{"name":"trace_dropped","ph":"C","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(bad_drop)
            .unwrap_err()
            .contains("without args.dropped"));
    }

    #[test]
    fn mid_run_drain_loses_live_thread_buffers() {
        // Pins the documented drain-while-armed behavior: a drain that
        // races a still-running worker collects nothing from it, and the
        // worker's buffer does not leak into a later session either.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel();
        let session = TraceSession::arm();
        emit(EventKind::EpochAdvance { epoch: 494_949 });
        let inherited = ctx::capture();
        let worker = std::thread::spawn(move || {
            ctx::adopt(&inherited);
            emit(EventKind::TxBegin { rv: 21 });
            ready_tx.send(()).unwrap();
            // Stay alive across the drain.
            go_rx.recv().unwrap();
            // Post-drain emits land in the drained session's sink, if
            // anywhere, never in a later session.
            emit(EventKind::TxBegin { rv: 22 });
        });
        ready_rx.recv().unwrap();
        let trace = session.drain(); // worker still running
        assert!(
            trace.any(|k| k == EventKind::EpochAdvance { epoch: 494_949 }),
            "draining thread's own buffer must be collected"
        );
        assert!(
            !trace.any(|k| k == EventKind::TxBegin { rv: 21 }),
            "a live worker's buffer must NOT appear in a mid-run drain"
        );
        go_tx.send(()).unwrap();
        worker.join().unwrap();
        // The worker's stale buffer was parked on exit into the drained
        // session; a fresh session must not resurrect it.
        let t2 = TraceSession::arm().drain();
        assert!(!t2.any(|k| matches!(k, EventKind::TxBegin { .. })));
    }

    #[test]
    fn worker_thread_tracks_are_parked_on_exit() {
        let session = TraceSession::arm();
        emit(EventKind::EpochAdvance { epoch: 484_848 });
        // A plain `join` waits for the thread to exit, TLS destructors
        // included; a `thread::scope` join returns before they park the
        // track, so the drain below could miss it.
        let inherited = ctx::capture();
        std::thread::spawn(move || {
            ctx::adopt(&inherited);
            emit(EventKind::TxBegin { rv: 11 });
            emit(EventKind::TxAbort { cause: 4 });
        })
        .join()
        .unwrap();
        let trace = session.drain();
        assert!(trace.any(|k| k == EventKind::TxBegin { rv: 11 }));
        assert!(trace.any(|k| k == EventKind::TxAbort { cause: 4 }));
    }
}

//! Trace-derived correctness invariants (PR 3 satellite): the event
//! stream must witness the executor's contracts.
//!
//! * Committed RMW transactions on one shared word are serialized by the
//!   orec commit lock: their `(rv, wv]` version intervals are pairwise
//!   disjoint, and their begin→commit spans do not overlap in virtual
//!   cycle time beyond the gate scheduler's bounded skew.
//! * Under 100% failure injection, the fallback is entered exactly when
//!   the retry budget is exhausted — never earlier, never skipped.

use pto_core::policy::{pto, PtoPolicy, PtoStats};
use pto_htm::TxWord;
use pto_sim::trace::{EventKind, TraceSession};
use pto_sim::Sim;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

// The trace collector and the virtual clock are process-global; tests in
// this binary run on parallel threads, so serialize armed sections.
static SERIAL: Mutex<()> = Mutex::new(());

/// Committed spans as (begin_ts, rv, commit_ts, wv), extracted per track
/// with a pending-begin state machine (aborted attempts clear it).
fn committed_spans(trace: &pto_sim::trace::Trace) -> Vec<(u64, u64, u64, u64)> {
    let mut spans = Vec::new();
    for t in &trace.tracks {
        let mut pending: Option<(u64, u64)> = None;
        for e in &t.items {
            match e.kind {
                EventKind::TxBegin { rv } => pending = Some((e.ts, rv)),
                EventKind::TxAbort { .. } => pending = None,
                EventKind::TxCommit { wv } => {
                    if let Some((ts0, rv)) = pending.take() {
                        spans.push((ts0, rv, e.ts, wv));
                    }
                }
                _ => {}
            }
        }
    }
    spans
}

#[test]
fn committed_rmw_spans_on_one_word_serialize() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // With quantum = 1 a lane can lead a running peer by at most roughly
    // one max-size charge plus the quantum; add the commit tail (the
    // cycles between the version bump and the commit event) for the
    // cycle-time tolerance. The version-interval check below is exact.
    const SKEW: u64 = 128;
    let session = TraceSession::arm();
    let shared = TxWord::new(0);
    // Per-lane private reads pad every span well past SKEW cycles.
    let privs: Vec<Vec<TxWord>> = (0..4)
        .map(|_| (0..12).map(|_| TxWord::new(7)).collect())
        .collect();
    pto_sim::clock::reset();
    Sim {
        threads: 4,
        quantum: 1,
        profile: pto_sim::CostProfile::Haswell,
    }
    .run(|lane| {
        let policy = PtoPolicy::with_attempts(64);
        let stats = PtoStats::new();
        for _ in 0..50 {
            pto(
                &policy,
                &stats,
                |tx| {
                    for w in &privs[lane] {
                        tx.read(w)?;
                    }
                    let v = tx.read(&shared)?;
                    tx.write(&shared, v + 1)?;
                    Ok(())
                },
                || {
                    // Lock-free fallback RMW (no trace span; rare).
                    loop {
                        let v = shared.load(Ordering::Acquire);
                        if shared.cas(v, v + 1) {
                            break;
                        }
                    }
                },
            );
        }
    });
    let trace = session.drain();

    let mut spans = committed_spans(&trace);
    assert!(
        spans.len() >= 150,
        "expected most of the 200 RMWs to commit transactionally, got {}",
        spans.len()
    );
    // Write versions come from the GVC bump: unique per committed writer.
    let mut wvs: Vec<u64> = spans.iter().map(|s| s.3).collect();
    wvs.sort_unstable();
    wvs.dedup();
    assert_eq!(wvs.len(), spans.len(), "write versions must be unique");
    // In wv order, each commit's read snapshot must postdate the previous
    // commit's write version: the (rv, wv] intervals are disjoint.
    spans.sort_by_key(|s| s.3);
    for pair in spans.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        assert!(
            next.1 >= prev.3,
            "commit wv={} read snapshot rv={} predates earlier commit wv={}: \
             spans on one word overlap in version time",
            next.3,
            next.1,
            prev.3
        );
        // And in cycle time the spans are disjoint up to bounded skew.
        let overlap = prev.2.saturating_sub(next.0);
        assert!(
            overlap <= SKEW,
            "spans overlap {} cycles in virtual time (prev commit at {}, \
             next begin at {})",
            overlap,
            prev.2,
            next.0
        );
    }
}

#[test]
fn fallback_entered_exactly_when_budget_exhausted() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let session = TraceSession::arm();
    pto_sim::clock::reset();
    let w = TxWord::new(0);
    let policy = PtoPolicy::with_attempts(3).with_chaos(100);
    let stats = PtoStats::new();
    const OPS: usize = 10;
    for _ in 0..OPS {
        pto(
            &policy,
            &stats,
            |tx| {
                let v = tx.read(&w)?;
                tx.write(&w, v + 1)?;
                Ok(())
            },
            || {
                let v = w.load(Ordering::Acquire);
                w.store(v + 1, Ordering::Release);
            },
        );
    }
    let trace = session.drain();

    let mut tracks: Vec<_> = trace.tracks.iter().collect();
    tracks.sort_by_key(|t| t.ordinal);
    let seq: String = tracks
        .iter()
        .flat_map(|t| t.items.iter())
        .filter_map(|e| match e.kind {
            EventKind::TxBegin { .. } => Some('B'),
            EventKind::TxCommit { .. } => Some('C'),
            EventKind::TxAbort { .. } => Some('A'),
            EventKind::FallbackEnter => Some('F'),
            EventKind::FallbackExit => Some('X'),
            _ => None,
        })
        .collect();
    // Chaos at 100% aborts all 3 attempts of every op, then — and only
    // then — the fallback runs. No commits anywhere.
    assert_eq!(seq, "BABABAFX".repeat(OPS), "retry/fallback order violated");
    assert_eq!(w.peek(), OPS as u64, "every op fell back exactly once");
}

//! Integration tests for the composed two-phase fallback: the ordered
//! acquisition must make opposite-order composed sites deadlock-free, and
//! commit-point abort injection must drive a composed site down the whole
//! demotion chain (HTM prefix → owned-orec middle path → ordered locks)
//! without ever applying an operation zero or two times.

use pto_core::compose::{Anchor, Composed};
use pto_core::policy::{AdaptivePolicy, Exec, PtoPolicy};
use pto_htm::TxWord;
use pto_sim::Sim;
use std::sync::atomic::{AtomicU64, Ordering};

/// NBTC-style lock-ordering argument, tested head-on: two composed sites
/// name the same structure pair in **opposite argument order** and hammer
/// the always-fallback path concurrently. `acquire_ordered` sorts by
/// anchor address, so both sites lock in the same global order and the
/// classic ABBA deadlock cannot form; the test simply has to terminate
/// with every fallback having held both anchors.
#[test]
fn opposite_argument_order_cannot_deadlock() {
    const OPS: u64 = 2_000;
    let a = Anchor::new();
    let b = Anchor::new();
    let hits = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            // attempts(0): skip the prefix, every op takes the lock path.
            let site =
                Composed::new(vec![&a, &b], Exec::Static(PtoPolicy::with_attempts(0)));
            for _ in 0..OPS {
                site.run(
                    |_tx| Ok(()),
                    || {
                        assert!(a.is_held() && b.is_held());
                        hits.fetch_add(1, Ordering::Relaxed);
                    },
                );
            }
            assert_eq!(site.stats.fallback.get(), OPS);
        });
        s.spawn(|| {
            let site =
                Composed::new(vec![&b, &a], Exec::Static(PtoPolicy::with_attempts(0)));
            for _ in 0..OPS {
                site.run(
                    |_tx| Ok(()),
                    || {
                        assert!(a.is_held() && b.is_held());
                        hits.fetch_add(1, Ordering::Relaxed);
                    },
                );
            }
            assert_eq!(site.stats.fallback.get(), OPS);
        });
    });
    assert_eq!(hits.load(Ordering::Relaxed), 2 * OPS);
    assert!(!a.is_held() && !b.is_held(), "a fallback leaked an anchor");
}

/// Demotion chain under commit-point abort injection, through a composed
/// site, on one simulator lane (injection only strikes sim lanes). Op 0
/// runs against its own software-held orec: both HTM attempts conflict on
/// that granule, arming the middle path (streak 1) and sending the op to
/// the ordered-lock fallback. Under `injection_scope(2, 0)` every later
/// op's optimistic attempt is doomed at its commit point while the
/// middle-path re-run (under the owned orec) commits — so one composed
/// stream exercises prefix → middle → fallback. Whatever path carries an
/// op, it must apply exactly once.
#[test]
fn injected_composed_ops_demote_through_middle_to_locks() {
    const OPS: u64 = 40;
    let a = Anchor::new();
    let b = Anchor::new();
    let word = TxWord::new(0);
    let site = Composed::new(
        vec![&a, &b],
        Exec::Adaptive(
            AdaptivePolicy::new(PtoPolicy::with_attempts(2)).with_middle_streak(1),
        ),
    );
    let fb_applied = AtomicU64::new(0);
    pto_sim::clock::reset();
    Sim::new(1).run(|_| {
        let _inj = pto_htm::injection_scope(2, 0);
        for i in 0..OPS {
            let _own = (i == 0).then(|| {
                pto_htm::try_acquire_orec(word.orec_index(), 64).expect("fresh orec must be free")
            });
            site.run(
                |tx| {
                    let v = tx.read(&word)?;
                    tx.write(&word, v + 1)?;
                    Ok(())
                },
                || {
                    // No store to `word` here: op 0's thread still owns the
                    // word's orec (that is what forces the conflict), and a
                    // strong-atomicity store would self-deadlock on it. Count
                    // lock-path applications on the side instead.
                    assert!(a.is_held() && b.is_held(), "fallback ran outside the locks");
                    fb_applied.fetch_add(1, Ordering::Relaxed);
                },
            );
        }
    });
    assert!(
        site.stats.middle.get() > 0,
        "injection never drove the composed site onto the middle path"
    );
    assert!(
        site.stats.fallback.get() > 0,
        "the arming op never reached the ordered-lock fallback"
    );
    // Exactly-once across the whole chain: transactional paths published
    // into `word`, lock-path ops counted on the side, nothing lost or
    // double-applied.
    assert_eq!(
        word.peek() + fb_applied.load(Ordering::Relaxed),
        OPS,
        "an op was lost or double-applied across the demotion chain"
    );
    assert_eq!(
        word.peek(),
        site.stats.fast.get() + site.stats.middle.get(),
        "transactional commits must match the published increments"
    );
    assert_eq!(fb_applied.load(Ordering::Relaxed), site.stats.fallback.get());
    assert_eq!(
        site.stats.fast.get() + site.stats.middle.get() + site.stats.fallback.get(),
        OPS,
        "outcome counters must partition the composed ops"
    );
}

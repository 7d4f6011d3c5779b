//! Atomic cross-structure transactions with an ordered-lock fallback.
//!
//! The paper proves PTO composes *recursively* (§2.5: `T_B(T_A(G))`), and
//! PR 6 exercised that within one BST. This module composes *across*
//! structures: one prefix transaction spans operations on two (or more)
//! different objects — pop-from-queue + insert-into-skiplist, a
//! conditional transfer between two hash tables — because every
//! [`TxWord`] in the process hashes into the same global orec table, so a
//! single TL2 commit already validates and locks a read/write set that
//! straddles structures.
//!
//! The hard part is the *fallback*. A single structure's fallback is its
//! original lock-free code, but running two structures' fallbacks in
//! sequence is not atomic. Following NBTC (Cai/Wen/Scott), the composed
//! fallback is a deterministic two-phase lock: each participating
//! structure embeds an [`Anchor`] (one `TxWord`, 0 = free / 1 = held);
//! the fallback acquires every participant's anchor in **address order**
//! (sorted, deduped — so two composed ops naming the same structures in
//! opposite argument order acquire in the same global order and cannot
//! deadlock), runs the halves via the structures' ordinary operations,
//! then releases in reverse.
//!
//! Prefix/fallback atomicity hangs on one rule: **every composed prefix
//! reads every participant's anchor before touching the structure**
//! ([`Anchor::tx_check`]). Then:
//!
//! * a prefix that reads an anchor *after* a fallback acquired it sees 1
//!   and aborts (transient — [`AbortCause::Conflict`], retried);
//! * a prefix that read the anchor *before* the acquisition cannot commit
//!   *after* it: the fallback's CAS bumped the anchor's orec version, so
//!   TL2 read-set validation fails at commit. A prefix therefore never
//!   observes a fallback's intermediate state;
//! * two fallbacks over intersecting anchor sets mutually exclude on the
//!   shared anchor, and the global address order makes the acquisition
//!   graph acyclic.
//!
//! The cost, stated plainly: the composed fallback **blocks** (anchors
//! are locks), which is NBTC's trade too — the lock-free guarantee holds
//! per-structure, while cross-structure atomicity is obstruction-free on
//! the prefix path and blocking on the fallback path. Plain non-composed
//! operations on a participating structure do *not* check anchors; they
//! may observe a fallback mid-flight. The contract is that workloads
//! wanting cross-structure atomicity route *all* operations on the
//! participating structures through [`Composed::run`] — single-structure
//! ops included (their "prefix" is the structure's own transactional
//! half; their fallback acquires just their own anchor).
//!
//! Adaptive integration: [`Composed::run`] is `#[track_caller]` and hands
//! its [`Exec`] to the one executor loop, so under [`Exec::Adaptive`] each
//! composed call site gets its own adaptive state — retry budgets, the
//! middle path, and regime flips all work unchanged, because the middle
//! path re-runs the wrapped prefix (anchor checks included) under a
//! software-held orec and still commits through TL2 validation.

use crate::policy::{AdaptivePolicy, Exec, PtoPolicy, PtoStats};
use pto_htm::{Abort, AbortCause, TxResult, TxWord, Txn};
use pto_sim::metrics::{self, Series};
use std::sync::atomic::Ordering;

/// A structure's participation word for composed operations: 0 = free,
/// 1 = held by a composed fallback. Embed one per structure and expose it
/// via an `anchor()` accessor.
#[derive(Debug)]
pub struct Anchor {
    word: TxWord,
}

impl Anchor {
    pub const fn new() -> Anchor {
        Anchor {
            word: TxWord::new(0),
        }
    }

    /// Transactionally assert the anchor is free. Call this for **every**
    /// participant at the top of a composed prefix: a held anchor aborts
    /// with [`AbortCause::Conflict`] (transient — the fallback holding it
    /// will finish), and a free read enrolls the anchor in the read set so
    /// a later acquisition dooms this transaction at commit.
    pub fn tx_check<'e>(&'e self, tx: &mut Txn<'e>) -> TxResult<()> {
        if tx.read(&self.word)? != 0 {
            return Err(Abort {
                cause: AbortCause::Conflict,
            });
        }
        Ok(())
    }

    /// Is a composed fallback currently holding this structure?
    pub fn is_held(&self) -> bool {
        self.word.peek() != 0
    }

    fn try_lock(&self) -> bool {
        self.word.cas(0, 1)
    }

    /// Racy "does it look held?" probe for the acquisition wait loop —
    /// reads the bare cell without touching the anchor's orec.
    fn looks_held(&self) -> bool {
        self.word.peek_racy() != 0
    }

    fn unlock(&self) {
        // The store bumps the anchor's orec version (strong atomicity), so
        // prefixes that read "held" and are still live revalidate.
        self.word.store(0, Ordering::Release);
    }

    fn addr(&self) -> usize {
        &self.word as *const TxWord as usize
    }
}

impl Default for Anchor {
    fn default() -> Self {
        Anchor::new()
    }
}

/// Holds a set of anchors; releases them in reverse acquisition order on
/// drop (including on unwind, so a panicking fallback does not wedge the
/// structures for every other composed op).
pub struct AnchorGuard<'a> {
    held: Vec<&'a Anchor>,
}

impl Drop for AnchorGuard<'_> {
    fn drop(&mut self) {
        for a in self.held.iter().rev() {
            a.unlock();
        }
    }
}

/// Acquire every anchor in global address order (sorted, duplicates
/// collapsed), waiting on held ones with the gate-aware tick
/// ([`pto_sim::spin_wait_tick`]): the wait is charged for its virtual
/// duration, not per physical poll. This is the two-phase fallback's
/// phase one.
pub fn acquire_ordered<'a>(anchors: &[&'a Anchor]) -> AnchorGuard<'a> {
    let mut sorted: Vec<&'a Anchor> = anchors.to_vec();
    sorted.sort_by_key(|a| a.addr());
    sorted.dedup_by_key(|a| a.addr());
    let mut held = Vec::with_capacity(sorted.len());
    for a in sorted {
        // Test-then-CAS: the CAS probe goes through the word layer, which
        // locks the anchor's *orec* on every attempt — a waiter that CASed
        // in a tight loop would hold that orec at a high duty cycle and
        // starve the very release (`store(0)`, which must lock the same
        // orec) it is waiting for. Probe the bare cell instead and CAS
        // only on an observed-free transition; while held, wait with the
        // gate-aware tick so the wait costs its virtual duration rather
        // than one charge per physical poll.
        loop {
            if !a.looks_held() && a.try_lock() {
                break;
            }
            pto_sim::spin_wait_tick();
            std::hint::spin_loop();
        }
        held.push(a);
    }
    AnchorGuard { held }
}

/// A composed multi-structure operation site: the participants' anchors
/// plus an execution mode ([`Exec`]) and its own [`PtoStats`].
///
/// Build one per composed call site (or use the [`compose!`] macro for
/// one-shot use) and call [`Composed::run`] with a prefix closure that
/// performs *both* halves transactionally and a fallback closure that
/// performs both halves via the structures' ordinary operations. The
/// executor wraps them: the prefix is preceded by [`Anchor::tx_check`]
/// on every participant, the fallback by [`acquire_ordered`].
///
/// The prefix contract is the usual PTO one plus a composition rule: a
/// half that observes a state it cannot handle transactionally (helping
/// required, stale snapshot, unsupported variant) must **abort** (e.g.
/// [`crate::ABORT_HELP`]) rather than return having applied nothing —
/// otherwise the transaction could commit with only the other half
/// applied.
pub struct Composed<'a> {
    anchors: Vec<&'a Anchor>,
    exec: Exec,
    /// Outcome counters for this composed site (fast/middle/fallback and
    /// abort causes), independent of the participants' own stats.
    pub stats: PtoStats,
}

impl<'a> Composed<'a> {
    pub fn new(anchors: Vec<&'a Anchor>, exec: Exec) -> Composed<'a> {
        Composed {
            anchors,
            exec,
            stats: PtoStats::new(),
        }
    }

    /// Run one composed operation. Emits `policy.compose_entries` on
    /// entry and `policy.compose_fallbacks` when the ordered-lock path
    /// runs. `#[track_caller]`: profile attribution and adaptive site
    /// state key on the *caller's* location, one site per composed
    /// call site.
    #[track_caller]
    pub fn run<'e, T>(
        &'e self,
        mut prefix: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
        fallback: impl FnOnce() -> T,
    ) -> T {
        metrics::emit(Series::PolicyComposeEntries, 1);
        let anchors = &self.anchors;
        let wrapped_prefix = move |tx: &mut Txn<'e>| -> TxResult<T> {
            for a in anchors.iter() {
                a.tx_check(tx)?;
            }
            prefix(tx)
        };
        let wrapped_fallback = move || {
            metrics::emit(Series::PolicyComposeFallbacks, 1);
            let _held = acquire_ordered(anchors);
            fallback()
        };
        self.exec.run(&self.stats, wrapped_prefix, wrapped_fallback)
    }
}

/// A [`Composed`] over `anchors` with a static retry budget.
pub fn compose<'a>(policy: PtoPolicy, anchors: Vec<&'a Anchor>) -> Composed<'a> {
    Composed::new(anchors, Exec::Static(policy))
}

/// A [`Composed`] over `anchors` under the self-tuning adaptive policy.
pub fn compose_adaptive<'a>(ap: AdaptivePolicy, anchors: Vec<&'a Anchor>) -> Composed<'a> {
    Composed::new(anchors, Exec::Adaptive(ap))
}

/// One-shot composed operation: builds a throwaway [`Composed`] over the
/// given structures (anything exposing `anchor() -> &Anchor`) and runs it.
///
/// ```ignore
/// let moved = compose!(
///     on: [&src, &dst],
///     policy: PtoPolicy::with_attempts(4),
///     prefix: |tx| {
///         if src.tx_compose_update(tx, k, false)? {
///             src_to_dst(tx)?;
///             Ok(true)
///         } else {
///             Ok(false)
///         }
///     },
///     fallback: || src.remove(&(k as u64)) && { dst.insert(k as u64); true },
/// );
/// ```
///
/// Per-site stats are discarded; keep a named [`Composed`] when you want
/// them.
#[macro_export]
macro_rules! compose {
    (on: [$($s:expr),+ $(,)?], policy: $p:expr, prefix: $prefix:expr, fallback: $fallback:expr $(,)?) => {{
        $crate::compose::Composed::new(
            vec![$($s.anchor()),+],
            $crate::policy::Exec::Static($p),
        )
        .run($prefix, $fallback)
    }};
    (on: [$($s:expr),+ $(,)?], adaptive: $p:expr, prefix: $prefix:expr, fallback: $fallback:expr $(,)?) => {{
        $crate::compose::Composed::new(
            vec![$($s.anchor()),+],
            $crate::policy::Exec::Adaptive($p),
        )
        .run($prefix, $fallback)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_starts_free() {
        let a = Anchor::new();
        assert!(!a.is_held());
    }

    #[test]
    fn ordered_acquire_dedups_and_releases() {
        let a = Anchor::new();
        let b = Anchor::new();
        {
            let _g = acquire_ordered(&[&b, &a, &b]);
            assert!(a.is_held());
            assert!(b.is_held());
        }
        assert!(!a.is_held());
        assert!(!b.is_held());
    }

    #[test]
    fn composed_prefix_sees_held_anchor_as_conflict() {
        let a = Anchor::new();
        let b = Anchor::new();
        let held = acquire_ordered(&[&b]);
        let c = compose(PtoPolicy::with_attempts(2), vec![&a, &b]);
        // Prefix can never commit while b is held; the op lands on the
        // fallback, which must wait for the holder — release first.
        drop(held);
        let via = c.run(|_tx| Ok(1u64), || 2u64);
        assert_eq!(via, 1);
        assert_eq!(c.stats.fast.get(), 1);
    }

    #[test]
    fn fallback_runs_under_all_anchors() {
        let a = Anchor::new();
        let b = Anchor::new();
        let c = compose(PtoPolicy::with_attempts(1), vec![&a, &b]);
        let got = c.run(
            |tx| Err(tx.abort(crate::ABORT_HELP)),
            || {
                assert!(a.is_held());
                assert!(b.is_held());
                7u64
            },
        );
        assert_eq!(got, 7);
        assert_eq!(c.stats.fallback.get(), 1);
        assert!(!a.is_held());
        assert!(!b.is_held());
    }
}

//! # pto-mindicator — the Mindicator quiescence tree (§3.1, Figure 2(a))
//!
//! The Mindicator (Liu, Luchangco, Spear, ICDCS'13) is a static tree that
//! maintains the minimum over one value per thread: `arrive(v)` announces a
//! value, `depart()` withdraws it, `query()` reads the current minimum at
//! the root. Unlike SNZI it supports min (not just zero/nonzero); unlike
//! the f-array not every operation must climb to the root.
//!
//! Three variants, exactly the three curves of Figure 2(a):
//!
//! * [`LockFreeMindicator`] — the baseline. An operation *marks* each node
//!   it climbs (a per-node counter CAS), updates the value, and unmarks on
//!   the way back down; each node carries `(count, value)` packed in one
//!   word so both phases are single-word CASes.
//! * [`PtoMindicator`] — the PTO variant. The prefix transaction updates
//!   the climbed values directly: because intermediate states of a
//!   transaction are invisible, the mark and unmark steps coalesce and
//!   **the entire downward traversal disappears** (the paper phrases the
//!   same coalescing as "the counter is incremented once, by two"). Three
//!   attempts, then the untouched lock-free fallback — the paper's tuned
//!   threshold (§3.1).
//! * [`TleMindicator`] — coarse lock + transactional lock elision, the
//!   comparison baseline whose locking fallback ruins scalability.
//!
//! Per the paper's experiment, trees are configured with 64 leaves and
//! threads take leaves left-to-right (the default mapping).
//!
//! **Semantics note.** `query` here is *quiescently consistent*: exact
//! whenever no arrive/depart climb is in flight (in particular, once every
//! arrival that started has returned, the root is ≤ each announced value).
//! While climbs are in flight a query may observe a stale minimum in
//! either direction — an arrival that early-stops below another thread's
//! still-climbing fold trusts that fold to reach the root *eventually*.
//! (The original Mindicator's mark protocol also carries query-side
//! meaning; this reproduction keeps the marking *traffic* — the cost PTO
//! eliminates — but not that stronger read protocol.) Consumers that act
//! on `query` (see the `quiescence_barrier` example) should therefore
//! treat only *stable* readings as actionable.

use pto_core::policy::{pto, PtoPolicy, PtoStats};
use pto_core::tle::Tle;
use pto_core::Quiescence;
use pto_htm::{TxResult, TxWord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Value meaning "no value announced" at a leaf or subtree.
const IDLE32: u32 = u32::MAX;

#[inline]
fn pack(count: u32, value: u32) -> u64 {
    ((count as u64) << 32) | value as u64
}

#[inline]
fn value_of(word: u64) -> u32 {
    word as u32
}

#[inline]
fn count_of(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Monotone instance ids for the thread→leaf lease table.
static NEXT_TREE_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// (tree id, leaf index) pairs for this thread, one per structure.
    static MY_LEAVES: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// The shared static tree: heap-array layout, node 1 is the root, node `i`
/// has children `2i` and `2i+1`, leaves occupy `[leaves, 2*leaves)`.
struct Tree {
    id: u64,
    nodes: Box<[TxWord]>,
    leaves: usize,
    next_leaf: AtomicUsize,
}

impl Tree {
    fn new(leaves: usize) -> Self {
        assert!(leaves.is_power_of_two() && leaves >= 2, "leaves must be a power of two ≥ 2");
        Tree {
            id: NEXT_TREE_ID.fetch_add(1, Ordering::Relaxed),
            nodes: (0..2 * leaves).map(|_| TxWord::new(pack(0, IDLE32))).collect(),
            leaves,
            next_leaf: AtomicUsize::new(0),
        }
    }

    /// The calling thread's leaf (assigned left-to-right on first use —
    /// the paper's default mapping).
    fn my_leaf(&self) -> usize {
        MY_LEAVES.with(|l| {
            let mut l = l.borrow_mut();
            if let Some(&(_, leaf)) = l.iter().find(|&&(id, _)| id == self.id) {
                return leaf;
            }
            let n = self.next_leaf.fetch_add(1, Ordering::Relaxed);
            assert!(
                n < self.leaves,
                "more threads than Mindicator leaves ({})",
                self.leaves
            );
            let leaf = self.leaves + n;
            l.push((self.id, leaf));
            leaf
        })
    }

    fn root_value(&self) -> u64 {
        let v = value_of(self.nodes[1].load(Ordering::Acquire));
        if v == IDLE32 {
            pto_core::traits::IDLE
        } else {
            v as u64
        }
    }

    // -- lock-free operations (marking up, unmarking down) ---------------

    /// Set this thread's leaf value (only the owner writes its leaf).
    fn lf_set_leaf(&self, leaf: usize, v: u32) {
        loop {
            let cur = self.nodes[leaf].load(Ordering::Acquire);
            let new = pack(count_of(cur), v);
            if self.nodes[leaf]
                .compare_exchange(cur, new, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Climb from `leaf`'s parent toward the root, folding `v` into each
    /// node's min and marking it (count+1); stop once the min is
    /// unaffected. Returns the marked path for the unmark phase.
    fn lf_arrive_climb(&self, leaf: usize, v: u32) -> Vec<usize> {
        let mut marked = Vec::with_capacity(16);
        let mut i = leaf / 2;
        while i >= 1 {
            loop {
                let cur = self.nodes[i].load(Ordering::Acquire);
                let (cnt, val) = (count_of(cur), value_of(cur));
                let newv = val.min(v);
                if self.nodes[i]
                    .compare_exchange(cur, pack(cnt + 1, newv), Ordering::SeqCst)
                    .is_ok()
                {
                    marked.push(i);
                    if newv == val {
                        // Subtree min unaffected: ancestors already cover v.
                        return marked;
                    }
                    break;
                }
            }
            if i == 1 {
                break;
            }
            i /= 2;
        }
        marked
    }

    /// Climb recomputing each node's min from its children (depart path),
    /// marking as it goes; stops when a recompute leaves a node unchanged.
    fn lf_recompute_climb(&self, leaf: usize) -> Vec<usize> {
        let mut marked = Vec::with_capacity(16);
        let mut i = leaf / 2;
        while i >= 1 {
            loop {
                let cur = self.nodes[i].load(Ordering::Acquire);
                let l = value_of(self.nodes[2 * i].load(Ordering::Acquire));
                let r = value_of(self.nodes[2 * i + 1].load(Ordering::Acquire));
                let newv = l.min(r);
                if self.nodes[i]
                    .compare_exchange(cur, pack(count_of(cur) + 1, newv), Ordering::SeqCst)
                    .is_ok()
                {
                    marked.push(i);
                    if newv == value_of(cur) {
                        return marked;
                    }
                    break;
                }
            }
            if i == 1 {
                break;
            }
            i /= 2;
        }
        marked
    }

    /// The downward unmark traversal. Like the original algorithm, the
    /// unmark is *another increment* (odd parity = marked/in flux): the
    /// counter is monotone, so a recompute that snapshotted a node before a
    /// concurrent climb can never ABA back onto it after the unmark.
    fn lf_unmark(&self, marked: &[usize]) {
        for &i in marked.iter().rev() {
            loop {
                let cur = self.nodes[i].load(Ordering::Acquire);
                if self.nodes[i]
                    .compare_exchange(
                        cur,
                        pack(count_of(cur) + 1, value_of(cur)),
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
    }

    fn lf_arrive(&self, v: u32) {
        let leaf = self.my_leaf();
        self.lf_set_leaf(leaf, v);
        let marked = self.lf_arrive_climb(leaf, v);
        self.lf_unmark(&marked);
    }

    fn lf_depart(&self) {
        let leaf = self.my_leaf();
        self.lf_set_leaf(leaf, IDLE32);
        let marked = self.lf_recompute_climb(leaf);
        self.lf_unmark(&marked);
    }

    // -- transactional prefixes ------------------------------------------

    /// Prefix for arrive: write the leaf, fold the min upward. No separate
    /// mark/unmark phases — each touched node's counter is "incremented
    /// once, by two" (§3.1), which both coalesces the two phases and keeps
    /// the counter monotone for concurrent lock-free snapshots.
    fn tx_arrive<'e>(&'e self, tx: &mut pto_htm::Txn<'e>, leaf: usize, v: u32) -> TxResult<()> {
        let cur = tx.read(&self.nodes[leaf])?;
        tx.write(&self.nodes[leaf], pack(count_of(cur) + 2, v))?;
        tx.fence();
        let mut i = leaf / 2;
        while i >= 1 {
            let cur = tx.read(&self.nodes[i])?;
            let (cnt, val) = (count_of(cur), value_of(cur));
            // Bump the counter even at the early-stop node, exactly like
            // the fallback's mark+unmark: a concurrent departer's stale
            // recompute snapshot must see this node changed.
            tx.write(&self.nodes[i], pack(cnt + 2, val.min(v)))?;
            tx.fence();
            if val <= v || i == 1 {
                break;
            }
            i /= 2;
        }
        Ok(())
    }

    /// Prefix for depart: clear the leaf, recompute minima upward. Counter
    /// handling mirrors [`Tree::tx_arrive`].
    fn tx_depart<'e>(&'e self, tx: &mut pto_htm::Txn<'e>, leaf: usize) -> TxResult<()> {
        let cur = tx.read(&self.nodes[leaf])?;
        tx.write(&self.nodes[leaf], pack(count_of(cur) + 2, IDLE32))?;
        tx.fence();
        let mut i = leaf / 2;
        while i >= 1 {
            let cur = tx.read(&self.nodes[i])?;
            let l = value_of(tx.read(&self.nodes[2 * i])?);
            let r = value_of(tx.read(&self.nodes[2 * i + 1])?);
            let newv = l.min(r);
            let unchanged = newv == value_of(cur);
            tx.write(&self.nodes[i], pack(count_of(cur) + 2, newv))?;
            tx.fence();
            if unchanged || i == 1 {
                break;
            }
            i /= 2;
        }
        Ok(())
    }
}

fn check_value(value: u64) -> u32 {
    assert!(value < IDLE32 as u64, "Mindicator values must be < 2^32 - 1");
    value as u32
}

// -------------------------------------------------------------------------
// Public variants
// -------------------------------------------------------------------------

/// The baseline lock-free Mindicator.
pub struct LockFreeMindicator {
    tree: Tree,
}

impl LockFreeMindicator {
    /// A tree with `leaves` leaves (the paper uses 64).
    pub fn new(leaves: usize) -> Self {
        LockFreeMindicator {
            tree: Tree::new(leaves),
        }
    }
}

impl Quiescence for LockFreeMindicator {
    fn arrive(&self, value: u64) {
        self.tree.lf_arrive(check_value(value));
    }

    fn depart(&self) {
        self.tree.lf_depart();
    }

    fn query(&self) -> u64 {
        self.tree.root_value()
    }
}

/// The PTO-accelerated Mindicator: prefix transaction first (3 attempts,
/// the paper's tuned threshold), lock-free fallback after.
///
/// ```
/// use pto_core::Quiescence;
/// use pto_mindicator::PtoMindicator;
///
/// let m = PtoMindicator::new(64); // the paper's 64-leaf configuration
/// m.arrive(42);
/// assert_eq!(m.query(), 42);
/// m.depart();
/// assert_eq!(m.query(), u64::MAX); // idle
/// ```
pub struct PtoMindicator {
    tree: Tree,
    policy: PtoPolicy,
    pub stats: PtoStats,
}

impl PtoMindicator {
    pub fn new(leaves: usize) -> Self {
        Self::with_policy(leaves, PtoPolicy::with_attempts(3))
    }

    pub fn with_policy(leaves: usize, policy: PtoPolicy) -> Self {
        PtoMindicator {
            tree: Tree::new(leaves),
            policy,
            stats: PtoStats::new(),
        }
    }
}

impl Quiescence for PtoMindicator {
    fn arrive(&self, value: u64) {
        let v = check_value(value);
        let leaf = self.tree.my_leaf();
        pto(
            &self.policy,
            &self.stats,
            |tx| self.tree.tx_arrive(tx, leaf, v),
            || {
                self.tree.lf_set_leaf(leaf, v);
                let marked = self.tree.lf_arrive_climb(leaf, v);
                self.tree.lf_unmark(&marked);
            },
        );
    }

    fn depart(&self) {
        let leaf = self.tree.my_leaf();
        pto(
            &self.policy,
            &self.stats,
            |tx| self.tree.tx_depart(tx, leaf),
            || {
                self.tree.lf_set_leaf(leaf, IDLE32);
                let marked = self.tree.lf_recompute_climb(leaf);
                self.tree.lf_unmark(&marked);
            },
        );
    }

    fn query(&self) -> u64 {
        self.tree.root_value()
    }
}

/// The TLE baseline: a sequential Mindicator (no marks — mutual exclusion
/// makes them unnecessary) behind an elidable global lock.
pub struct TleMindicator {
    tree: Tree,
    tle: Tle,
}

impl TleMindicator {
    pub fn new(leaves: usize) -> Self {
        TleMindicator {
            tree: Tree::new(leaves),
            tle: Tle::new(3),
        }
    }

    /// Elided vs. locked execution counts (diagnostics).
    pub fn stats(&self) -> (u64, u64) {
        (self.tle.stats.fast.get(), self.tle.stats.fallback.get())
    }
}

impl Quiescence for TleMindicator {
    fn arrive(&self, value: u64) {
        let v = check_value(value);
        let leaf = self.tree.my_leaf();
        let nodes = &self.tree.nodes;
        self.tle.execute(|ctx| {
            let cur = ctx.read(&nodes[leaf])?;
            ctx.write(&nodes[leaf], pack(count_of(cur), v))?;
            let mut i = leaf / 2;
            while i >= 1 {
                let cur = ctx.read(&nodes[i])?;
                if value_of(cur) <= v {
                    break;
                }
                ctx.write(&nodes[i], pack(count_of(cur), v))?;
                if i == 1 {
                    break;
                }
                i /= 2;
            }
            Ok(())
        });
    }

    fn depart(&self) {
        let leaf = self.tree.my_leaf();
        let nodes = &self.tree.nodes;
        self.tle.execute(|ctx| {
            let cur = ctx.read(&nodes[leaf])?;
            ctx.write(&nodes[leaf], pack(count_of(cur), IDLE32))?;
            let mut i = leaf / 2;
            while i >= 1 {
                let cur = ctx.read(&nodes[i])?;
                let l = value_of(ctx.read(&nodes[2 * i])?);
                let r = value_of(ctx.read(&nodes[2 * i + 1])?);
                let newv = l.min(r);
                if newv == value_of(cur) {
                    break;
                }
                ctx.write(&nodes[i], pack(count_of(cur), newv))?;
                if i == 1 {
                    break;
                }
                i /= 2;
            }
            Ok(())
        });
    }

    fn query(&self) -> u64 {
        self.tree.root_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_quiescent_min<Q: Quiescence>(q: &Q, expect: Option<u64>) {
        match expect {
            Some(v) => assert_eq!(q.query(), v),
            None => assert_eq!(q.query(), pto_core::IDLE),
        }
    }

    #[test]
    fn arrive_query_depart_single_thread_lockfree() {
        let m = LockFreeMindicator::new(8);
        check_quiescent_min(&m, None);
        m.arrive(42);
        check_quiescent_min(&m, Some(42));
        m.arrive(7); // re-arrive with a smaller value
        check_quiescent_min(&m, Some(7));
        m.depart();
        check_quiescent_min(&m, None);
    }

    #[test]
    fn arrive_query_depart_single_thread_pto() {
        let m = PtoMindicator::new(8);
        m.arrive(42);
        check_quiescent_min(&m, Some(42));
        m.depart();
        check_quiescent_min(&m, None);
        // Uncontended: everything should have gone through the fast path.
        assert_eq!(m.stats.fallback.get(), 0);
        assert!(m.stats.fast.get() >= 2);
    }

    #[test]
    fn arrive_query_depart_single_thread_tle() {
        let m = TleMindicator::new(8);
        m.arrive(42);
        check_quiescent_min(&m, Some(42));
        m.depart();
        check_quiescent_min(&m, None);
        assert_eq!(m.stats().1, 0, "uncontended TLE should never lock");
    }

    #[test]
    fn rearrive_with_larger_value_raises_min() {
        // depart-free re-arrival: 5 then 9 — the min must become 9 again
        // (requires recompute behaviour on... actually arrive only lowers;
        // re-arrive with larger value goes through leaf set + climb where
        // the climb folds min(val, 9), leaving stale 5. The Mindicator's
        // contract is arrive/depart pairs; enforce via depart.
        let m = LockFreeMindicator::new(8);
        m.arrive(5);
        m.depart();
        m.arrive(9);
        check_quiescent_min(&m, Some(9));
    }

    #[test]
    fn counters_are_monotone_and_even_when_quiescent() {
        // Mark and unmark both increment (the ABA-free protocol the
        // paper's "+2" coalescing relies on): after any number of complete
        // operations every counter is even and never decreases.
        let m = LockFreeMindicator::new(8);
        let before: Vec<u64> = m.tree.nodes.iter().map(|n| count_of(n.peek()) as u64).collect();
        m.arrive(3);
        m.depart();
        for (n, &b) in m.tree.nodes.iter().zip(&before) {
            let c = count_of(n.peek()) as u64;
            assert_eq!(c % 2, 0, "odd counter while quiescent");
            assert!(c >= b, "counter decreased");
        }
    }

    fn multi_thread_min_matches<Q: Quiescence>(m: &Q, nthreads: usize) {
        // Arrive and depart must happen on the same thread (leaves are
        // per-thread leases), so synchronize phases with a barrier.
        let vals: Vec<u64> = (0..nthreads as u64).map(|i| 100 + 17 * i).collect();
        let min = *vals.iter().min().unwrap();
        let barrier = std::sync::Barrier::new(nthreads);
        std::thread::scope(|s| {
            for (t, &v) in vals.iter().enumerate() {
                let barrier = &barrier;
                s.spawn(move || {
                    m.arrive(v);
                    barrier.wait();
                    if t == 0 {
                        assert_eq!(m.query(), min, "min wrong while all arrived");
                    }
                    barrier.wait();
                    m.depart();
                });
            }
        });
        assert_eq!(m.query(), pto_core::IDLE);
    }

    #[test]
    fn concurrent_arrivals_lockfree() {
        let m = LockFreeMindicator::new(16);
        multi_thread_min_matches(&m, 8);
    }

    #[test]
    fn concurrent_arrivals_pto() {
        let m = PtoMindicator::new(16);
        multi_thread_min_matches(&m, 8);
    }

    #[test]
    fn concurrent_arrivals_tle() {
        let m = TleMindicator::new(16);
        multi_thread_min_matches(&m, 8);
    }

    fn stress_pairs<Q: Quiescence>(m: &Q, nthreads: usize, iters: usize) {
        std::thread::scope(|s| {
            for t in 0..nthreads {
                s.spawn(move || {
                    let mut x = (t as u64 + 1) * 0x9E37_79B9;
                    for _ in 0..iters {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let v = (x >> 33) % 100_000;
                        m.arrive(v);
                        let q = m.query();
                        // Concurrent queries are quiescently consistent
                        // (see the crate-level semantics note): sanity-check
                        // the reading's type only; exactness is asserted in
                        // the barrier-synchronized tests and at the end of
                        // this stress.
                        assert!(
                            q <= 100_000 || q == pto_core::IDLE,
                            "query returned a value nobody ever announced: {q}"
                        );
                        m.depart();
                    }
                });
            }
        });
        assert_eq!(m.query(), pto_core::IDLE, "tree not quiescent after stress");
    }

    #[test]
    fn stress_lockfree_quiesces() {
        let m = LockFreeMindicator::new(16);
        stress_pairs(&m, 6, 2_000);
        // Counters are monotone (mark and unmark both increment); each
        // completed operation contributes +2 per touched node, so every
        // quiescent counter is even.
        for n in m.tree.nodes.iter() {
            assert_eq!(count_of(n.peek()) % 2, 0, "odd counter after quiescence");
        }
    }

    #[test]
    fn stress_pto_quiesces() {
        let m = PtoMindicator::new(16);
        stress_pairs(&m, 6, 2_000);
    }

    #[test]
    fn stress_tle_quiesces() {
        let m = TleMindicator::new(16);
        stress_pairs(&m, 6, 1_000);
    }

    #[test]
    fn pto_and_fallback_interoperate() {
        // Force every PTO attempt to fail (zero attempts) for half the
        // threads so fast and slow paths mix on the same tree.
        let m = PtoMindicator::with_policy(16, PtoPolicy::with_attempts(0));
        stress_pairs(&m, 4, 1_000);
        assert_eq!(m.stats.fast.get(), 0);
        assert!(m.stats.fallback.get() > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = LockFreeMindicator::new(12);
    }

    #[test]
    #[should_panic(expected = "values must be")]
    fn rejects_reserved_value() {
        let m = LockFreeMindicator::new(8);
        m.arrive(u64::MAX);
    }

    #[test]
    fn pto_is_cheaper_than_lockfree_single_thread() {
        // The headline Figure 2(a) single-thread effect: a PTO arrive+depart
        // pair must cost fewer modeled cycles than the lock-free pair
        // (marking + unmarking eliminated).
        let lf = LockFreeMindicator::new(64);
        let pt = PtoMindicator::new(64);
        // Warm up leaf assignment outside the measurement.
        lf.arrive(1);
        lf.depart();
        pt.arrive(1);
        pt.depart();
        pto_sim::clock::reset();
        for i in 0..100 {
            lf.arrive(i % 50);
            lf.depart();
        }
        let lf_cost = pto_sim::now();
        pto_sim::clock::reset();
        for i in 0..100 {
            pt.arrive(i % 50);
            pt.depart();
        }
        let pto_cost = pto_sim::now();
        assert!(
            pto_cost < lf_cost,
            "PTO ({pto_cost}) should beat lock-free ({lf_cost}) single-threaded"
        );
    }
}

#[cfg(test)]
mod cause_observability {
    use super::*;
    use pto_core::Quiescence;

    #[test]
    fn chaos_aborts_land_in_the_spurious_bucket() {
        let m = PtoMindicator::with_policy(8, PtoPolicy::with_attempts(2).with_chaos(100));
        m.arrive(5);
        assert_eq!(m.query(), 5);
        m.depart();
        assert!(m.stats.causes.spurious.get() > 0);
        assert_eq!(m.stats.causes.total(), m.stats.aborted_attempts.get());
        assert_eq!(m.stats.causes.capacity.get(), 0);
        assert_eq!(m.stats.causes.explicit.get(), 0);
    }
}

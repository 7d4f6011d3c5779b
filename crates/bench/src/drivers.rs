//! The three microbenchmark drivers of §4.1.
//!
//! Every measured-loop operation is stamped with the per-lane virtual
//! clock and its latency recorded into [`crate::lat`]'s histograms
//! (prefill work is excluded); reading the clock charges nothing, so the
//! stamps do not perturb the virtual-time results.

use crate::lat::{self, OpKind};
use pto_core::traits::FifoQueue;
use pto_core::{ConcurrentSet, PriorityQueue, Quiescence};
use pto_sim::rng::XorShift64;
use pto_sim::{ops_per_ms, Sim};
use std::sync::atomic::{AtomicU64, Ordering};

/// Factory closures: each trial builds a fresh structure.
pub type SetFactory<S> = fn() -> S;
pub type PqFactory<Q> = fn() -> Q;

/// setbench: lookups with probability `lookup_pct`%, otherwise an update
/// with equal chance of insert or remove, keys uniform in `[0, range)`.
/// The set is prefilled to half the range (steady state). Returns ops/ms.
pub fn setbench<S: ConcurrentSet>(
    factory: impl Fn() -> S,
    threads: usize,
    ops_per_thread: u64,
    range: u64,
    lookup_pct: u64,
    seed: u64,
) -> f64 {
    let s = factory();
    // Prefill to 50% occupancy with a deterministic half of the keyspace.
    let mut rng = XorShift64::new(seed ^ 0xDEAD_BEEF);
    let mut inserted = 0;
    while inserted < range / 2 {
        if s.insert(rng.below(range)) {
            inserted += 1;
        }
    }
    // Settle any lazy work the prefill deferred (e.g. pending hash-table
    // bucket migrations) so the measured phase sees steady state; len()
    // walks the whole structure. Prefill costs are excluded by the clock
    // reset below either way.
    let _ = std::hint::black_box(s.len());
    pto_sim::clock::reset();
    let total_ops = AtomicU64::new(0);
    let out = Sim::new(threads).run(|lane| {
        let mut rng = XorShift64::new(seed.wrapping_add(lane as u64 * 0x9E37_79B9 + 1));
        for _ in 0..ops_per_thread {
            let k = rng.below(range);
            let roll = rng.below(100);
            let t0 = pto_sim::now();
            if roll < lookup_pct {
                std::hint::black_box(s.contains(k));
                lat::record(OpKind::Contains, pto_sim::now() - t0);
            } else if rng.chance(1, 2) {
                std::hint::black_box(s.insert(k));
                lat::record(OpKind::Insert, pto_sim::now() - t0);
            } else {
                std::hint::black_box(s.remove(k));
                lat::record(OpKind::Remove, pto_sim::now() - t0);
            }
        }
        total_ops.fetch_add(ops_per_thread, Ordering::Relaxed);
    });
    ops_per_ms(total_ops.load(Ordering::Relaxed), out.makespan)
}

/// setbench with a phase-changing op mix: each lane runs the phases in
/// order inside ONE simulated run (no clock reset between phases), so a
/// policy tuned for the first phase carries its state — good or bad —
/// into the next. Each phase is `(ops_per_thread, lookup_pct)`; updates
/// stay 50/50 insert/remove. Returns overall ops/ms of the whole run.
pub fn setbench_phased<S: ConcurrentSet>(
    factory: impl Fn() -> S,
    threads: usize,
    phases: &[(u64, u64)],
    range: u64,
    seed: u64,
) -> f64 {
    let s = factory();
    let mut rng = XorShift64::new(seed ^ 0xDEAD_BEEF);
    let mut inserted = 0;
    while inserted < range / 2 {
        if s.insert(rng.below(range)) {
            inserted += 1;
        }
    }
    let _ = std::hint::black_box(s.len());
    pto_sim::clock::reset();
    let total_ops = AtomicU64::new(0);
    let out = Sim::new(threads).run(|lane| {
        let mut rng = XorShift64::new(seed.wrapping_add(lane as u64 * 0x9E37_79B9 + 1));
        let mut lane_ops = 0u64;
        for &(ops, lookup_pct) in phases {
            for _ in 0..ops {
                let k = rng.below(range);
                let roll = rng.below(100);
                let t0 = pto_sim::now();
                if roll < lookup_pct {
                    std::hint::black_box(s.contains(k));
                    lat::record(OpKind::Contains, pto_sim::now() - t0);
                } else if rng.chance(1, 2) {
                    std::hint::black_box(s.insert(k));
                    lat::record(OpKind::Insert, pto_sim::now() - t0);
                } else {
                    std::hint::black_box(s.remove(k));
                    lat::record(OpKind::Remove, pto_sim::now() - t0);
                }
            }
            lane_ops += ops;
        }
        total_ops.fetch_add(lane_ops, Ordering::Relaxed);
    });
    ops_per_ms(total_ops.load(Ordering::Relaxed), out.makespan)
}

/// pqbench: 50/50 push(random)/pop; pop on empty returns null (§4.1).
/// Prefilled with `range/2` random keys so pops mostly succeed.
pub fn pqbench<Q: PriorityQueue>(
    factory: impl Fn() -> Q,
    threads: usize,
    ops_per_thread: u64,
    range: u64,
    seed: u64,
) -> f64 {
    let q = factory();
    let mut rng = XorShift64::new(seed ^ 0xFEED_F00D);
    for _ in 0..range / 2 {
        q.push(rng.below(range));
    }
    pto_sim::clock::reset();
    let total_ops = AtomicU64::new(0);
    let out = Sim::new(threads).run(|lane| {
        let mut rng = XorShift64::new(seed.wrapping_add(lane as u64 * 0x85EB_CA6B + 1));
        for _ in 0..ops_per_thread {
            let t0 = pto_sim::now();
            if rng.chance(1, 2) {
                q.push(rng.below(range));
                lat::record(OpKind::Push, pto_sim::now() - t0);
            } else {
                std::hint::black_box(q.pop_min());
                lat::record(OpKind::Pop, pto_sim::now() - t0);
            }
        }
        total_ops.fetch_add(ops_per_thread, Ordering::Relaxed);
    });
    ops_per_ms(total_ops.load(Ordering::Relaxed), out.makespan)
}

/// fifobench: 50/50 enqueue/dequeue on a FIFO queue (the §2.3 MS-queue
/// study), prefilled with `prefill` elements.
pub fn fifobench<Q: FifoQueue>(
    factory: impl Fn() -> Q,
    threads: usize,
    ops_per_thread: u64,
    prefill: u64,
    seed: u64,
) -> f64 {
    let q = factory();
    for i in 0..prefill {
        q.enqueue(i);
    }
    pto_sim::clock::reset();
    let total_ops = AtomicU64::new(0);
    let out = Sim::new(threads).run(|lane| {
        let mut rng = XorShift64::new(seed.wrapping_add(lane as u64 * 0x27D4_EB2F + 1));
        for i in 0..ops_per_thread {
            let t0 = pto_sim::now();
            if rng.chance(1, 2) {
                q.enqueue(i);
                lat::record(OpKind::Enqueue, pto_sim::now() - t0);
            } else {
                std::hint::black_box(q.dequeue());
                lat::record(OpKind::Dequeue, pto_sim::now() - t0);
            }
        }
        total_ops.fetch_add(ops_per_thread, Ordering::Relaxed);
    });
    ops_per_ms(total_ops.load(Ordering::Relaxed), out.makespan)
}

/// mbench: each thread repeatedly arrives with a random value and then
/// departs (§4.1); every arrive and every depart counts as one operation.
pub fn mbench<M: Quiescence>(
    factory: impl Fn() -> M,
    threads: usize,
    pairs_per_thread: u64,
    range: u64,
    seed: u64,
) -> f64 {
    let m = factory();
    pto_sim::clock::reset();
    let total_ops = AtomicU64::new(0);
    let out = Sim::new(threads).run(|lane| {
        let mut rng = XorShift64::new(seed.wrapping_add(lane as u64 * 0xC2B2_AE35 + 1));
        for _ in 0..pairs_per_thread {
            let t0 = pto_sim::now();
            m.arrive(rng.below(range));
            let t1 = pto_sim::now();
            lat::record(OpKind::Arrive, t1 - t0);
            m.depart();
            lat::record(OpKind::Depart, pto_sim::now() - t1);
        }
        total_ops.fetch_add(2 * pairs_per_thread, Ordering::Relaxed);
    });
    ops_per_ms(total_ops.load(Ordering::Relaxed), out.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_skiplist::SkipListSet;

    #[test]
    fn setbench_produces_positive_throughput() {
        let t = setbench(SkipListSet::new_lockfree, 2, 200, 128, 34, 42);
        assert!(t > 0.0);
    }

    #[test]
    fn pqbench_produces_positive_throughput() {
        let t = pqbench(pto_skiplist::SkipQueue::new_lockfree, 2, 200, 512, 7);
        assert!(t > 0.0);
    }

    #[test]
    fn mbench_produces_positive_throughput() {
        let t = mbench(|| pto_mindicator::LockFreeMindicator::new(64), 2, 200, 1000, 3);
        assert!(t > 0.0);
    }
}

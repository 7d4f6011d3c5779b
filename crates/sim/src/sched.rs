//! The gate scheduler: fair virtual-time execution of N logical threads.
//!
//! Each logical thread runs on its own OS thread but is only allowed to get
//! `quantum` virtual cycles ahead of the slowest still-active thread. On a
//! single physical core this produces interleavings that are faithful to an
//! N-way parallel machine *in virtual time*: transactions conflict, CASes
//! fail, and helping triggers at the rates an 8-thread Haswell would see,
//! even though only one OS thread executes at any instant.
//!
//! The protocol is decentralized: a thread that crosses a quantum boundary
//! publishes its clock and, if it is too far ahead, parks in a yield-poll
//! loop until the stragglers catch up. Finished lanes publish `u64::MAX`
//! so they never hold others back.
//!
//! # Min tracking: tournament tree
//!
//! The gate's job is to answer "what is (a conservative bound on) the
//! minimum lane clock?" on every quantum crossing. The original design kept
//! a flat `cached_min` refreshed by an O(lanes) rescan; at the paper's 8
//! lanes that scan was noise, but at the server scales the ROADMAP targets
//! (64–512 lanes) it made every crossing linear in machine size. The gate
//! now keeps a **tournament tree** (a complete binary min-tree laid out as
//! a heap array) over the per-lane padded clocks:
//!
//! * leaf `j` *is* lane `j`'s published clock (lanes beyond the
//!   power-of-two width are phantom leaves pinned at `u64::MAX`);
//! * each internal node holds a monotone **lower bound** on the min of its
//!   subtree, maintained by `fetch_max(min(children))`;
//! * the root is a monotone lower bound on the true minimum clock.
//!
//! Invariants (the same three the flat design documented, now per node):
//!
//! 1. **Conservative**: every node value ≤ the true min of its subtree's
//!    current leaf clocks. Proof sketch: a climb writes
//!    `m = min(children)` read at some instant; child values are
//!    conservative by induction and leaves only rise (clocks are monotone,
//!    `finish` publishes `MAX`), so `m` ≤ the subtree min *now and
//!    forever*; `fetch_max` keeps the node the max of conservative values,
//!    which is conservative.
//! 2. **Monotone**: nodes change only via `fetch_max`, so a stale read is
//!    always an *underestimate* — it can only make a lane wait longer,
//!    never let it overrun the skew bound.
//! 3. **Liveness / min-lane-never-parks**: before parking, a lane runs an
//!    *exact* O(lanes) scan and publishes the true min to the root. The
//!    minimum lane finds no other lane behind it and passes, so some lane
//!    always runs; and any lane that *becomes* the minimum while parked
//!    is released by the bounds it polls once the others catch up. A
//!    periodic exact scan inside the park loop backstops this.
//!
//! # The protocol: leases and peer bounds
//!
//! A lane reads other lanes' state only when it has to:
//!
//! * **Lease (fast path).** Each lane holds a lease: a clock up to which it
//!   may run without looking at anyone else. A crossing stores the leaf
//!   and compares the clock against the lane's own lease — no load of
//!   shared gate state. A lease is a lower bound on the other lanes'
//!   minimum plus one quantum; the others only rise, so it stays valid
//!   forever, and a stale read of it is still a valid lease.
//! * **Renewal (cold path).** A crossing past the lease climbs the lane's
//!   own path and leases again against the larger of the root and the
//!   least sibling the climb read. The siblings' subtrees partition the
//!   other lanes, so by invariant 1 the least sibling bounds their
//!   minimum from below. A lane still over runs the exact scan, then
//!   parks. A lone lane has no siblings: its first renewal leases to
//!   `u64::MAX`.
//! * **Peer bound (park poll).** A parked lane polls the root and then
//!   the siblings along its own leaf-to-root path, widest first — at most
//!   1 + log2(lanes) words, and at 2 lanes the peer's leaf itself. It is
//!   released as soon as a peer publishes a clock within a quantum,
//!   climb or no climb. No poll scans all lanes: at 256 lanes, 255 parked
//!   pollers must not storm the machine with full-array scans.
//! * **Revocation.** A lane's fast path never refreshes the tree, so the
//!   sibling nodes a parked lane polls rise only when lanes under them
//!   renew. When the exact scan before a park finds the minimum lane more
//!   than a quantum behind, it zeroes that lane's lease (unless the lane
//!   is a leaf sibling, which the parker reads directly, or its lease
//!   already ends within its next quantum). That lane climbs at its next
//!   crossing. Only the minimum is revoked; `Gate::exact_scan` says why.
//!
//! The three invariants carry over. A lease and a poll bound are both
//! built from node values, so both are conservative (1) and a stale read
//! only lengthens a wait or shortens a lease (2). For liveness (3), a
//! revocation only moves a renewal earlier.
//!
//! **Why a `Release` store suffices.** The fast path publishes its leaf
//! with a plain `Release` store, not the `SeqCst` store (an `xchg` on
//! x86) that would order it before the lease load. A parked peer that
//! reads the leaf late only waits longer. The one hazard is two lanes
//! that each miss the other's store and both park; the exact scan rules
//! it out, because it opens with a `SeqCst` fence. Of two lanes that
//! each store and then fence and scan, one fence comes first in the
//! single total order of `SeqCst` fences, so the other lane's scan sees
//! that lane's store. One of the two sees the true minimum, and the
//! minimum lane passes.
//!
//! Cost: the fast path is one leaf store plus one load of the lane's own
//! lease line, regardless of lane count; a renewal climbs O(log lanes);
//! only a lane about to park pays the O(lanes) exact scan, once per park
//! episode.
//!
//! Wallclock design (virtual time is untouched — the gate never charges
//! cycles):
//!
//! * A 1-lane simulation renews at most once and then never leaves the
//!   fast path, so it never scans, parks, or takes any lock — there is
//!   no lock to take.
//! * Parking **polls** (peer bound + `yield_now`) instead of blocking on a
//!   futex. The previous mutex+condvar gate paid a futex wait, a futex
//!   wake, and a wake-preemption context-switch bounce per lane-quantum;
//!   on the oversubscribed one-core hosts this simulator targets, that
//!   syscall traffic dominated every multi-lane run. With yield-polling
//!   the running lane pays *nothing* to publish (no notify), and a parked
//!   lane costs one `sched_yield` per scheduler rotation. With cores to
//!   spare, parked lanes poll on their own cores and resume with lower
//!   latency than a futex wake would give them.
//! * A lane's clock and its lease sit on separate padded lines: a parked
//!   peer polls the clock, and a lease on the same line would miss on
//!   every fast-path read behind the poll.

use crate::cost::CostProfile;
use crate::pad::CachePadded;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Default quantum: how far ahead (in virtual cycles) a thread may run
/// before waiting for stragglers. Small enough that operations (hundreds to
/// thousands of cycles) genuinely overlap; large enough to amortize the
/// synchronization cost.
pub const DEFAULT_QUANTUM: u64 = 200;

/// How many park-loop polls between exact-scan backstops.
const PARK_EXACT_SCAN_PERIOD: u32 = 1024;

/// Shared state of one simulated machine run.
pub struct Gate {
    quantum: u64,
    profile: CostProfile,
    /// One padded slot per lane: its leaf clock and its lease.
    slots: Box<[CachePadded<Slot>]>,
    finals: Box<[AtomicU64]>,
    /// Internal nodes of the tournament min-tree in heap order
    /// (`width - 1` of them; empty when `width == 1`). `tree[0]` is the
    /// root: a monotone conservative lower bound on the minimum clock.
    tree: Box<[CachePadded<AtomicU64>]>,
    /// Tree width: `lanes.next_power_of_two()`.
    width: usize,
}

impl Gate {
    pub(crate) fn new(lanes: usize, quantum: u64, profile: CostProfile) -> Self {
        assert!(lanes > 0, "a simulation needs at least one lane");
        let width = lanes.next_power_of_two();
        let quantum = quantum.max(1);
        Gate {
            quantum,
            profile,
            slots: (0..lanes)
                .map(|_| CachePadded::new(Slot::new(quantum)))
                .collect(),
            finals: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            tree: (0..width - 1)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            width,
        }
    }

    #[inline]
    pub(crate) fn quantum(&self) -> u64 {
        self.quantum
    }

    #[inline]
    pub(crate) fn profile(&self) -> CostProfile {
        self.profile
    }

    /// Sum of one per-lane diagnostic counter.
    fn total(&self, counter: impl Fn(&Slot) -> &AtomicU64) -> u64 {
        self.slots
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// How many times any lane parked to wait for stragglers (diagnostics;
    /// the 1-lane test asserts this stays zero — a single lane must never
    /// wait on the gate).
    pub fn park_count(&self) -> u64 {
        self.total(|s| &s.parks)
    }

    /// How many exact-scan backstops fired inside park loops — i.e. how
    /// often a poller's bounds went stale with every lane that could
    /// raise them parked (diagnostics).
    pub fn backstop_count(&self) -> u64 {
        self.total(|s| &s.backstops)
    }

    /// How many crossings renewed a lease instead of passing on the fast
    /// path (diagnostics).
    pub fn renewal_count(&self) -> u64 {
        self.total(|s| &s.renewals)
    }

    /// Leaf `j` of the conceptual heap: a real lane clock, or `MAX` for
    /// phantom leaves padding the tree to a power of two.
    #[inline]
    fn leaf(&self, j: usize) -> u64 {
        match self.slots.get(j) {
            Some(s) => s.clock.load(Ordering::SeqCst),
            None => u64::MAX,
        }
    }

    /// Value of heap node `i` (internal node or leaf).
    #[inline]
    fn node_value(&self, i: usize) -> u64 {
        let internal = self.width - 1;
        if i < internal {
            self.tree[i].load(Ordering::SeqCst)
        } else {
            self.leaf(i - internal)
        }
    }

    /// Current root bound: conservative, monotone `≤` the minimum clock.
    #[inline]
    pub(crate) fn root_bound(&self) -> u64 {
        if self.width == 1 {
            self.leaf(0)
        } else {
            self.tree[0].load(Ordering::SeqCst)
        }
    }

    /// A bound showing every lane but `lane` at or past `floor`, if the
    /// tree holds one: the root, or else the least sibling along `lane`'s
    /// leaf-to-root path. The siblings' subtrees partition the other
    /// lanes and every node bounds its subtree from below, so the least
    /// sibling bounds the other lanes' minimum — at 2 lanes it is the
    /// other lane's leaf. At most 1 + log2(lanes) loads, read top-down so
    /// that the widest subtree, the likeliest to hold a laggard, answers
    /// first.
    fn peers_reach(&self, lane: usize, floor: u64) -> Option<u64> {
        let root = self.root_bound();
        if root >= floor {
            return Some(root);
        }
        // 1-based heap numbering: `leaf >> k` is the leaf's ancestor k
        // levels up, and `a ^ 1` is the sibling of node `a`.
        let leaf = self.width + lane;
        let mut least = u64::MAX;
        for k in (0..self.width.trailing_zeros()).rev() {
            let v = self.node_value(((leaf >> k) ^ 1) - 1);
            if v < floor {
                return None;
            }
            least = least.min(v);
        }
        Some(least)
    }

    /// Refresh the path from `lane`'s leaf to the root: O(log lanes).
    /// Returns the least sibling value it read along the way — a lower
    /// bound on every other lane's clock (see [`Self::peers_reach`]),
    /// `u64::MAX` for a lone lane.
    #[cold]
    fn climb(&self, lane: usize) -> u64 {
        let mut i = self.width - 1 + lane;
        let mut others = u64::MAX;
        while i > 0 {
            let p = (i - 1) / 2;
            let (left, right) = (self.node_value(2 * p + 1), self.node_value(2 * p + 2));
            others = others.min(if i == 2 * p + 1 { right } else { left });
            self.tree[p].fetch_max(left.min(right), Ordering::SeqCst);
            i = p;
        }
        others
    }

    /// Exact O(lanes) minimum over every real lane except `lane` —
    /// `u64::MAX` when all the others have finished.
    #[cfg(test)]
    pub(crate) fn min_other(&self, lane: usize) -> u64 {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != lane)
            .map(|(_, s)| s.clock.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Exact scan for `lane`, whose published clock is `now`: returns the
    /// other lanes' minimum (`u64::MAX` when all have finished) and
    /// publishes the exact minimum — that or `now` — to the root. Only a
    /// lane that may park or charge a wait runs it.
    ///
    /// When the minimum lane is more than a quantum behind `now`, it holds
    /// `lane` back and `lane` is about to park: the scan revokes the
    /// minimum lane's lease, so that it climbs at its next crossing and
    /// raises the nodes `lane` polls. It is spared when it is `lane`'s
    /// leaf sibling, which `lane` polls directly, or when its lease ends
    /// within its next quantum anyway. Revoking every lane behind, not
    /// just the minimum, cost 8–15% of a crossing at 256 lanes (2-vCPU
    /// Xeon, balanced lanes) for the extra lease reads.
    ///
    /// The leading `SeqCst` fence pairs with every other scanner's: of
    /// two lanes that each publish (a `Release` store) and then scan,
    /// at least one sees the other's store, so two lanes cannot both
    /// park on each other's stale clocks.
    ///
    /// The conservativeness debug assertion reads the root *before* the
    /// scan: root-at-read ≤ true-min-at-read ≤ scanned min (the true min
    /// only rises). Reading it after would race with concurrent climbs.
    pub(crate) fn exact_scan(&self, lane: usize, now: u64) -> u64 {
        fence(Ordering::SeqCst);
        let bound_before = self.root_bound();
        let mut others = u64::MAX;
        let mut laggard = lane;
        for (j, s) in self.slots.iter().enumerate() {
            let c = s.clock.load(Ordering::SeqCst);
            if j != lane && c < others {
                others = c;
                laggard = j;
            }
        }
        // Revoke only a lease the laggard's next crossing could pass on.
        let lease = &self.slots[laggard].lease;
        if others < now.saturating_sub(self.quantum)
            && laggard != lane ^ 1
            && lease.load(Ordering::Relaxed) >= others.saturating_add(self.quantum)
        {
            lease.store(0, Ordering::Relaxed);
        }
        let m = others.min(now);
        debug_assert!(
            bound_before <= m,
            "gate root bound {bound_before} overtook the true min {m}"
        );
        if self.width > 1 {
            self.tree[0].fetch_max(m, Ordering::SeqCst);
        }
        others
    }

    /// Publish `now` for `lane`; park while this lane is more than one
    /// quantum ahead of the minimum. The fast path reads only this
    /// lane's own lease.
    pub(crate) fn sync(&self, lane: usize, now: u64) {
        let slot = &self.slots[lane];
        debug_assert!(
            slot.clock.load(Ordering::Relaxed) <= now,
            "lane {lane} clock ran backwards"
        );
        // No `SeqCst` store: a late leaf only lengthens a peer's wait, and
        // the fence in `exact_scan` orders it before any park.
        slot.clock.store(now, Ordering::Release);
        if now <= slot.lease.load(Ordering::Relaxed) {
            // Within the lease: the other lanes were at least
            // `lease - quantum` when it was granted, and clocks only rise.
            return;
        }
        self.renew(lane, now);
    }

    /// Cold path of [`Self::sync`]: climb, lease again against the peer
    /// bound, and park if even the exact minimum is too far behind.
    #[cold]
    fn renew(&self, lane: usize, now: u64) {
        let slot = &self.slots[lane];
        bump(&slot.renewals);
        let lease = &slot.lease;
        let held = lease.load(Ordering::Relaxed);
        // Refresh our own path first: pollers watching it see our clock,
        // and the root may be stale only along paths nobody climbed. Both
        // the root and the siblings the climb read bound the other lanes'
        // minimum from below, and this lane is never behind itself, so
        // `now ≤ bound + quantum` implies the skew bound.
        let mut bound = self.climb(lane).max(self.root_bound());
        if now > bound.saturating_add(self.quantum) {
            // Still over: consult (and publish) the exact minimum. The
            // minimum lane always passes here — no other lane is behind
            // it — so the minimum lane never parks and some lane always
            // runs.
            bound = bound.max(self.exact_scan(lane, now));
            if now > bound.saturating_add(self.quantum) {
                bound = self.park(lane, now, bound);
            }
        }
        // A revocation that landed since `held` was read stands: this
        // lane renews again at its next crossing.
        let _ = lease.compare_exchange(
            held,
            bound.saturating_add(self.quantum),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Wait until every other lane comes within a quantum of `now`;
    /// `others` is the exact scan's minimum of them. Returns the bound
    /// that released this lane.
    #[cold]
    fn park(&self, lane: usize, now: u64, others: u64) -> u64 {
        // The wait spans zero virtual time (waiting charges nothing); the
        // trace events mark where this lane stalled — long waits point at
        // load imbalance.
        crate::trace::emit(crate::trace::EventKind::GateWaitBegin);
        bump(&self.slots[lane].parks);
        crate::metrics::emit(crate::metrics::Series::GateParks, 1);
        // Skew at park time: how far this lane's clock ran ahead of the
        // exact minimum. (Gauge — the time-series shows imbalance pulses.)
        crate::metrics::emit(crate::metrics::Series::GateSkew, now - others);
        let release = now - self.quantum;
        let mut polls: u32 = 0;
        let bound = loop {
            std::thread::yield_now();
            if let Some(bound) = self.peers_reach(lane, release) {
                break bound;
            }
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(PARK_EXACT_SCAN_PERIOD) {
                // Backstop: if every lane that could raise the polled
                // bounds is parked, refresh exactly rather than spin on a
                // bound nobody is raising.
                bump(&self.slots[lane].backstops);
                crate::metrics::emit(crate::metrics::Series::GateBackstops, 1);
                let others = self.exact_scan(lane, now);
                if others >= release {
                    break others;
                }
            }
        };
        crate::trace::emit(crate::trace::EventKind::GateWaitEnd);
        bound
    }

    /// Mark `lane` finished: it no longer constrains the minimum. The
    /// climb propagates the `MAX` leaf so pollers see the release without
    /// waiting for the exact-scan backstop.
    pub(crate) fn finish(&self, lane: usize, final_clock: u64) {
        self.finals[lane].store(final_clock, Ordering::SeqCst);
        self.slots[lane].clock.store(u64::MAX, Ordering::SeqCst);
        if self.width > 1 {
            self.climb(lane);
        }
    }
}

/// A lane's shared state, on two padded lines: the clock, which parked
/// peers poll, and the rest, which only the lane itself reads on its fast
/// path. Sharing one line made every fast-path lease read miss behind a
/// peer's poll.
struct Slot {
    /// Leaf clock: the lane publishes here on every crossing.
    clock: CachePadded<AtomicU64>,
    /// The lane may publish any clock up to its lease without reading
    /// another lane. Always ≤ (a lower bound on the other lanes' minimum)
    /// + quantum; a parked lane revokes it by zeroing it.
    lease: AtomicU64,
    /// Diagnostics, written only by the lane itself ([`bump`]) and
    /// summed by [`Gate::park_count`] and its siblings. Per-lane counters
    /// spare every crossing a shared line that each park would invalidate.
    parks: AtomicU64,
    backstops: AtomicU64,
    renewals: AtomicU64,
}

impl Slot {
    /// Every clock starts at 0, so 0 + quantum is a valid first lease.
    fn new(quantum: u64) -> Self {
        Slot {
            clock: CachePadded::new(AtomicU64::new(0)),
            lease: AtomicU64::new(quantum),
            parks: AtomicU64::new(0),
            backstops: AtomicU64::new(0),
            renewals: AtomicU64::new(0),
        }
    }
}

/// Count one event on a counter only its own lane writes: a plain load
/// and store, no read-modify-write.
#[inline]
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Configuration for one simulated multi-threaded run.
#[derive(Clone, Copy, Debug)]
pub struct Sim {
    /// Number of logical threads (the paper sweeps 1–8; the gate scales
    /// to the ROADMAP's 64–512).
    pub threads: usize,
    /// Gate quantum in virtual cycles; see [`DEFAULT_QUANTUM`].
    pub quantum: u64,
    /// Which calibrated machine to model; see [`CostProfile`].
    pub profile: CostProfile,
}

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Final virtual clock of every lane.
    pub per_thread: Vec<u64>,
    /// The makespan: max final clock, i.e. the virtual duration of the run.
    pub makespan: u64,
    /// Gate park episodes during the run ([`Gate::park_count`]). Wallclock
    /// scheduling detail — deterministic comparisons must ignore it.
    pub gate_parks: u64,
    /// Exact-scan backstops fired during the run ([`Gate::backstop_count`]).
    /// Wallclock scheduling detail, like `gate_parks`.
    pub gate_backstops: u64,
}

impl Sim {
    /// A simulation with `threads` lanes, the default quantum, and the
    /// Haswell cost profile.
    pub fn new(threads: usize) -> Self {
        Sim {
            threads,
            quantum: DEFAULT_QUANTUM,
            profile: CostProfile::Haswell,
        }
    }

    /// Builder: the same simulation under a different cost profile.
    pub fn with_profile(mut self, profile: CostProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Run `body(lane)` on every lane under the gate and return the virtual
    /// timing outcome. `body` typically loops over a per-thread slice of the
    /// workload, calling into data-structure operations whose shared-memory
    /// accesses charge the lane's virtual clock.
    ///
    /// ```
    /// use pto_sim::{CostKind, Sim};
    ///
    /// // Four logical threads, each charging 100 CAS-equivalents: the
    /// // virtual makespan is one thread's worth of work, because the
    /// // lanes overlap in virtual time.
    /// let out = Sim::new(4).run(|_lane| {
    ///     pto_sim::charge_n(CostKind::Cas, 100);
    /// });
    /// assert_eq!(out.per_thread.len(), 4);
    /// assert_eq!(out.makespan, 100 * pto_sim::cost::cycles(CostKind::Cas));
    /// ```
    pub fn run<F>(&self, body: F) -> SimOutcome
    where
        F: Fn(usize) + Sync,
    {
        let gate = Arc::new(Gate::new(self.threads, self.quantum, self.profile));
        self.run_on(gate, body)
    }

    /// `run` against a caller-constructed gate (tests inspect the gate's
    /// diagnostics afterwards).
    pub(crate) fn run_on<F>(&self, gate: Arc<Gate>, body: F) -> SimOutcome
    where
        F: Fn(usize) + Sync,
    {
        // Lane threads inherit the spawning thread's scoped-context slots
        // (scoped stats, injection schedules, RNG stream key) so cell
        // runners can isolate whole simulations per OS thread.
        let inherited = crate::ctx::capture();
        std::thread::scope(|s| {
            for lane in 0..self.threads {
                let gate = Arc::clone(&gate);
                let body = &body;
                let inherited = &inherited;
                s.spawn(move || {
                    crate::ctx::adopt(inherited);
                    crate::clock::attach(gate, lane);
                    // Detach via RAII: a lane that panics while attached
                    // would otherwise never call `Gate::finish`, freezing
                    // its clock as the permanent minimum and parking every
                    // other lane forever. Unwinding through the guard
                    // releases the gate so the scope can join the
                    // remaining lanes and propagate the panic.
                    struct DetachOnExit;
                    impl Drop for DetachOnExit {
                        fn drop(&mut self) {
                            // Park observer tracks before detaching: the
                            // scope join does not wait for this thread's
                            // TLS destructors, so a session drained right
                            // after `run` would miss them.
                            crate::trace::flush_local();
                            crate::metrics::flush_local();
                            crate::clock::detach();
                        }
                    }
                    let _detach = DetachOnExit;
                    body(lane);
                });
            }
        });
        let per_thread: Vec<u64> = gate
            .finals
            .iter()
            .map(|f| f.load(Ordering::Acquire))
            .collect();
        let makespan = per_thread.iter().copied().max().unwrap_or(0);
        SimOutcome {
            per_thread,
            makespan,
            gate_parks: gate.park_count(),
            gate_backstops: gate.backstop_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;
    use crate::cost::CostKind;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_lane_runs_to_completion() {
        let out = Sim::new(1).run(|_| {
            clock::charge_n(CostKind::Cas, 100);
        });
        assert_eq!(out.per_thread.len(), 1);
        assert_eq!(out.makespan, 100 * crate::cost::cycles(CostKind::Cas));
    }

    #[test]
    fn single_lane_never_waits_on_the_gate() {
        // Regression (PR 4): `sync` recomputed the min and took the gate
        // lock + notify_all on every quantum crossing, and `finish` always
        // locked — even with nobody to coordinate with. The gate now has no
        // lock at all, and a 1-lane sim must never even park: its own
        // clock is the root bound.
        let sim = Sim {
            threads: 1,
            quantum: 50,
            profile: CostProfile::Haswell,
        };
        let gate = Arc::new(Gate::new(sim.threads, sim.quantum, sim.profile));
        let out = sim.run_on(Arc::clone(&gate), |_| {
            for _ in 0..10_000 {
                clock::charge(CostKind::Cas);
            }
        });
        assert!(out.makespan > 0);
        assert_eq!(
            gate.park_count(),
            0,
            "a 1-lane simulation waited on the gate"
        );
        // With no siblings its first renewal leases up to `u64::MAX`.
        assert!(
            gate.renewal_count() <= 1,
            "a lone lane renewed its lease twice"
        );
    }

    #[test]
    fn lanes_progress_together() {
        // With the gate, no lane can finish wildly ahead: all lanes charge
        // the same work, so final clocks must be equal.
        let out = Sim::new(4).run(|_| {
            for _ in 0..1000 {
                clock::charge(CostKind::SharedLoad);
            }
        });
        let min = *out.per_thread.iter().min().unwrap();
        let max = *out.per_thread.iter().max().unwrap();
        assert_eq!(min, max);
        assert_eq!(out.makespan, max);
    }

    #[test]
    fn unbalanced_lanes_do_not_deadlock() {
        // A lane that finishes early must not gate the others.
        let out = Sim::new(3).run(|lane| {
            let reps = if lane == 0 { 10 } else { 5000 };
            for _ in 0..reps {
                clock::charge(CostKind::Fence);
            }
        });
        assert!(out.per_thread[0] < out.per_thread[1]);
        assert_eq!(out.per_thread[1], out.per_thread[2]);
    }

    #[test]
    fn virtual_overlap_is_bounded_by_quantum() {
        // Record the max observed skew between two lanes at sync points; it
        // can exceed the quantum only by one charge granule.
        let skew = AtomicUsize::new(0);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let sim = Sim {
            threads: 2,
            quantum: 100,
            profile: CostProfile::Haswell,
        };
        sim.run(|lane| {
            for _ in 0..2000 {
                clock::charge(CostKind::SharedStore);
                let me = clock::now();
                let (mine, other) = if lane == 0 { (&a, &b) } else { (&b, &a) };
                mine.store(me, Ordering::Relaxed);
                let them = other.load(Ordering::Relaxed);
                // Only count cases where I'm ahead (them lags behind me).
                if me > them {
                    let s = (me - them) as usize;
                    skew.fetch_max(s, Ordering::Relaxed);
                }
            }
        });
        // A lane may be at most quantum + one charge ahead of a *running*
        // peer; the peer's published clock may additionally lag by up to a
        // quantum of unpublished charges. Allow 3 quanta of slack.
        assert!(
            skew.load(Ordering::Relaxed) <= 300 + 8,
            "skew {} exceeds bound",
            skew.load(Ordering::Relaxed)
        );
    }

    /// Yield until `cond` holds (test lanes wait on each other's gate
    /// state without charging).
    fn await_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_lane_is_released_by_a_peer_fast_path_publish() {
        // Lane 1 runs 10_000 cycles ahead and parks. Lane 0 climbs at
        // 9_700, short of lane 1's release point (9_800), then publishes
        // 9_900 through the fast path, without climbing. The parked lane
        // watches lane 0's leaf, so that publish releases it; a poller of
        // the root alone would wait for the exact-scan backstop. Backstops
        // before the publish only mean the OS ran lane 1 long before lane
        // 0, so only those after it count.
        let sim = Sim {
            threads: 2,
            quantum: 200,
            profile: CostProfile::Haswell,
        };
        let gate = Arc::new(Gate::new(sim.threads, sim.quantum, sim.profile));
        let released = std::sync::atomic::AtomicBool::new(false);
        let backstops_at_publish = AtomicU64::new(0);
        sim.run_on(Arc::clone(&gate), |lane| {
            if lane == 1 {
                clock::charge_cycles(10_000);
                released.store(true, Ordering::Release);
            } else {
                await_until(|| gate.park_count() == 1);
                clock::charge_cycles(9_700);
                clock::charge_cycles(200);
                backstops_at_publish.store(gate.backstop_count(), Ordering::Relaxed);
                await_until(|| released.load(Ordering::Acquire));
            }
        });
        assert_eq!(gate.park_count(), 1);
        assert_eq!(
            gate.backstop_count(),
            backstops_at_publish.load(Ordering::Relaxed),
            "the park waited for a backstop"
        );
    }

    #[test]
    fn trailing_lane_renews_only_past_peer_plus_quantum() {
        // Lane 1 parks at 10_000. Lane 0's first crossing renews its lease
        // to 10_000 + quantum; every crossing up to there stays on the
        // fast path, and the first one past it renews.
        let sim = Sim {
            threads: 2,
            quantum: 200,
            profile: CostProfile::Haswell,
        };
        let gate = Arc::new(Gate::new(sim.threads, sim.quantum, sim.profile));
        sim.run_on(Arc::clone(&gate), |lane| {
            if lane == 1 {
                clock::charge_cycles(10_000);
                return;
            }
            await_until(|| gate.park_count() == 1);
            while clock::now() < 10_200 {
                clock::charge_cycles(3);
            }
            assert_eq!(gate.renewal_count(), 2, "renewed short of peer + quantum");
            clock::charge_cycles(200);
            assert_eq!(
                gate.renewal_count(),
                3,
                "crossed its lease on the fast path"
            );
        });
    }

    #[test]
    fn revoked_lane_climbs_at_its_next_crossing() {
        // Lanes 0 and 2 are not leaf siblings, so lane 2 parked sees lane
        // 0 only through the node its climbs refresh. Lane 0 holds a lease
        // to 1_200 when lane 2 parks at 11_000 and revokes it: lane 0's
        // next crossing, at 1_100, renews and climbs instead of passing.
        let sim = Sim {
            threads: 4,
            quantum: 200,
            profile: CostProfile::Haswell,
        };
        let gate = Arc::new(Gate::new(sim.threads, sim.quantum, sim.profile));
        let finished = |j: usize| gate.slots[j].clock.load(Ordering::Acquire) == u64::MAX;
        sim.run_on(Arc::clone(&gate), |lane| match lane {
            2 => {
                await_until(|| finished(1) && finished(3));
                clock::charge_cycles(1_000);
                clock::charge_cycles(10_000);
            }
            0 => {
                await_until(|| gate.park_count() == 1);
                clock::charge_cycles(900);
                assert_eq!(gate.slots[0].lease.load(Ordering::Relaxed), 1_200);
                await_until(|| gate.park_count() == 2);
                assert_eq!(
                    gate.slots[0].lease.load(Ordering::Relaxed),
                    0,
                    "not revoked"
                );
                let before = gate.renewal_count();
                clock::charge_cycles(200);
                assert_eq!(
                    gate.renewal_count(),
                    before + 1,
                    "revoked lease not renewed"
                );
                assert_eq!(gate.tree[1].load(Ordering::Acquire), 1_100, "no climb");
                clock::charge_cycles(10_000);
            }
            _ => {}
        });
    }

    #[test]
    fn makespan_is_max_of_lane_clocks() {
        let out = Sim::new(5).run(|lane| {
            clock::charge_cycles((lane as u64 + 1) * 1000);
        });
        assert_eq!(out.makespan, 5000);
    }

    #[test]
    fn many_lanes_on_one_core_terminate() {
        // 8 lanes (the paper's max) with mixed charge patterns.
        let out = Sim::new(8).run(|lane| {
            for i in 0..500 {
                if (i + lane) % 3 == 0 {
                    clock::charge(CostKind::Cas);
                } else {
                    clock::charge(CostKind::SharedLoad);
                }
            }
        });
        assert_eq!(out.per_thread.len(), 8);
        assert!(out.makespan > 0);
    }

    #[test]
    fn imbalanced_lanes_still_converge() {
        // Heavy imbalance with a small quantum: fast lanes must park and
        // poll while the laggard's published clocks release them. If the
        // root-bound fast path ever let a lane skip a required wait, the
        // skew assertions elsewhere would catch it; here we pin the exact
        // final clocks.
        let sim = Sim {
            threads: 4,
            quantum: 10,
            profile: CostProfile::Haswell,
        };
        let out = sim.run(|lane| {
            let reps = if lane == 0 { 20_000 } else { 500 };
            for _ in 0..reps {
                clock::charge_cycles(3);
            }
        });
        assert_eq!(out.per_thread[0], 60_000);
        assert_eq!(out.per_thread[1], 1_500);
    }

    #[test]
    fn sixty_four_lanes_progress_together() {
        // Tree width 64: identical work ⇒ identical final clocks, same as
        // the 4-lane invariant (the tree must not let any lane run free).
        let out = Sim::new(64).run(|_| {
            for _ in 0..300 {
                clock::charge(CostKind::SharedLoad);
            }
        });
        assert_eq!(out.per_thread.len(), 64);
        let min = *out.per_thread.iter().min().unwrap();
        let max = *out.per_thread.iter().max().unwrap();
        assert_eq!(min, max);
    }

    #[test]
    fn sixty_four_lanes_skew_is_bounded() {
        // Every lane records the max lead it observes over the slowest
        // published peer clock at its own sync points.
        const LANES: usize = 64;
        let published: Vec<CachePadded<AtomicU64>> =
            (0..LANES).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
        let skew = AtomicU64::new(0);
        let sim = Sim {
            threads: LANES,
            quantum: 100,
            profile: CostProfile::Haswell,
        };
        sim.run(|lane| {
            for _ in 0..400 {
                clock::charge(CostKind::SharedStore);
                let me = clock::now();
                published[lane].store(me, Ordering::Relaxed);
                let lag = published
                    .iter()
                    .map(|p| p.load(Ordering::Relaxed))
                    .filter(|&p| p > 0)
                    .min()
                    .unwrap_or(me);
                if me > lag {
                    skew.fetch_max(me - lag, Ordering::Relaxed);
                }
            }
        });
        // Same tolerance argument as the 2-lane test: quantum of true
        // skew + quantum of unpublished lag + a charge granule per side.
        assert!(
            skew.load(Ordering::Relaxed) <= 300 + 8,
            "64-lane skew {} exceeds bound",
            skew.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn two_hundred_fifty_six_imbalanced_lanes_converge() {
        // The stale-bound starvation shape: one slow laggard, 255 fast
        // lanes that all park. Every parked lane's release depends on the
        // laggard's climbs (or the exact-scan backstop) refreshing the
        // root — a stale flat cache would strand the fast lanes. Exact
        // final clocks are pinned: the work is lane-private.
        let sim = Sim {
            threads: 256,
            quantum: 50,
            profile: CostProfile::Haswell,
        };
        let out = sim.run(|lane| {
            let reps = if lane == 0 { 4_000 } else { 200 };
            for _ in 0..reps {
                clock::charge_cycles(3);
            }
        });
        assert_eq!(out.per_thread[0], 12_000);
        for lane in 1..256 {
            assert_eq!(out.per_thread[lane], 600, "lane {lane}");
        }
    }

    #[test]
    fn parks_are_counted_at_scale() {
        // The diagnostic must still fire when the tree (not the flat
        // scan) is doing the bounding.
        let sim = Sim {
            threads: 64,
            quantum: 10,
            profile: CostProfile::Haswell,
        };
        let gate = Arc::new(Gate::new(sim.threads, sim.quantum, sim.profile));
        sim.run_on(Arc::clone(&gate), |lane| {
            let reps = if lane == 0 { 2_000 } else { 50 };
            for _ in 0..reps {
                clock::charge_cycles(3);
            }
        });
        assert!(
            gate.park_count() > 0,
            "63 fast lanes against a laggard never parked"
        );
    }

    #[test]
    fn numa_profile_charges_remote_lanes_more() {
        // Same per-lane op sequence; lanes ≥ 8 sit on remote sockets and
        // pay the surcharge, so the makespan is set by a remote lane.
        let haswell = Sim::new(16).run(|_| {
            for _ in 0..100 {
                clock::charge(CostKind::Cas);
            }
        });
        let numa = Sim::new(16)
            .with_profile(CostProfile::NumaIsh)
            .run(|_| {
                for _ in 0..100 {
                    clock::charge(CostKind::Cas);
                }
            });
        let local = 100 * crate::cost::cycles(CostKind::Cas);
        let remote = 100 * crate::cost::numa_remote_cycles(CostKind::Cas);
        assert_eq!(haswell.makespan, local);
        assert_eq!(numa.makespan, remote);
        assert_eq!(numa.per_thread[0], local, "socket 0 stays Haswell");
        assert_eq!(numa.per_thread[8], remote, "socket 1 pays the hop");
    }

    #[test]
    fn numa_on_one_socket_is_bit_identical_to_haswell() {
        let body = |_lane: usize| {
            for i in 0..200u64 {
                if i % 3 == 0 {
                    clock::charge(CostKind::Cas);
                } else {
                    clock::charge(CostKind::TxLoad);
                }
            }
        };
        let h = Sim::new(8).run(body);
        let n = Sim::new(8).with_profile(CostProfile::NumaIsh).run(body);
        assert_eq!(h.per_thread, n.per_thread);
        assert_eq!(h.makespan, n.makespan);
    }
}

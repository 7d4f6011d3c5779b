//! Per-thread virtual cycle clocks.
//!
//! Every modeled event in the workspace calls [`charge`], which advances the
//! current thread's virtual clock. When the thread is attached to a
//! [`sched::Gate`](crate::sched), crossing a quantum boundary synchronizes
//! with the other logical threads so that virtual time stays aligned across
//! the simulated machine.
//!
//! Threads that are *not* attached to a gate (unit tests, examples run
//! without the simulator) still accumulate cycles, which lets tests assert
//! cost properties directly.
//!
//! `charge_cycles` is the single hottest wallclock path in the workspace
//! (every modeled load/store/CAS funnels through it), so the armed fast
//! path is a handful of thread-local `Cell` ops: add to the clock, compare
//! against a precomputed sync threshold. The gate is cached as a raw
//! pointer in a `Cell` (the owning `Arc` is parked in a `RefCell` beside
//! it purely as a keep-alive), and the quantum-crossing slow path is
//! outlined behind `#[cold]`. None of this changes *virtual* time: the
//! threshold test is equivalent to the original `now - last_sync >=
//! quantum` check, and gate synchronization never charges cycles.
//!
//! Cost-profile dispatch rides the same shape: a `Cell<*const u64>` holds
//! the lane's dense [`CostTable`](crate::cost::CostTable) while attached
//! to a non-default (NUMA remote) socket, and null otherwise. The null
//! path is the original const-fn [`cost::cycles`] lookup — detached
//! threads and every Haswell lane charge bit-identically to before the
//! profile existed.

use crate::cost::{self, CostKind};
use crate::sched::Gate;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

struct ThreadCtx {
    clock: Cell<u64>,
    /// Clock value at which the next gate sync fires: `last_sync +
    /// quantum` while attached, `u64::MAX` while detached (so the fast
    /// path is one branch either way).
    next_sync: Cell<u64>,
    lane: Cell<usize>,
    /// Cached `&*gate_keep` — null while detached. Reading a `Cell<*const>`
    /// is what makes the armed fast path borrow-flag-free.
    gate: Cell<*const Gate>,
    /// Keep-alive for the pointer above; only touched on attach/detach.
    gate_keep: RefCell<Option<Arc<Gate>>>,
    /// First element of the lane's cost table — null means "use the
    /// default Haswell const fn". Tables are `'static`, so no keep-alive.
    table: Cell<*const u64>,
    /// Consecutive uncharged [`spin_wait_tick`] polls since the last
    /// charged one; paces the exact-scan backstop inside wait loops.
    wait_polls: Cell<u32>,
}

thread_local! {
    static CTX: ThreadCtx = const {
        ThreadCtx {
            clock: Cell::new(0),
            next_sync: Cell::new(u64::MAX),
            lane: Cell::new(0),
            gate: Cell::new(std::ptr::null()),
            gate_keep: RefCell::new(None),
            table: Cell::new(std::ptr::null()),
            wait_polls: Cell::new(0),
        }
    };
}

/// Cycle cost of `kind` on the current thread: the attached lane's cost
/// table if one is installed, else the default Haswell table.
#[inline]
fn kind_cycles(kind: CostKind) -> u64 {
    CTX.with(|ctx| table_cycles(ctx, kind))
}

#[inline]
fn table_cycles(ctx: &ThreadCtx, kind: CostKind) -> u64 {
    let t = ctx.table.get();
    if t.is_null() {
        cost::cycles(kind)
    } else {
        // SAFETY: `t` points at a `'static` `CostTable` installed by
        // `attach` (length `N_KINDS`); `kind as usize < N_KINDS` by
        // construction (asserted over `ALL_KINDS` in cost tests).
        unsafe { *t.add(kind as usize) }
    }
}

/// Charge one event from the cost table to the current thread's clock.
#[inline]
pub fn charge(kind: CostKind) {
    charge_cycles(kind_cycles(kind));
}

/// Charge `n` repetitions of one event. Saturates (like `charge_cycles`)
/// instead of wrapping when `cycles × n` overflows.
#[inline]
pub fn charge_n(kind: CostKind, n: u64) {
    charge_cycles(kind_cycles(kind).saturating_mul(n));
}

/// Charge a raw cycle amount to the current thread's clock, synchronizing
/// with the gate scheduler if the quantum boundary is crossed.
///
/// Must not be called while holding simulation-machinery locks (pool/limbo
/// mutexes): the gate may block this thread until slower threads catch up,
/// and a blocked lock-holder would deadlock the virtual machine.
#[inline]
pub fn charge_cycles(c: u64) {
    CTX.with(|ctx| {
        let now = ctx.clock.get().saturating_add(c);
        ctx.clock.set(now);
        if now >= ctx.next_sync.get() {
            gate_cross(ctx, now);
        }
    });
}

/// Quantum-crossing slow path: publish the clock and (maybe) block for
/// stragglers. Cold and never inlined so the fast path stays tiny.
#[cold]
#[inline(never)]
fn gate_cross(ctx: &ThreadCtx, now: u64) {
    let g = ctx.gate.get();
    if g.is_null() {
        // Detached: `next_sync` is u64::MAX, reachable only when the
        // clock itself saturated. Nothing to sync with.
        return;
    }
    // SAFETY: `g` points at the `Gate` owned by `gate_keep`, which is only
    // cleared (and the pointer nulled first) in `detach`; the Arc outlives
    // every dereference here.
    let gate = unsafe { &*g };
    ctx.next_sync.set(now.saturating_add(gate.quantum()));
    gate.sync(ctx.lane.get(), now);
}

/// One iteration of a physical spin-wait on a resource another lane holds
/// — a composed-fallback anchor, an orec locked mid-commit, an empty work
/// queue a producer lane has yet to fill.
///
/// The virtual-time rule: **a wait costs the virtual duration of the
/// wait, not one charge per time the OS scheduled the poll loop.** A
/// waiter that charged a `SpinIter` on every physical iteration leaks
/// wallclock scheduling into virtual time: the same seed produces
/// different makespans run to run, and two lanes waiting on each other
/// ratchet both clocks upward by a quantum per gate park, inflating a
/// 100-op contended run into *billions* of virtual cycles.
///
/// Instead, only the lane at the gate's minimum charges — it must keep
/// virtual time flowing, or a holder parked ahead of it would never be
/// released to finish its critical section. A waiter that is not the
/// minimum publishes its clock and yields uncharged, letting the
/// stragglers run.
///
/// Each tick publishes through the gate's lease fast path (a leaf store
/// and a check of the waiter's own lease; see [`crate::sched`]), which
/// reads no other lane. Minimum membership is then read from the cheap
/// root bound, a conservative (stale-low) estimate. Lanes refresh the
/// root only when they renew a lease, so it lags further than a
/// per-crossing climb would keep it, and every 64th uncharged poll runs
/// the gate's exact scan instead: a waiter that trusted a stale bound
/// while actually *being* the minimum would freeze virtual time for the
/// whole machine. The scan returns the other lanes' minimum and
/// publishes the exact minimum to the root. When it finds the waiter at
/// the minimum, it
/// advances **in one step**: a single `charge_n(SpinIter, k)`, with `k`
/// the fewest whole `SpinIter`s that bring its clock to (min clock of the
/// other lanes − quantum). That is exactly the point at which the gate
/// releases the next lane, so the bound the rule keeps is: **a waiter
/// never charges past the point that releases the next lane** (it
/// overshoots by less than one `SpinIter`, like any single charge). The
/// total charged is therefore (clock gap to the holder) + (the holder's
/// remaining critical section), what a real machine's spinner would burn
/// in that window. When that point is not ahead of the waiter, or every
/// other lane has finished, it charges one `SpinIter`.
///
/// A waiter that the root bound already shows at the minimum charges one
/// `SpinIter` and does not step. Stepping there too halves the host time
/// of a contended composed run again, but it lets waiters track holders
/// more closely in host time, which moves the anchored fallback's virtual
/// throughput by 6–9% through the known anchor-release gap (DESIGN.md
/// §10); that shift belongs with the fix for the gap.
///
/// Threads not attached to a gate charge a plain `SpinIter` per call —
/// with no peers or gate, the per-iteration model is the only cost
/// available, and unit tests assert against it.
pub fn spin_wait_tick() {
    let steps = CTX.with(|ctx| {
        let g = ctx.gate.get();
        if g.is_null() {
            return 1;
        }
        // SAFETY: see `gate_cross`.
        let gate = unsafe { &*g };
        let lane = ctx.lane.get();
        let now = ctx.clock.get();
        // Publish first (parking if this waiter is itself too far
        // ahead): an unpublished quantum of charges could leave this
        // lane pinned as everyone else's stale minimum.
        gate.sync(lane, now);
        if now <= gate.root_bound() {
            ctx.wait_polls.set(0);
            return 1;
        }
        let polls = ctx.wait_polls.get().wrapping_add(1);
        ctx.wait_polls.set(polls);
        if !polls.is_multiple_of(64) {
            return 0;
        }
        // `others` is the other lanes' exact minimum; this lane's own
        // published clock is `now`.
        let others = gate.exact_scan(lane, now);
        if now > others {
            return 0;
        }
        ctx.wait_polls.set(0);
        // The exact scan found this lane at the minimum: step to the next
        // lane's release point. Other clocks only rise, so the scanned
        // target never overshoots it.
        let target = others.saturating_sub(gate.quantum());
        if others == u64::MAX || target <= now {
            return 1;
        }
        (target - now).div_ceil(table_cycles(ctx, CostKind::SpinIter))
    });
    if steps == 0 {
        std::thread::yield_now();
    } else {
        charge_n(CostKind::SpinIter, steps);
    }
}

/// The current thread's virtual clock, in cycles.
#[inline]
pub fn now() -> u64 {
    CTX.with(|ctx| ctx.clock.get())
}

/// True when the calling thread is a simulator lane charged a non-default
/// (remote-socket) cost table — i.e. it models a thread off socket 0 under
/// [`CostProfile::NumaIsh`](crate::cost::CostProfile). Socket-0 lanes and
/// unattached threads return `false`. Consumers use this to tag events
/// (commits, aborts) by locality without threading the profile through.
#[inline]
pub fn on_remote_socket() -> bool {
    CTX.with(|ctx| !ctx.table.get().is_null())
}

/// The gate lane the current thread is attached to, or `None` outside a
/// simulation (used by the tracer to label tracks).
pub fn current_lane() -> Option<usize> {
    CTX.with(|ctx| {
        if ctx.gate.get().is_null() {
            None
        } else {
            Some(ctx.lane.get())
        }
    })
}

/// Reset the current thread's clock to zero (unit-test helper; also called
/// by the scheduler when a lane is attached).
pub fn reset() {
    CTX.with(|ctx| {
        ctx.clock.set(0);
        let g = ctx.gate.get();
        ctx.next_sync.set(if g.is_null() {
            u64::MAX
        } else {
            // SAFETY: see `gate_cross`.
            unsafe { (*g).quantum() }
        });
    });
}

/// Attach the current thread to a gate as logical lane `lane`.
/// Called by [`crate::Sim::run`]; resets the clock.
pub(crate) fn attach(gate: Arc<Gate>, lane: usize) {
    CTX.with(|ctx| {
        ctx.clock.set(0);
        ctx.next_sync.set(gate.quantum());
        ctx.lane.set(lane);
        ctx.table.set(match gate.profile().table_for(lane) {
            Some(t) => t.as_ptr(),
            None => std::ptr::null(),
        });
        ctx.gate.set(Arc::as_ptr(&gate));
        *ctx.gate_keep.borrow_mut() = Some(gate);
    });
}

/// Detach the current thread from its gate, marking the lane finished and
/// returning the final clock value.
pub(crate) fn detach() -> u64 {
    CTX.with(|ctx| {
        let final_clock = ctx.clock.get();
        ctx.gate.set(std::ptr::null());
        ctx.table.set(std::ptr::null());
        ctx.next_sync.set(u64::MAX);
        if let Some(g) = ctx.gate_keep.borrow_mut().take() {
            g.finish(ctx.lane.get(), final_clock);
        }
        final_clock
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Sim, DEFAULT_QUANTUM};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn charges_accumulate() {
        reset();
        let t0 = now();
        charge(CostKind::Cas);
        charge(CostKind::Fence);
        assert_eq!(
            now() - t0,
            cost::cycles(CostKind::Cas) + cost::cycles(CostKind::Fence)
        );
    }

    #[test]
    fn charge_n_multiplies() {
        reset();
        charge_n(CostKind::SharedLoad, 7);
        assert_eq!(now(), 7 * cost::cycles(CostKind::SharedLoad));
    }

    #[test]
    fn reset_zeroes_the_clock() {
        charge(CostKind::PoolAlloc);
        reset();
        assert_eq!(now(), 0);
    }

    #[test]
    fn clocks_are_thread_local() {
        reset();
        charge(CostKind::Fence);
        let mine = now();
        let theirs = std::thread::spawn(|| {
            charge(CostKind::Cas);
            now()
        })
        .join()
        .unwrap();
        assert_eq!(mine, cost::cycles(CostKind::Fence));
        assert_eq!(theirs, cost::cycles(CostKind::Cas));
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        reset();
        charge_cycles(u64::MAX - 5);
        charge_cycles(100);
        assert_eq!(now(), u64::MAX);
        reset();
    }

    #[test]
    fn charge_n_saturates_instead_of_wrapping() {
        // Regression: `cycles(kind) * n` used a plain multiply, so a large
        // `n` wrapped the product and could *rewind* nothing but still
        // charge a tiny amount; the contract is saturation, matching
        // `charge_cycles`.
        reset();
        charge_n(CostKind::SharedLoad, u64::MAX);
        assert_eq!(now(), u64::MAX);
        reset();
        // A follow-up charge after saturation stays saturated.
        charge_n(CostKind::Cas, u64::MAX / 2);
        charge_n(CostKind::Cas, u64::MAX / 2);
        charge_n(CostKind::Cas, u64::MAX / 2);
        assert_eq!(now(), u64::MAX);
        reset();
    }

    /// Yield, without ticking, until every other lane of the calling
    /// (attached) lane's gate has published a clock of at least `clock`.
    fn await_peers_at(clock: u64) {
        CTX.with(|ctx| {
            let keep = ctx.gate_keep.borrow();
            let gate = keep.as_ref().expect("called from an attached lane");
            while gate.min_other(ctx.lane.get()) < clock {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn minimum_waiter_reaches_a_parked_holder_in_one_step() {
        // Lane 1 charges far ahead in one go and parks at the gate until
        // lane 0 catches up; lane 0 spin-waits on lane 1's flag. One
        // SpinIter per exact scan needed ~530k ticks here; the one-step
        // rule releases the holder at the first exact scan.
        //
        // Only the ticks that bring lane 0 to the release point are
        // counted: they depend on virtual time alone. Lane 0 starts once
        // lane 1 has parked, and the uncharged ticks it makes after the
        // release last as long as the OS takes to run lane 1 again.
        const RELEASE: u64 = 100_000 - DEFAULT_QUANTUM;
        let done = AtomicBool::new(false);
        let ticks = AtomicU64::new(0);
        let out = Sim::new(2).run(|lane| {
            if lane == 1 {
                charge_cycles(100_000);
                done.store(true, Ordering::Release);
            } else {
                await_peers_at(100_000);
                while !done.load(Ordering::Acquire) {
                    if now() < RELEASE {
                        ticks.fetch_add(1, Ordering::Relaxed);
                    }
                    spin_wait_tick();
                }
            }
        });
        let ticks = ticks.load(Ordering::Relaxed);
        assert!(ticks <= 4_096, "the waiter took {ticks} ticks to release the holder");
        assert_eq!(out.per_thread[1], 100_000);
        assert!(
            out.per_thread[0] >= RELEASE,
            "the wait cost {} cycles, less than its virtual duration",
            out.per_thread[0]
        );
    }

    #[test]
    fn detached_thread_charges_one_spin_iter_per_tick() {
        std::thread::spawn(|| {
            reset();
            for i in 1..=100 {
                spin_wait_tick();
                assert_eq!(now(), i * cost::cycles(CostKind::SpinIter));
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn waiter_without_live_peers_charges_one_spin_iter_per_tick() {
        // Lanes 1 and 2 finish at once; lane 0 then waits alone. With no
        // lane left to release there is no target to step to: a charged
        // tick is one SpinIter, never a jump toward the finished lanes'
        // `MAX`. (Ticks that find the root bound stale stay uncharged
        // until the exact scan, as for any waiter.)
        let spin = cost::cycles(CostKind::SpinIter);
        let out = Sim::new(3).run(|lane| {
            if lane != 0 {
                return;
            }
            await_peers_at(u64::MAX);
            let mut charged = 0;
            while charged < 100 {
                let before = now();
                spin_wait_tick();
                match now() - before {
                    0 => {}
                    d if d == spin => charged += 1,
                    d => panic!("a tick charged {d} cycles with no live peer"),
                }
            }
        });
        assert_eq!(out.per_thread[0], 100 * spin);
    }
}

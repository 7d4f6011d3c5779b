//! The per-thread recorder behind [`trace`](crate::trace),
//! [`metrics`](crate::metrics) and [`history`](crate::history), and the
//! counter scope behind every per-cell counter block.
//!
//! **Counter scopes.** A [`Block`] is one kind's set of atomic counters
//! (HTM events, reclamation events, latency histograms, metric
//! aggregates). A [`Scope`] installs a fresh block in the kind's [`ctx`]
//! slot; [`count`] records into the block in the thread's context, which
//! `Sim` lanes and [`par`](crate::par) jobs inherit from their spawner, so
//! concurrent sweep cells count independently. A kind may own a
//! process-global block: records made outside any scope land there, and a
//! scope adds its totals to it on drop. [`counters!`](crate::counters)
//! declares a kind of plain `u64` counters once.
//!
//! The three recorder front ends record different items (span events,
//! counter samples, completed operations) through one machine:
//!
//! * **A sink per armed session.** `TraceSession`, `MetricsSession` and
//!   `HistorySession` each own a [`Sink`] and install it in their kind's
//!   [`ctx`] slot on the arming thread. `Sim` lanes and [`par`](crate::par)
//!   jobs inherit the slot, so a session sees exactly the threads that run
//!   on its behalf: sessions armed on different contexts never see each
//!   other's items. Arming a second session of a kind on one context
//!   panics.
//! * **One per-thread buffer per kind**, all in one thread-local. A buffer
//!   holds an `Arc` to the sink it records for; every armed record checks
//!   that sink against the thread's current slot (a `par` worker switches
//!   cells between jobs), and a buffer left over from another session parks
//!   into that session's sink before a fresh one starts.
//! * **Parking.** A buffer moves into its sink as a [`Track`] when its `Sim`
//!   lane detaches, after each `par` job, when the draining thread drains,
//!   and (as a backstop) from the thread-local's destructor. Because the
//!   buffer keeps its sink alive, a late park is race-free: it lands in
//!   the right sink or in one nobody reads any more.
//! * **One drain:** the parked tracks in ordinal order, plus the number of
//!   tracks whose ordinal was issued but which never parked (a drain that
//!   raced a live thread).
//!
//! **Disarmed cost.** Each kind keeps a process-wide live count of its
//! sessions; front ends test it with one relaxed load before calling
//! [`record`]. Recording reads the virtual clock and never charges it.

use crate::ctx;
use crate::history::OpRecord;
use crate::metrics::Sample;
use crate::sync::Mutex;
use crate::trace::TraceEvent;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One thread's items for one session, in recording order.
#[derive(Debug)]
pub struct Track<T> {
    /// The gate lane the thread was attached to at the first item, if any.
    pub lane: Option<usize>,
    /// Creation order across all tracks of the session (stable export id).
    pub ordinal: u64,
    pub items: VecDeque<T>,
    /// Items lost to the session capacity: the evicted oldest ones for
    /// kinds that drop old items, the refused new ones otherwise.
    pub dropped: u64,
}

/// The recording constants of one item kind.
pub(crate) trait Kind: Sized + Send + 'static {
    /// State kept per track and reset when the buffer rotates.
    type Era: Default;
    /// The session type's name, for the double-arm panic.
    const SESSION: &'static str;
    /// The context slot holding the armed session's sink.
    const SLOT: usize;
    /// A full track evicts its oldest item (else it refuses the new one).
    const DROP_OLDEST: bool;
    /// Start a new track when the clock regresses or the thread switches
    /// lanes, so each track stays timestamp-monotone and tied to one lane.
    const ROTATE: bool;
    /// Live sessions of this kind anywhere in the process.
    fn live() -> &'static AtomicUsize;
    /// The item's virtual timestamp (compared on rotation).
    fn ts(&self) -> u64;
    /// This kind's buffer in the thread-local.
    fn buffer(local: &Local) -> &RefCell<Option<Buffer<Self>>>;
}

/// Is any session of kind `T` live in the process? One relaxed load.
#[inline]
pub(crate) fn live<T: Kind>() -> bool {
    T::live().load(Ordering::Relaxed) != 0
}

/// The shared end of one armed session.
pub(crate) struct Sink<T> {
    capacity: usize,
    next_ordinal: AtomicU64,
    parked: Mutex<Vec<Track<T>>>,
}

impl<T> Sink<T> {
    fn track(&self) -> Track<T> {
        Track {
            lane: crate::clock::current_lane(),
            ordinal: self.next_ordinal.fetch_add(1, Ordering::Relaxed),
            items: VecDeque::with_capacity(self.capacity.min(1024)),
            dropped: 0,
        }
    }
}

/// A thread's in-progress track for one sink.
pub(crate) struct Buffer<T: Kind> {
    sink: Arc<Sink<T>>,
    track: Track<T>,
    era: T::Era,
}

impl<T: Kind> Buffer<T> {
    fn push(&mut self, ts: u64, make: impl FnOnce(u64, &mut T::Era) -> T) {
        if T::ROTATE && !self.track.items.is_empty() {
            let regressed = self.track.items.back().is_some_and(|last| ts < last.ts());
            if regressed || crate::clock::current_lane() != self.track.lane {
                let fresh = self.sink.track();
                self.sink
                    .parked
                    .lock()
                    .push(std::mem::replace(&mut self.track, fresh));
                self.era = T::Era::default();
            }
        }
        let item = make(ts, &mut self.era);
        let track = &mut self.track;
        if track.items.len() < self.sink.capacity {
            track.items.push_back(item);
        } else {
            track.dropped += 1;
            if T::DROP_OLDEST {
                track.items.pop_front();
                track.items.push_back(item);
            }
        }
    }

    fn park(self) {
        self.sink.parked.lock().push(self.track);
    }
}

/// The thread's buffers, one per kind.
pub(crate) struct Local {
    pub(crate) trace: RefCell<Option<Buffer<TraceEvent>>>,
    pub(crate) metrics: RefCell<Option<Buffer<Sample>>>,
    pub(crate) history: RefCell<Option<Buffer<OpRecord>>>,
}

impl Local {
    fn park_all(&self) {
        park(&self.trace);
        park(&self.metrics);
        park(&self.history);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.park_all();
    }
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            trace: RefCell::new(None),
            metrics: RefCell::new(None),
            history: RefCell::new(None),
        }
    };
}

fn park<T: Kind>(buffer: &RefCell<Option<Buffer<T>>>) {
    if let Some(b) = buffer.borrow_mut().take() {
        b.park();
    }
}

/// Park every buffer of the calling thread into its session's sink.
///
/// `Sim` lanes call this as they detach and [`par`](crate::par) workers
/// after each job: `std::thread::scope` joins once a closure returns,
/// before the thread's TLS destructors run, so a drain right after the
/// join would otherwise miss those buffers. Call it at the end of any
/// other scoped thread that records. Recording again afterwards starts a
/// new track.
pub fn flush_local() {
    let _ = LOCAL.try_with(Local::park_all);
}

/// Record one item of kind `T` on the current thread, if a `T` session is
/// armed in its context. `make` gets the virtual clock and the track's era
/// state. Front ends call this behind their [`live`] check.
pub(crate) fn record<T: Kind>(make: impl FnOnce(u64, &mut T::Era) -> T) {
    let Some(current) = ctx::with::<Sink<T>, _>(T::SLOT, |s| s.map(|s| s as *const Sink<T>)) else {
        return;
    };
    let ts = crate::clock::now();
    // try_with: items arriving while TLS is being torn down are dropped.
    let _ = LOCAL.try_with(|local| {
        let mut slot = T::buffer(local).borrow_mut();
        if slot
            .as_ref()
            .is_none_or(|b| Arc::as_ptr(&b.sink) != current)
        {
            let Some(sink) = ctx::get::<Sink<T>>(T::SLOT) else {
                return;
            };
            let fresh = Buffer {
                track: sink.track(),
                sink,
                era: T::Era::default(),
            };
            // A buffer for another session parks rather than vanishes.
            if let Some(old) = slot.replace(fresh) {
                old.park();
            }
        }
        slot.as_mut()
            .expect("a buffer for the current sink was installed above")
            .push(ts, make);
    });
}

/// An armed session of kind `T`: owns the sink and its context slot.
pub(crate) struct Session<T: Kind> {
    sink: Arc<Sink<T>>,
    _guard: ctx::ScopeGuard,
}

impl<T: Kind> Session<T> {
    /// Arm on the current thread's context with `capacity` items per track.
    ///
    /// Panics if a `T` session is already armed in this context.
    pub(crate) fn arm(capacity: usize) -> Session<T> {
        assert!(capacity > 0, "{} capacity must be positive", T::SESSION);
        assert!(!ctx::is_set(T::SLOT), "a {} is already armed", T::SESSION);
        let sink = Arc::new(Sink {
            capacity,
            next_ordinal: AtomicU64::new(0),
            parked: Mutex::new(Vec::new()),
        });
        let guard = ctx::ScopeGuard::install(T::SLOT, Arc::clone(&sink) as _);
        T::live().fetch_add(1, Ordering::SeqCst);
        Session {
            sink,
            _guard: guard,
        }
    }

    /// Disarm and collect: the non-empty parked tracks by ordinal, and the
    /// number of tracks that never parked.
    ///
    /// The draining thread's own buffer is parked first. Tracks of threads
    /// still running are not collected: drain after `Sim::run` or the
    /// `par` batch returns.
    pub(crate) fn drain(self) -> (Vec<Track<T>>, u64) {
        let _ = LOCAL.try_with(|local| park(T::buffer(local)));
        let mut tracks = std::mem::take(&mut *self.sink.parked.lock());
        let lost = self.sink.next_ordinal.load(Ordering::SeqCst) - tracks.len() as u64;
        tracks.retain(|t| !t.items.is_empty() || t.dropped > 0);
        tracks.sort_by_key(|t| t.ordinal);
        (tracks, lost)
    }
}

impl<T: Kind> Drop for Session<T> {
    fn drop(&mut self) {
        T::live().fetch_sub(1, Ordering::SeqCst);
    }
}

/// One kind of counter block: what a [`Scope`] installs and [`count`]
/// records into.
pub trait Block: Default + Send + Sync + 'static {
    /// A point-in-time copy of the block.
    type Snapshot;
    /// The context slot a scope of this kind occupies.
    const SLOT: usize;
    fn snapshot(&self) -> Self::Snapshot;
    /// Add `totals` to this block. Only a kind's [`global`](Block::global)
    /// is ever absorbed into, so a kind without one keeps this default.
    fn absorb(&self, _totals: &Self::Snapshot) {}
    /// The process-global block: [`count`] outside any scope records here
    /// and a dropped scope flushes here. `None`: such records are dropped.
    fn global() -> Option<&'static Self> {
        None
    }
    /// A live count that every scope of this kind holds +1 on, for a kind
    /// whose recorders skip work while nothing is live.
    fn live() -> Option<&'static AtomicUsize> {
        None
    }
}

/// Record into the `B` block in the thread's context, else into `B`'s
/// global, if it has one. One thread-local access.
#[inline]
pub fn count<B: Block>(f: impl FnOnce(&B)) {
    ctx::with::<B, _>(B::SLOT, |b| {
        if let Some(b) = b.or(B::global()) {
            f(b);
        }
    });
}

/// RAII scope isolating one kind's counters for one sweep cell.
///
/// While alive, [`count`] on the installing thread and on every `Sim` lane
/// or [`par`](crate::par) job that inherits its context records into this
/// scope's block. A nested scope shadows this one until it drops. On drop
/// the totals flush into the kind's global, if it has one, so whole-run
/// summaries see every event exactly once.
pub struct Scope<B: Block> {
    block: Arc<B>,
    _guard: ctx::ScopeGuard,
}

impl<B: Block> Scope<B> {
    /// Install a fresh block on the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let block = Arc::new(B::default());
        let guard = ctx::ScopeGuard::install(B::SLOT, Arc::clone(&block) as _);
        if let Some(live) = B::live() {
            live.fetch_add(1, Ordering::SeqCst);
        }
        Scope {
            block,
            _guard: guard,
        }
    }

    /// This scope's totals so far.
    pub fn snapshot(&self) -> B::Snapshot {
        self.block.snapshot()
    }
}

impl<B: Block> Drop for Scope<B> {
    fn drop(&mut self) {
        if let Some(live) = B::live() {
            live.fetch_sub(1, Ordering::SeqCst);
        }
        if let Some(global) = B::global() {
            global.absorb(&self.block.snapshot());
        }
    }
}

/// Declare a [`Block`] kind of plain event counters, naming each field
/// once:
///
/// ```ignore
/// pto_sim::counters! {
///     /// Doc of the snapshot struct.
///     pub struct FooSnapshot, block FooBlock, slot ctx::SLOT_FOO, global GLOBAL {
///         /// Doc of one counter.
///         hits,
///         misses,
///     }
/// }
/// ```
///
/// This generates the snapshot struct (one `pub u64` per field) with
/// field-wise saturating `delta` and summing `merge`, the atomic block
/// (one cache-padded counter per field, private to the calling module)
/// and its [`Block`] impl. With `global NAME`, a process-global block
/// `static NAME` is declared and returned by [`Block::global`].
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $snap:ident, block $block:ident, slot $slot:path $(, global $global:ident)? {
            $( $(#[$fmeta:meta])* $field:ident, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $snap {
            /// The events recorded since `before` was taken: field-wise
            /// saturating subtraction, so a reset in between never
            /// underflows.
            pub fn delta(&self, before: &$snap) -> $snap {
                $snap { $( $field: self.$field.saturating_sub(before.$field), )* }
            }

            /// Field-wise sum (for aggregating several scopes).
            pub fn merge(&self, other: &$snap) -> $snap {
                $snap { $( $field: self.$field + other.$field, )* }
            }
        }

        #[doc = concat!("The live counters behind [`", stringify!($snap), "`].")]
        pub struct $block {
            $( $field: $crate::stats::Counter, )*
        }

        impl $block {
            const fn new() -> Self {
                $block { $( $field: $crate::stats::Counter::new(), )* }
            }
        }

        impl Default for $block {
            fn default() -> Self {
                Self::new()
            }
        }

        $( static $global: $block = $block::new(); )?

        impl $crate::probe::Block for $block {
            type Snapshot = $snap;
            const SLOT: usize = $slot;
            fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.get(), )* }
            }
            fn absorb(&self, totals: &$snap) {
                $( self.$field.add(totals.$field); )*
            }
            $(
                fn global() -> Option<&'static Self> {
                    Some(&$global)
                }
            )?
        }
    };
}

#[cfg(test)]
mod counter_scope_tests {
    use super::{count, Block, Scope};
    use crate::ctx;

    // A kind only these tests use, in a slot no `pto-sim` code uses. Each
    // test counts into its own field, so the global's value for that field
    // is exactly what that test flushed, however the tests interleave.
    crate::counters! {
        pub struct Counts, block Counted, slot ctx::SLOT_LAT, global GLOBAL {
            outside,
            flushed,
            nested,
            concurrent,
            lanes,
            jobs,
        }
    }

    fn bump(f: impl FnOnce(&Counted)) {
        count::<Counted>(f);
    }

    #[test]
    fn records_land_in_the_scope_and_flush_into_the_global_on_drop() {
        bump(|c| c.outside.inc());
        assert_eq!(GLOBAL.snapshot().outside, 1, "no scope: the global counts");
        {
            let scope = Scope::<Counted>::new();
            bump(|c| c.flushed.add(3));
            assert_eq!(scope.snapshot().flushed, 3);
            assert_eq!(GLOBAL.snapshot().flushed, 0, "a live scope keeps its records");
        }
        assert_eq!(GLOBAL.snapshot().flushed, 3);
        assert!(!ctx::is_set(ctx::SLOT_LAT), "drop must restore the empty slot");
    }

    #[test]
    fn a_nested_scope_shadows_the_outer_one_until_it_drops() {
        let outer = Scope::<Counted>::new();
        bump(|c| c.nested.inc());
        {
            let inner = Scope::<Counted>::new();
            bump(|c| c.nested.add(10));
            assert_eq!(inner.snapshot().nested, 10);
        }
        bump(|c| c.nested.add(100));
        assert_eq!(outer.snapshot().nested, 101, "the inner scope's records stay out");
        assert_eq!(GLOBAL.snapshot().nested, 10, "the inner scope flushed on drop");
        drop(outer);
        assert_eq!(GLOBAL.snapshot().nested, 111);
    }

    #[test]
    fn concurrent_scopes_do_not_bleed() {
        // Every scope is live while any thread counts.
        let (installed, counted) = (std::sync::Barrier::new(4), std::sync::Barrier::new(4));
        std::thread::scope(|s| {
            for n in 1..=4u64 {
                let (installed, counted) = (&installed, &counted);
                s.spawn(move || {
                    let scope = Scope::<Counted>::new();
                    installed.wait();
                    bump(|c| c.concurrent.add(n));
                    counted.wait();
                    assert_eq!(scope.snapshot().concurrent, n, "foreign records leaked in");
                });
            }
        });
        assert_eq!(GLOBAL.snapshot().concurrent, 1 + 2 + 3 + 4);
    }

    #[test]
    fn sim_lanes_and_par_jobs_record_into_the_spawners_scope() {
        let scope = Scope::<Counted>::new();
        crate::Sim::new(4).run(|_| bump(|c| c.lanes.inc()));
        crate::par::map_cells((0..6).collect(), |_: u64| bump(|c| c.jobs.inc()));
        let s = scope.snapshot();
        assert_eq!((s.lanes, s.jobs), (4, 6));
        let g = GLOBAL.snapshot();
        assert_eq!((g.lanes, g.jobs), (0, 0));
        drop(scope);
        let g = GLOBAL.snapshot();
        assert_eq!((g.lanes, g.jobs), (4, 6));
    }

    #[test]
    fn snapshot_delta_saturates_and_merge_sums() {
        let a = Counts {
            outside: 5,
            flushed: 2,
            ..Default::default()
        };
        let b = Counts {
            outside: 9,
            flushed: 2,
            nested: 7,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!((d.outside, d.flushed, d.nested), (4, 0, 7));
        // A reset between snapshots never underflows.
        assert_eq!(a.delta(&b), Counts::default());
        let m = a.merge(&b);
        assert_eq!((m.outside, m.flushed, m.nested), (14, 4, 7));
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::{self, MetricsSession, Series};
    use crate::trace::{self, EventKind, TraceSession};

    #[test]
    fn concurrent_sessions_on_two_contexts_see_only_their_own_items() {
        // Both threads hold a trace and a metrics session at the same time
        // and run a 2-lane sim; each drain must see its own sentinels only.
        // Channels, not a barrier: a thread that panics drops its sender,
        // so its peer fails instead of waiting forever.
        let (tx1, rx1) = std::sync::mpsc::channel::<()>();
        let (tx2, rx2) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            for (me, to_peer, from_peer) in [(1u64, tx1, rx2), (2, tx2, rx1)] {
                s.spawn(move || {
                    let t = TraceSession::arm();
                    let m = MetricsSession::arm();
                    to_peer.send(()).unwrap();
                    from_peer.recv().expect("peer failed to arm");
                    crate::Sim::new(2).run(|_| {
                        trace::emit(EventKind::EpochAdvance { epoch: me });
                        metrics::emit(Series::LimboDepth, me);
                    });
                    to_peer.send(()).unwrap();
                    from_peer.recv().expect("peer failed to run");
                    let (t, m) = (t.drain(), m.drain());
                    let epochs: Vec<u64> = t
                        .tracks
                        .iter()
                        .flat_map(|t| &t.items)
                        .filter_map(|e| match e.kind {
                            EventKind::EpochAdvance { epoch } => Some(epoch),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(epochs, vec![me, me], "thread {me}");
                    let depths: Vec<u64> = m
                        .tracks
                        .iter()
                        .flat_map(|t| &t.items)
                        .filter(|s| s.series == Series::LimboDepth)
                        .map(|s| s.value)
                        .collect();
                    assert_eq!(depths, vec![me, me], "thread {me}");
                });
            }
        });
    }
}

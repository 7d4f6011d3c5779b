//! The per-thread recorder behind [`trace`](crate::trace),
//! [`metrics`](crate::metrics) and [`history`](crate::history).
//!
//! The three front ends record different items (span events, counter
//! samples, completed operations) through one machine:
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

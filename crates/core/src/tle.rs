//! Transactional lock elision over a single global lock — the baseline the
//! paper compares against in Figure 2(a).
//!
//! TLE attempts the critical section as a transaction that *subscribes* to
//! the lock word (reads it and aborts if held); after `attempts` failures
//! it acquires the lock for real. The same sequential code runs in both
//! modes through the [`Ctx`] accessor. Because the fallback is a mutual
//! exclusion lock, TLE scales poorly once aborts force serialization —
//! which is exactly the trend Figure 2(a) shows and PTO avoids by falling
//! back to *lock-free* code instead.
//!
//! TLE is one more run of the PTO demotion chain ([`Exec::run`]): a
//! static mode with `stop_on_permanent = false` (elision spends every
//! attempt, whatever the abort cause), whose prefix subscribes to the lock
//! and whose fallback is the lock acquire/run/release section.

use crate::policy::{Backoff, Exec, PtoPolicy, PtoStats};
use pto_htm::{Abort, AbortCause, TxOpts, TxResult, TxWord, Txn};
use std::cell::RefCell;
use std::sync::atomic::Ordering;

/// Dual-mode memory accessor: the sequential critical section is written
/// once against `Ctx` and runs either inside a transaction or directly
/// under the lock.
pub enum Ctx<'a, 'e> {
    /// Speculative mode: accesses go through the transaction.
    Tx(&'a mut Txn<'e>),
    /// Lock-holder mode: plain accesses (mutual exclusion holds).
    Direct,
}

impl<'a, 'e> Ctx<'a, 'e> {
    /// Read a shared word.
    pub fn read(&mut self, w: &'e TxWord) -> TxResult<u64> {
        match self {
            Ctx::Tx(tx) => tx.read(w),
            Ctx::Direct => Ok(w.load(Ordering::Acquire)),
        }
    }

    /// Write a shared word.
    pub fn write(&mut self, w: &'e TxWord, v: u64) -> TxResult<()> {
        match self {
            Ctx::Tx(tx) => tx.write(w, v),
            Ctx::Direct => {
                w.store(v, Ordering::Release);
                Ok(())
            }
        }
    }
}

/// A single elidable test-and-test-and-set lock.
pub struct Tle {
    lock: TxWord,
    exec: Exec,
    /// Outcome counters: `fast` counts elided sections, `fallback` locked
    /// ones, and `causes` the speculation failures (lock-held shows up as
    /// `conflict` via the subscription abort).
    pub stats: PtoStats,
}

impl Tle {
    /// A TLE lock that speculates `attempts` times before locking.
    pub fn new(attempts: u32) -> Self {
        Tle::with_opts(attempts, TxOpts::default())
    }

    /// A TLE lock with explicit transaction options (capacity/chaos
    /// ablations for the elision figures).
    pub fn with_opts(attempts: u32, opts: TxOpts) -> Self {
        Tle {
            lock: TxWord::new(0),
            exec: Exec::Static(PtoPolicy {
                attempts,
                stop_on_permanent: false,
                backoff: Backoff::Off,
                opts,
            }),
            stats: PtoStats::new(),
        }
    }

    /// Run `body` atomically: speculatively when possible, under the lock
    /// otherwise. `body` must be idempotent up to its `Ctx` accesses (it
    /// may run several times speculatively before one run takes effect).
    #[track_caller]
    pub fn execute<'e, T>(&'e self, body: impl FnMut(&mut Ctx<'_, 'e>) -> TxResult<T>) -> T {
        // Both paths run the one body; they never overlap.
        let body = RefCell::new(body);
        self.exec.run(
            &self.stats,
            |tx| {
                // Lock subscription: any lock acquisition during our window
                // bumps the word's version and aborts us (strong atomicity).
                if tx.read(&self.lock)? != 0 {
                    return Err(Abort {
                        cause: AbortCause::Conflict,
                    });
                }
                (body.borrow_mut())(&mut Ctx::Tx(tx))
            },
            // Serialized fallback: acquire the global lock. For TLE the
            // "fallback" span covers the whole lock-acquire/run/release
            // section — lock waits show up as span length in a trace.
            || {
                loop {
                    if self.lock.load(Ordering::Acquire) == 0 && self.lock.cas(0, 1) {
                        break;
                    }
                    std::hint::spin_loop();
                }
                let v = (body.borrow_mut())(&mut Ctx::Direct)
                    .unwrap_or_else(|_| unreachable!("direct-mode Ctx accesses are infallible"));
                self.lock.store(0, Ordering::Release);
                v
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_sections_elide() {
        let tle = Tle::new(3);
        let w = TxWord::new(0);
        for i in 1..=10 {
            tle.execute(|ctx| {
                let v = ctx.read(&w)?;
                ctx.write(&w, v + 1)?;
                Ok(())
            });
            assert_eq!(w.peek(), i);
        }
        assert_eq!(tle.stats.fast.get(), 10);
        assert_eq!(tle.stats.fallback.get(), 0);
    }

    #[test]
    fn aborts_are_bucketed_by_cause() {
        // Chaos at 100% kills every speculation as Spurious, so all
        // `attempts` aborts land in that bucket and the lock path runs.
        let opts = TxOpts {
            chaos_abort_pct: 100,
            ..TxOpts::default()
        };
        let tle = Tle::with_opts(3, opts);
        let w = TxWord::new(0);
        let v = tle.execute(|ctx| ctx.read(&w));
        assert_eq!(v, 0);
        assert_eq!(tle.stats.fallback.get(), 1);
        assert_eq!(tle.stats.fast.get(), 0);
        assert_eq!(tle.stats.causes.spurious.get(), 3);
        assert_eq!(tle.stats.causes.total(), 3);
        assert_eq!(tle.stats.aborted_attempts.get(), 3);
    }

    #[test]
    fn zero_attempts_always_locks() {
        let tle = Tle::new(0);
        let w = TxWord::new(5);
        let v = tle.execute(|ctx| ctx.read(&w));
        assert_eq!(v, 5);
        assert_eq!(tle.stats.fallback.get(), 1);
    }

    #[test]
    fn capacity_aborts_spend_every_attempt_before_locking() {
        // Unlike a PTO prefix, elision does not stop on a permanent abort:
        // a body that overflows `write_cap` burns all `attempts`, then the
        // lock path runs it directly.
        let opts = TxOpts {
            write_cap: 2,
            ..TxOpts::default()
        };
        let tle = Tle::with_opts(4, opts);
        let words: Vec<TxWord> = (0..8).map(TxWord::new).collect();
        let runs = std::cell::Cell::new(0u32);
        tle.execute(|ctx| {
            runs.set(runs.get() + 1);
            for w in &words {
                ctx.write(w, 1)?;
            }
            Ok(())
        });
        assert_eq!(runs.get(), 5, "four elision attempts, then the locked run");
        assert_eq!(tle.stats.causes.capacity.get(), 4);
        assert_eq!(tle.stats.causes.total(), 4);
        assert_eq!(tle.stats.fast.get(), 0);
        assert_eq!(tle.stats.fallback.get(), 1);
        assert!(words.iter().all(|w| w.peek() == 1));
    }

    #[test]
    fn concurrent_counter_is_exact() {
        // Atomicity across elided and locked paths together.
        let tle = Tle::new(2);
        let w = TxWord::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_500 {
                        tle.execute(|ctx| {
                            let v = ctx.read(&w)?;
                            ctx.write(&w, v + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(w.peek(), 10_000);
    }

    #[test]
    fn multi_word_invariant_holds_across_modes() {
        let tle = Tle::new(1);
        let a = TxWord::new(500);
        let b = TxWord::new(500);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_500 {
                        tle.execute(|ctx| {
                            let x = ctx.read(&a)?;
                            let y = ctx.read(&b)?;
                            ctx.write(&a, x + 1)?;
                            ctx.write(&b, y.wrapping_sub(1))?;
                            Ok(())
                        });
                    }
                });
                let _ = t;
            }
        });
        // b wraps below zero (u64); the invariant holds in wrapping
        // arithmetic.
        assert_eq!(a.peek().wrapping_add(b.peek()), 1000);
        assert_eq!(a.peek(), 500 + 6_000);
    }
}

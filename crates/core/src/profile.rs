//! Per-call-site attribution of virtual time.
//!
//! The abort-cause counters say *what* happened and the metrics series say
//! *when*; this module says **where the cycles went**: a lightweight site
//! registry that charges the virtual time spent in transaction attempts,
//! retry backoff, fallbacks, and combiner rounds to the *originating call
//! site* of [`pto`](crate::policy::pto) /
//! [`Exec::run`](crate::policy::Exec::run) /
//! [`Composed::run`](crate::compose::Composed::run) /
//! [`Tle::execute`](crate::tle::Tle::execute) /
//! [`FlatCombining::execute`](crate::fc::FlatCombining::execute), captured
//! with `#[track_caller]` — so a bench report can name the line of
//! structure code that burned the time, not just the framework function.
//! Every executor reports through one `Probe` per operation.
//!
//! A [`ProfileSession`] lives in the context slot
//! [`SLOT_PROFILE`](pto_sim::ctx::SLOT_PROFILE): it sees operations on its
//! arming thread and on every `Sim` lane or `par` job that inherits the
//! slot, and nothing from unrelated threads, so concurrent sessions (and
//! concurrent tests) never see each other's sites.
//!
//! Zero-cost contract, matching trace/metrics: when no session is live
//! anywhere, `Probe::new` costs one relaxed load and no timestamps are
//! taken at all; when armed, the profiler only *reads* the virtual clock —
//! it never charges it, so arming a [`ProfileSession`] changes no
//! virtual-time outcome.
//!
//! Attribution is **inclusive**: a nested composition (a `pto` call inside
//! another's fallback) charges its inner attempts both to the inner site
//! and to the outer site's fallback phase, exactly like a flamegraph's
//! inclusive sample counts.

use pto_sim::sync::Mutex;
use pto_sim::trace::{self, EventKind};
use pto_sim::{charge_n, ctx, CostKind};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of attribution phases.
pub const N_PHASES: usize = 4;

/// Where within an executor the time was spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Inside a prefix/elided transaction attempt (committed or aborted).
    Attempt = 0,
    /// Spinning in randomized retry backoff.
    Backoff = 1,
    /// Inside the non-speculative fallback (lock-free original code, or
    /// the lock path for TLE).
    Fallback = 2,
    /// Servicing a flat-combining round on behalf of other threads.
    Combine = 3,
}

/// Every phase, in index order.
pub const ALL_PHASES: [Phase; N_PHASES] =
    [Phase::Attempt, Phase::Backoff, Phase::Fallback, Phase::Combine];

impl Phase {
    /// Stable exported name (the collapsed-stack frame).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Attempt => "attempt",
            Phase::Backoff => "backoff",
            Phase::Fallback => "fallback",
            Phase::Combine => "combine",
        }
    }
}

/// A call site: `file:line` of the caller of an instrumented executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Site {
    pub file: &'static str,
    pub line: u32,
}

/// The instrumented executor's caller (propagates through the executor's
/// own `#[track_caller]` attribute).
#[track_caller]
pub fn caller_site() -> Site {
    let loc = std::panic::Location::caller();
    Site {
        file: loc.file(),
        line: loc.line(),
    }
}

/// Per-operation local accumulator: a [`Probe`] batches its phase charges
/// here and flushes once per operation, so the registry lock is taken once
/// per op, not once per timestamp.
#[derive(Clone, Copy, Default)]
struct LocalAcc {
    cycles: [u64; N_PHASES],
    counts: [u64; N_PHASES],
}

impl LocalAcc {
    fn add(&mut self, phase: Phase, cycles: u64) {
        self.cycles[phase as usize] = self.cycles[phase as usize].saturating_add(cycles);
        self.counts[phase as usize] += 1;
    }
}

/// Live sessions anywhere in the process: the disarmed fast path is one
/// relaxed load of this.
static SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// Is a [`ProfileSession`] armed in this thread's context? When false the
/// probe takes no timestamps at all.
#[inline]
fn armed() -> bool {
    SESSIONS.load(Ordering::Relaxed) > 0 && ctx::is_set(ctx::SLOT_PROFILE)
}

type Registry = Mutex<HashMap<Site, LocalAcc>>;

/// One operation's instrumentation: times phases, charges backoff spins,
/// and flushes the op's phase totals to its call site on [`Probe::finish`].
pub(crate) struct Probe {
    site: Site,
    armed: bool,
    acc: LocalAcc,
}

impl Probe {
    #[inline]
    pub(crate) fn new(site: Site) -> Probe {
        Probe {
            site,
            armed: armed(),
            acc: LocalAcc::default(),
        }
    }

    /// Run `f`, attributing the virtual time it takes to `phase`.
    #[inline]
    pub(crate) fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = if self.armed { pto_sim::now() } else { 0 };
        let r = f();
        if self.armed {
            self.acc.add(phase, pto_sim::now() - t0);
        }
        r
    }

    /// Spin `spins` iterations of retry backoff, each charged as
    /// [`CostKind::SpinIter`] so the delay shows up in virtual time.
    pub(crate) fn backoff(&mut self, spins: u64) {
        self.time(Phase::Backoff, || {
            trace::emit(EventKind::BackoffBegin { spins });
            charge_n(CostKind::SpinIter, spins);
            for _ in 0..spins {
                std::hint::spin_loop();
            }
            trace::emit(EventKind::BackoffEnd);
        })
    }

    /// Flush the operation's totals into the armed session's registry.
    #[inline]
    pub(crate) fn finish(self) {
        if self.armed {
            ctx::with::<Registry, _>(ctx::SLOT_PROFILE, |reg| {
                if let Some(reg) = reg {
                    let mut reg = reg.lock();
                    let t = reg.entry(self.site).or_default();
                    for i in 0..N_PHASES {
                        t.cycles[i] = t.cycles[i].saturating_add(self.acc.cycles[i]);
                        t.counts[i] += self.acc.counts[i];
                    }
                }
            });
        }
    }
}

/// A scoped arming of the call-site profiler, bound to the arming thread's
/// context (and the `Sim` lanes and `par` jobs that inherit it). At most
/// one session can be armed per context; [`ProfileSession::drain`] (or
/// drop) disarms.
#[must_use = "an unarmed profiler records nothing; call drain() to collect"]
pub struct ProfileSession {
    registry: Arc<Registry>,
    _guard: ctx::ScopeGuard,
}

impl ProfileSession {
    /// Arm a fresh profiler on the current thread's context.
    ///
    /// Panics if a session is already armed in this context.
    pub fn arm() -> ProfileSession {
        assert!(
            !ctx::is_set(ctx::SLOT_PROFILE),
            "a ProfileSession is already armed"
        );
        let registry: Arc<Registry> = Arc::new(Mutex::new(HashMap::new()));
        let guard = ctx::ScopeGuard::install(
            ctx::SLOT_PROFILE,
            Arc::clone(&registry) as Arc<dyn std::any::Any + Send + Sync>,
        );
        SESSIONS.fetch_add(1, Ordering::SeqCst);
        ProfileSession {
            registry,
            _guard: guard,
        }
    }

    /// Disarm and collect the per-site totals, sorted by total cycles
    /// (hottest first). Ops still in flight on other threads flush their
    /// accumulators at op end; drain after joining workers (post
    /// `Sim::run`) for exact totals.
    pub fn drain(self) -> Profile {
        let mut sites: Vec<SiteProfile> = self
            .registry
            .lock()
            .iter()
            .map(|(site, t)| SiteProfile {
                file: site.file,
                line: site.line,
                cycles: t.cycles,
                counts: t.counts,
            })
            .collect();
        sites.sort_by(|a, b| b.total().cmp(&a.total()).then(a.file.cmp(b.file)));
        Profile { sites }
    }
}

impl Drop for ProfileSession {
    fn drop(&mut self) {
        SESSIONS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One call site's attribution totals.
#[derive(Clone, Copy, Debug)]
pub struct SiteProfile {
    pub file: &'static str,
    pub line: u32,
    /// Virtual cycles per [`Phase`] (indexed by `Phase as usize`).
    pub cycles: [u64; N_PHASES],
    /// Operations-phase entries per [`Phase`].
    pub counts: [u64; N_PHASES],
}

impl SiteProfile {
    /// Total virtual cycles attributed to this site across all phases.
    pub fn total(&self) -> u64 {
        self.cycles.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }
}

/// A drained profile: sites sorted hottest-first.
#[derive(Debug)]
pub struct Profile {
    pub sites: Vec<SiteProfile>,
}

impl Profile {
    /// Total attributed cycles across all sites.
    pub fn total_cycles(&self) -> u64 {
        self.sites.iter().fold(0u64, |a, s| a.saturating_add(s.total()))
    }

    /// Collapsed-stack (flamegraph-compatible) text: one
    /// `file:line;phase cycles` line per non-empty (site, phase) pair.
    /// Feed to any FlameGraph implementation, or read directly: the stack
    /// is `call site → executor phase`.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for s in &self.sites {
            for p in ALL_PHASES {
                let c = s.cycles[p as usize];
                if c > 0 {
                    let _ = writeln!(out, "{}:{};{} {}", s.file, s.line, p.name(), c);
                }
            }
        }
        out
    }

    /// "Where did the cycles go": the top `n` sites with per-phase splits
    /// and their share of all attributed virtual time.
    pub fn top_table(&self, n: usize) -> String {
        let total = self.total_cycles().max(1);
        let mut out = String::from("profile: top call sites by attributed virtual cycles\n");
        let _ = writeln!(
            out,
            "  {:<40} {:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "site", "share", "total_cyc", "attempt", "backoff", "fallback", "combine"
        );
        for s in self.sites.iter().take(n) {
            let label = format!("{}:{}", s.file, s.line);
            // Keep the tail of long paths: the file name is the signal.
            let label = if label.len() > 40 {
                format!("..{}", &label[label.len() - 38..])
            } else {
                label
            };
            let _ = writeln!(
                out,
                "  {:<40} {:>5.1}% {:>12} {:>10} {:>10} {:>10} {:>10}",
                label,
                s.total() as f64 * 100.0 / total as f64,
                s.total(),
                s.cycles[Phase::Attempt as usize],
                s.cycles[Phase::Backoff as usize],
                s.cycles[Phase::Fallback as usize],
                s.cycles[Phase::Combine as usize],
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{pto, PtoPolicy, PtoStats};
    use pto_htm::TxWord;

    // Sessions follow the arming thread's context, so these tests run in
    // parallel with each other and with every other test in the binary.

    #[test]
    fn disarmed_profiling_records_nothing() {
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        pto(&PtoPolicy::with_attempts(3), &stats, |tx| tx.read(&w), || 0);
        let p = ProfileSession::arm().drain();
        assert!(p.sites.is_empty(), "disarmed ops must not register sites");
    }

    #[test]
    fn sites_attribute_attempt_and_fallback_time() {
        let session = ProfileSession::arm();
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        // Site A: commits on the fast path.
        for _ in 0..10 {
            pto(&PtoPolicy::with_attempts(3), &stats, |tx| tx.read(&w), || 0);
        }
        // Site B: explicit abort, straight to fallback.
        for _ in 0..5 {
            pto(
                &PtoPolicy::with_attempts(3),
                &stats,
                |tx| -> pto_htm::TxResult<u64> { Err(tx.abort(1)) },
                || {
                    pto_sim::charge_n(pto_sim::CostKind::Work, 7);
                    0
                },
            );
        }
        let p = session.drain();
        assert_eq!(p.sites.len(), 2, "two distinct call sites");
        let a = p
            .sites
            .iter()
            .find(|s| s.counts[Phase::Fallback as usize] == 0)
            .expect("fast-path site");
        assert_eq!(a.counts[Phase::Attempt as usize], 10);
        assert!(a.cycles[Phase::Attempt as usize] > 0);
        let b = p
            .sites
            .iter()
            .find(|s| s.counts[Phase::Fallback as usize] > 0)
            .expect("fallback site");
        assert_eq!(b.counts[Phase::Fallback as usize], 5);
        assert!(
            b.cycles[Phase::Fallback as usize]
                >= 5 * pto_sim::cost::cycles(pto_sim::CostKind::Work) * 7
        );
        // Exporters name both sites.
        let collapsed = p.collapsed();
        assert!(collapsed.contains(";attempt "));
        assert!(collapsed.contains(";fallback "));
        assert!(collapsed.lines().all(|l| l.contains("profile.rs")));
        let table = p.top_table(10);
        assert!(table.contains("profile.rs"));
    }

    #[test]
    fn armed_profiling_never_charges_virtual_time() {
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let run = || {
            pto_sim::clock::reset();
            for _ in 0..50 {
                pto(&PtoPolicy::with_attempts(3), &stats, |tx| tx.read(&w), || 0);
            }
            pto_sim::now()
        };
        let plain = run();
        let session = ProfileSession::arm();
        let armed = run();
        let p = session.drain();
        assert!(p.total_cycles() > 0, "armed run attributed nothing");
        assert_eq!(plain, armed, "profiling perturbed the virtual clock");
    }

    #[test]
    fn sessions_see_their_context_only() {
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let session = ProfileSession::arm();
        // A thread outside the session's context records nothing...
        std::thread::scope(|s| {
            s.spawn(|| pto(&PtoPolicy::with_attempts(3), &stats, |tx| tx.read(&w), || 0));
        });
        // ...while `Sim` lanes inherit the arming thread's slot.
        pto_sim::Sim::new(2).run(|_| {
            pto(&PtoPolicy::with_attempts(3), &stats, |tx| tx.read(&w), || 0);
        });
        let p = session.drain();
        assert_eq!(
            p.sites.len(),
            1,
            "a thread outside the context was profiled"
        );
        assert_eq!(p.sites[0].counts[Phase::Attempt as usize], 2);
        assert_eq!(stats.fast.get(), 3);
    }

    #[test]
    fn double_arm_panics_and_drop_disarms() {
        let session = ProfileSession::arm();
        assert!(std::panic::catch_unwind(ProfileSession::arm).is_err());
        drop(session.drain());
        drop(ProfileSession::arm());
        ProfileSession::arm().drain();
    }
}

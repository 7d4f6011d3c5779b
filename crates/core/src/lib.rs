//! # pto-core — the Prefix Transaction Optimization framework
//!
//! The paper's contribution (§2): given a superblock `B` of a nonblocking
//! operation, the Prefix Transaction Transformation produces
//!
//! ```text
//! TxBegin ──ok──▶ optimized prefix T_B ──TxEnd──▶ done
//!    │
//!    └─abort──▶ (retry up to `attempts`) ──▶ original lock-free code B
//! ```
//!
//! which preserves the original progress guarantee (Theorem 3: bounded
//! attempts, then the untouched fallback) and composes recursively
//! (§2.5: `T_B(T_A(G))` — attempt a large prefix, then a smaller one inside
//! its fallback, then the original code).
//!
//! This crate provides:
//!
//! * [`policy`] — [`PtoPolicy`] (retry budget, fence mode, capacities),
//!   [`AdaptivePolicy`], and [`Exec`], the one value that says how a
//!   prefix runs; every executor ([`pto`], [`pto_adaptive`],
//!   [`Composed::run`], TLE) is one loop over the demotion chain — HTM
//!   attempts, an optional single-orec middle path, then the fallback —
//!   reporting into per-structure [`PtoStats`]. The nested form is a `pto`
//!   call inside another's fallback;
//! * [`compose`] — atomic operations *across* structures: one prefix
//!   transaction spanning two objects, with an ordered-lock fallback
//!   ([`Anchor`]) so the demoted path composes without deadlock;
//! * [`kcas`] — software DCSS and DCAS (Harris-style, with helping) plus
//!   their PTO-accelerated fronts: the paper's "apply PTO locally to the
//!   DCAS/DCSS sub-operations" granularity (§3.1, Mound);
//! * [`tle`] — transactional lock elision over a single global lock, the
//!   baseline of Figure 2(a);
//! * [`traits`] — the abstract object interfaces the benchmarks drive
//!   (set, priority queue, quiescence/Mindicator).

pub mod compose;
pub mod fc;
pub mod kcas;
pub mod policy;
pub mod profile;
pub mod tle;
pub mod traits;

pub use compose::{acquire_ordered, compose, compose_adaptive, Anchor, AnchorGuard, Composed};
pub use policy::{pto, pto_adaptive, AdaptivePolicy, Backoff, Exec, PtoPolicy, PtoStats, Regime};
pub use traits::{ConcurrentSet, FifoQueue, PriorityQueue, Quiescence, IDLE};

/// Explicit-abort code used by prefix transactions that observe a state
/// requiring *helping* (an installed descriptor, a marked node): per §2.4
/// the transaction aborts instead of helping, both as an ad-hoc backoff and
/// to keep intermediate states out of the fast path.
pub const ABORT_HELP: u8 = 0x7E;

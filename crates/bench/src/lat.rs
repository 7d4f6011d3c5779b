//! Per-operation latency collection for the bench drivers.
//!
//! Each driver wraps its measured-loop operations in a virtual-time stamp
//! pair and records the elapsed cycles into a log2-bucketed [`Histogram`]
//! per operation kind. The harness installs a [`LatScope`] per cell (a
//! [`probe::Scope`] in context slot [`ctx::SLOT_LAT`]), so concurrent cells
//! record into their own blocks, on the installing thread and every `Sim`
//! lane it spawns. There is no process-global block: operations recorded
//! outside any scope are dropped.
//!
//! Recording is two atomic RMWs plus two `fetch_min`/`fetch_max` per
//! operation and never touches the virtual clock, so latency capture does
//! not perturb the throughput it accompanies.

use pto_sim::hist::{HistSnapshot, Histogram};
use pto_sim::{ctx, probe};

/// The operation vocabulary across all drivers: set ops (setbench),
/// priority-queue ops (pqbench), FIFO ops (fifobench), the Mindicator's
/// arrive/depart pairs (mbench), and the composed scenario ops (a
/// `transfer` moves a key between two structures atomically, an `audit`
/// reads both sides of a composed pair in one transaction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Remove,
    Contains,
    Push,
    Pop,
    Enqueue,
    Dequeue,
    Arrive,
    Depart,
    Transfer,
    Audit,
}

/// Number of operation kinds (histogram array width).
pub const N_KINDS: usize = 11;

/// Every kind, in display order.
pub const ALL: [OpKind; N_KINDS] = [
    OpKind::Insert,
    OpKind::Remove,
    OpKind::Contains,
    OpKind::Push,
    OpKind::Pop,
    OpKind::Enqueue,
    OpKind::Dequeue,
    OpKind::Arrive,
    OpKind::Depart,
    OpKind::Transfer,
    OpKind::Audit,
];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Contains => "contains",
            OpKind::Push => "push",
            OpKind::Pop => "pop",
            OpKind::Enqueue => "enqueue",
            OpKind::Dequeue => "dequeue",
            OpKind::Arrive => "arrive",
            OpKind::Depart => "depart",
            OpKind::Transfer => "transfer",
            OpKind::Audit => "audit",
        }
    }
}

/// The live histograms behind a [`LatScope`], one per [`OpKind`].
#[derive(Default)]
pub struct LatBlock {
    hists: [Histogram; N_KINDS],
}

impl probe::Block for LatBlock {
    type Snapshot = LatSnapshot;
    const SLOT: usize = ctx::SLOT_LAT;
    fn snapshot(&self) -> LatSnapshot {
        LatSnapshot {
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }
}

/// Record one operation's latency in virtual cycles into the [`LatScope`]
/// installed on this thread (directly or inherited from a spawning cell).
#[inline]
pub fn record(kind: OpKind, cycles: u64) {
    probe::count::<LatBlock>(|b| b.hists[kind as usize].record(cycles));
}

/// RAII scope collecting latency histograms for one sweep cell. Read the
/// cell's distributions with `snapshot()`.
pub type LatScope = probe::Scope<LatBlock>;

/// The latency distributions of one measurement window: one histogram
/// snapshot per [`OpKind`], indexed like [`ALL`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatSnapshot {
    pub hists: [HistSnapshot; N_KINDS],
}

impl LatSnapshot {
    /// Merge (histogram addition) with another window.
    pub fn merge(&self, other: &LatSnapshot) -> LatSnapshot {
        let mut out = LatSnapshot::default();
        for i in 0..N_KINDS {
            out.hists[i] = self.hists[i].merge(&other.hists[i]);
        }
        out
    }

    /// True when no operation was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.count == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_bucket_by_kind() {
        let scope = LatScope::new();
        assert!(scope.snapshot().is_empty());
        record(OpKind::Insert, 100);
        record(OpKind::Insert, 200);
        record(OpKind::Pop, 7);
        let s = scope.snapshot();
        assert_eq!(s.hists[OpKind::Insert as usize].count, 2);
        assert_eq!(s.hists[OpKind::Insert as usize].max, 200);
        assert_eq!(s.hists[OpKind::Pop as usize].count, 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn merge_adds_counts_per_kind() {
        let window = |ops: &[(OpKind, u64)]| {
            let scope = LatScope::new();
            for &(kind, cycles) in ops {
                record(kind, cycles);
            }
            scope.snapshot()
        };
        let a = window(&[(OpKind::Arrive, 50)]);
        let b = window(&[(OpKind::Arrive, 70), (OpKind::Depart, 30)]);
        let m = a.merge(&b);
        assert_eq!(m.hists[OpKind::Arrive as usize].count, 2);
        assert_eq!(m.hists[OpKind::Arrive as usize].max, 70);
        assert_eq!(m.hists[OpKind::Depart as usize].count, 1);
    }

    #[test]
    fn names_are_unique_and_ordered_like_all() {
        let names: Vec<_> = ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), N_KINDS);
        assert_eq!(names, dedup);
        for (i, k) in ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "ALL order must match discriminants");
        }
    }
}

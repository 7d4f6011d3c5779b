//! Reclamation counters: epoch advances, hazard scans, slots reclaimed,
//! orphans parked/drained.
//!
//! The PTO benches attribute these to a variant the same way they attribute
//! HTM events: install a [`MemScope`] per sweep cell (a
//! [`probe::Scope`] in context slot [`ctx::SLOT_MEM`]) so each cell's
//! events record into its own block, even when cells run concurrently on a
//! worker pool. There is no process-global block: events outside any scope
//! are not counted. The counters are deliberately cheap (relaxed,
//! cache-padded) and are *not* part of the cost model — they observe the
//! reclamation machinery, they do not charge for it.

use pto_sim::ctx;
use pto_sim::probe;

pto_sim::counters! {
    /// A point-in-time copy of the reclamation counters.
    pub struct MemSnapshot, block MemBlock, slot ctx::SLOT_MEM {
        /// Successful global-epoch advances.
        epoch_advances,
        /// Hazard-pointer reclamation scans run.
        hazard_scans,
        /// Retired slots returned to their pool by a hazard scan.
        hazard_reclaimed,
        /// Retired slots handed to a domain's orphan list by exiting threads.
        orphans_parked,
        /// Orphaned slots returned to their pool by a later scan.
        orphans_drained,
        /// Hazard lanes released by exiting threads.
        lanes_released,
        /// Epoch-limbo slots whose grace period expired and were recycled.
        limbo_reclaimed,
    }
}

#[inline]
pub(crate) fn record_epoch_advance() {
    probe::count::<MemBlock>(|b| b.epoch_advances.inc());
}

#[inline]
pub(crate) fn record_hazard_scan() {
    probe::count::<MemBlock>(|b| b.hazard_scans.inc());
}

#[inline]
pub(crate) fn record_hazard_reclaimed(n: u64) {
    probe::count::<MemBlock>(|b| b.hazard_reclaimed.add(n));
}

#[inline]
pub(crate) fn record_orphans_parked(n: u64) {
    probe::count::<MemBlock>(|b| b.orphans_parked.add(n));
}

#[inline]
pub(crate) fn record_orphans_drained(n: u64) {
    probe::count::<MemBlock>(|b| b.orphans_drained.add(n));
}

#[inline]
pub(crate) fn record_lane_released() {
    probe::count::<MemBlock>(|b| b.lanes_released.inc());
}

#[inline]
pub(crate) fn record_limbo_reclaimed(n: u64) {
    probe::count::<MemBlock>(|b| b.limbo_reclaimed.add(n));
}

/// RAII scope counting reclamation events for one sweep cell: while
/// alive, events on the installing thread (and the `Sim` lanes and
/// [`pto_sim::par`] jobs that inherit its context) record into this
/// scope. Read the cell's totals with `snapshot()`.
pub type MemScope = probe::Scope<MemBlock>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_advances_are_counted() {
        // Drive the epoch forward a few steps (tolerating other tests'
        // pins and advances: the scope sees exactly this thread's).
        let scope = MemScope::new();
        let start = crate::epoch::current();
        let (mut tries, mut won) = (0u64, 0u64);
        while crate::epoch::current() < start + 4 || won == 0 {
            won += crate::epoch::try_advance() as u64;
            tries += 1;
            if tries.is_multiple_of(1024) {
                std::thread::yield_now();
            }
            assert!(tries < 100_000_000, "epoch stalled");
        }
        assert_eq!(scope.snapshot().epoch_advances, won);
    }
}

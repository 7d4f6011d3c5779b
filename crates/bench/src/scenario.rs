//! Production-shaped composed scenarios over [`pto_core::compose`].
//!
//! Where [`crate::drivers`] measures single structures, this module
//! measures *cross-structure atomicity* under load, with the invariant
//! checks running inside the measured loop:
//!
//! * [`bank_transfer`] — two PTO hash tables ("bank A" and "bank B") and
//!   a token population that starts entirely in A. Transfers move one
//!   token between the banks atomically; audits read both banks for one
//!   token in a single composed operation and assert **conservation**:
//!   every token is in exactly one bank at every linearization point.
//!   An audit that saw a token in both banks (duplicated) or in neither
//!   (destroyed) would only be possible if a transfer's two halves came
//!   apart — so the assert is precisely the atomicity claim.
//! * [`order_book`] — a Mound ("resting orders by price") plus a hash
//!   table ("order index"). Placing an order pushes the price level and
//!   indexes the order in one composed op; filling pops the best order
//!   and unindexes it in one composed op, asserting the popped order was
//!   indexed (**no order lost** between book and index).
//!
//! Each scenario partitions its lanes into *tenants* (think: customers
//! of a shared service). Every tenant gets its own [`Composed`] site, so
//! the per-site [`pto_core::policy::PtoStats`] — fast/middle/fallback
//! outcomes and abort causes — attribute per tenant; the harnesses
//! render those as the per-tenant abort-cause table ([`render_tenants`])
//! and CSV ([`tenants_csv`]).
//!
//! Throughput is ops/ms under the virtual-time gate, like every other
//! driver; per-op latencies go to [`crate::lat`] under the `transfer` /
//! `audit` / `push` / `pop` kinds.

use crate::lat::{self, OpKind};
use pto_core::compose::Composed;
use pto_core::policy::{AdaptivePolicy, Exec, PtoPolicy};
use pto_core::{ConcurrentSet, PriorityQueue};
use pto_hashtable::{FSetHashTable, HashVariant};
use pto_mound::Mound;
use pto_sim::rng::XorShift64;
use pto_sim::{ops_per_ms, Sim};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// The scenario series axis: how the composed sites execute.
///
/// * `fallback` — zero prefix attempts: every op takes the ordered-lock
///   path (the NBTC-style two-phase-lock baseline);
/// * `pto` — the paper's static retry-N-then-fallback budget;
/// * `adaptive` — the PR 9 self-tuning policy (per-site budgets, middle
///   path, regime flips), one `SiteState` per composed call site.
pub fn mode_for(series: &str) -> Exec {
    match series {
        "fallback" => Exec::Static(PtoPolicy::with_attempts(0)),
        "pto" => Exec::Static(PtoPolicy::default()),
        "adaptive" => Exec::Adaptive(AdaptivePolicy::new(PtoPolicy::default())),
        other => panic!("unknown scenario series {other:?}"),
    }
}

/// Every scenario series, in display order (`fallback` first: it is the
/// lock-based baseline the ratio columns divide by).
pub const SERIES: [&str; 3] = ["fallback", "pto", "adaptive"];

/// One tenant's composed-site outcome counters for one series.
#[derive(Clone, Debug)]
pub struct TenantRow {
    pub series: String,
    pub tenant: usize,
    /// Composed ops entered (fast + middle + fallback).
    pub entries: u64,
    pub fast: u64,
    pub middle: u64,
    pub fallback: u64,
    pub conflict: u64,
    pub capacity: u64,
    pub explicit: u64,
    pub nested: u64,
    pub spurious: u64,
}

impl TenantRow {
    fn from_site(series: &str, tenant: usize, site: &Composed<'_>) -> TenantRow {
        let s = &site.stats;
        TenantRow {
            series: series.to_string(),
            tenant,
            entries: s.fast.get() + s.middle.get() + s.fallback.get(),
            fast: s.fast.get(),
            middle: s.middle.get(),
            fallback: s.fallback.get(),
            conflict: s.causes.conflict.get(),
            capacity: s.causes.capacity.get(),
            explicit: s.causes.explicit.get(),
            nested: s.causes.nested.get(),
            spurious: s.causes.spurious.get(),
        }
    }

    fn add(&mut self, o: &TenantRow) {
        self.entries += o.entries;
        self.fast += o.fast;
        self.middle += o.middle;
        self.fallback += o.fallback;
        self.conflict += o.conflict;
        self.capacity += o.capacity;
        self.explicit += o.explicit;
        self.nested += o.nested;
        self.spurious += o.spurious;
    }
}

/// Merge `fresh` rows into `acc`, keyed on (series, tenant) — trials and
/// axis points accumulate.
pub fn merge_tenants(acc: &mut Vec<TenantRow>, fresh: &[TenantRow]) {
    for f in fresh {
        match acc
            .iter_mut()
            .find(|r| r.series == f.series && r.tenant == f.tenant)
        {
            Some(r) => r.add(f),
            None => acc.push(f.clone()),
        }
    }
}

/// The per-tenant abort-cause table section of a scenario figure.
pub fn render_tenants(title: &str, rows: &[TenantRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "### per-tenant composed-site outcomes — {title}");
    let _ = writeln!(
        out,
        "{:>12}{:>8}{:>9}{:>9}{:>8}{:>10}{:>10}{:>10}{:>10}{:>8}{:>10}",
        "series",
        "tenant",
        "entries",
        "fast",
        "middle",
        "fallback",
        "conflict",
        "capacity",
        "explicit",
        "nested",
        "spurious"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>12}{:>8}{:>9}{:>9}{:>8}{:>10}{:>10}{:>10}{:>10}{:>8}{:>10}",
            r.series,
            r.tenant,
            r.entries,
            r.fast,
            r.middle,
            r.fallback,
            r.conflict,
            r.capacity,
            r.explicit,
            r.nested,
            r.spurious
        );
    }
    out
}

/// The CSV body written to `results/<name>_tenants.csv`.
pub fn tenants_csv(rows: &[TenantRow]) -> String {
    let mut out = String::from(
        "series,tenant,entries,fast,middle,fallback,conflict,capacity,explicit,nested,spurious\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            r.series,
            r.tenant,
            r.entries,
            r.fast,
            r.middle,
            r.fallback,
            r.conflict,
            r.capacity,
            r.explicit,
            r.nested,
            r.spurious
        );
    }
    out
}

/// A scenario run's result: throughput plus the per-tenant rows.
#[derive(Clone, Debug)]
pub struct ScenOut {
    pub ops_per_ms: f64,
    pub tenants: Vec<TenantRow>,
}

/// How many tenants the scenarios partition their lanes into.
pub const TENANTS: usize = 2;

/// The bank-transfer scenario. `tokens` tokens start in bank A; the
/// measured mix is 70% composed transfers (random token, random
/// direction) and 30% composed audits. Every audit — and a full
/// post-quiescence sweep — asserts conservation; the process aborts on a
/// violation, so a passing run *is* the invariant proof for its
/// schedules. Works under [`pto_htm::injection_scope`]: injected
/// commit-point aborts land the ops on the ordered-lock fallback and the
/// invariant must still hold.
pub fn bank_transfer(
    series: &str,
    threads: usize,
    ops_per_thread: u64,
    tokens: u64,
    seed: u64,
) -> ScenOut {
    let mode = mode_for(series);
    let a = FSetHashTable::new(HashVariant::PtoInplace, 64);
    let b = FSetHashTable::new(HashVariant::PtoInplace, 64);
    for t in 0..tokens {
        a.insert(t);
    }
    let _ = std::hint::black_box(a.len());
    pto_sim::clock::reset();
    let sites: Vec<Composed<'_>> = (0..TENANTS)
        .map(|_| Composed::new(vec![a.anchor(), b.anchor()], mode))
        .collect();
    let total = AtomicU64::new(0);
    let out = Sim::new(threads).run(|lane| {
        let mut rng = XorShift64::new(seed.wrapping_add(lane as u64 * 0x9E37_79B9 + 1));
        let site = &sites[lane % TENANTS];
        for _ in 0..ops_per_thread {
            let key = rng.below(tokens);
            let roll = rng.below(100);
            let t0 = pto_sim::now();
            if roll < 70 {
                let (src, dst) = if rng.chance(1, 2) { (&b, &a) } else { (&a, &b) };
                let moved = site.run(
                    |tx| {
                        let moved = src.tx_compose_update(tx, key, false)?;
                        if moved {
                            dst.tx_compose_update(tx, key, true)?;
                        }
                        Ok(moved)
                    },
                    || {
                        let moved = src.remove(key);
                        if moved {
                            dst.insert(key);
                        }
                        moved
                    },
                );
                std::hint::black_box(moved);
                lat::record(OpKind::Transfer, pto_sim::now() - t0);
            } else {
                let (in_a, in_b) = site.run(
                    |tx| {
                        Ok((
                            a.tx_compose_contains(tx, key)?,
                            b.tx_compose_contains(tx, key)?,
                        ))
                    },
                    || (a.contains(key), b.contains(key)),
                );
                assert!(
                    in_a != in_b,
                    "conservation violated: token {key} in_a={in_a} in_b={in_b} \
                     (a transfer's halves came apart)"
                );
                lat::record(OpKind::Audit, pto_sim::now() - t0);
            }
        }
        total.fetch_add(ops_per_thread, Ordering::Relaxed);
    });
    // Post-quiescence sweep: every token in exactly one bank, none minted.
    for t in 0..tokens {
        let (in_a, in_b) = (a.contains(t), b.contains(t));
        assert!(
            in_a != in_b,
            "post-run conservation violated: token {t} in_a={in_a} in_b={in_b}"
        );
    }
    assert_eq!(a.len() + b.len(), tokens as usize, "token count drifted");
    let tenants = sites
        .iter()
        .enumerate()
        .map(|(i, s)| TenantRow::from_site(series, i, s))
        .collect();
    ScenOut {
        ops_per_ms: ops_per_ms(total.load(Ordering::Relaxed), out.makespan),
        tenants,
    }
}

/// The order-book scenario: a Mound of resting orders plus a hash-table
/// index. 45% places (composed push + index-insert), 45% fills (composed
/// pop-best + index-remove, asserting the filled order was indexed), 10%
/// index lookups. Order ids are lane-unique, so a place must always
/// index a fresh id — asserted — and after quiescence the book and index
/// must agree on the resting-order count.
pub fn order_book(
    series: &str,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> ScenOut {
    let mode = mode_for(series);
    let book = Mound::new_pto(14);
    let index = FSetHashTable::new(HashVariant::PtoInplace, 64);
    // Resting prefill so early fills mostly succeed. The base sits far
    // above any lane-unique place id `((lane + 1) << 20) | i`.
    const PREFILL_BASE: u64 = 0x320_0000;
    for i in 0..64u64 {
        let id = PREFILL_BASE + i;
        book.push(id);
        index.insert(id);
    }
    let _ = std::hint::black_box(index.len());
    pto_sim::clock::reset();
    let sites: Vec<Composed<'_>> = (0..TENANTS)
        .map(|_| Composed::new(vec![book.anchor(), index.anchor()], mode))
        .collect();
    let total = AtomicU64::new(0);
    let out = Sim::new(threads).run(|lane| {
        let mut rng = XorShift64::new(seed.wrapping_add(lane as u64 * 0x85EB_CA6B + 1));
        let site = &sites[lane % TENANTS];
        for i in 0..ops_per_thread {
            let roll = rng.below(100);
            let t0 = pto_sim::now();
            if roll < 45 {
                // Place: a lane-unique order id, pushed and indexed in one
                // composed op. The list cell is allocated outside the
                // prefix (pool traffic is not transactional) and stays
                // private until the prefix commits.
                let id = ((lane as u64 + 1) << 20) | i;
                let cell = book.compose_alloc_cell();
                let (fresh, via_prefix) = site.run(
                    |tx| {
                        book.tx_compose_push(tx, id as u32, cell)?;
                        let fresh = index.tx_compose_update(tx, id, true)?;
                        Ok((fresh, true))
                    },
                    || {
                        book.push(id);
                        (index.insert(id), false)
                    },
                );
                if !via_prefix {
                    book.compose_release_cell(cell);
                }
                assert!(fresh, "order {id} was already indexed (duplicate place)");
                lat::record(OpKind::Push, pto_sim::now() - t0);
            } else if roll < 90 {
                // Fill: pop the best order and unindex it atomically.
                let filled = site.run(
                    |tx| match book.tx_compose_pop(tx)? {
                        None => Ok(None),
                        Some((v, cell)) => {
                            let removed = index.tx_compose_update(tx, v as u64, false)?;
                            Ok(Some((v, cell, removed)))
                        }
                    },
                    || {
                        book.pop_min()
                            .map(|v| (v as u32, u32::MAX, index.remove(v)))
                    },
                );
                if let Some((v, cell, removed)) = filled {
                    if cell != u32::MAX {
                        book.compose_retire_cell(cell);
                    }
                    assert!(
                        removed,
                        "filled order {v} was missing from the index (order lost)"
                    );
                }
                lat::record(OpKind::Pop, pto_sim::now() - t0);
            } else {
                let probe = PREFILL_BASE + rng.below(64);
                let hit = site.run(
                    |tx| index.tx_compose_contains(tx, probe),
                    || index.contains(probe),
                );
                std::hint::black_box(hit);
                lat::record(OpKind::Contains, pto_sim::now() - t0);
            }
        }
        total.fetch_add(ops_per_thread, Ordering::Relaxed);
    });
    // Post-quiescence: every resting order indexed exactly once.
    assert_eq!(
        book.len(),
        index.len(),
        "book and index disagree on the resting-order count"
    );
    let tenants = sites
        .iter()
        .enumerate()
        .map(|(i, s)| TenantRow::from_site(series, i, s))
        .collect();
    ScenOut {
        ops_per_ms: ops_per_ms(total.load(Ordering::Relaxed), out.makespan),
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_transfer_conserves_tokens_all_series() {
        for series in SERIES {
            let out = bank_transfer(series, 2, 120, 64, 0xBA2C);
            assert!(out.ops_per_ms > 0.0);
            let entries: u64 = out.tenants.iter().map(|t| t.entries).sum();
            assert_eq!(entries, 240, "{series}: every op must enter a composed site");
            if series == "fallback" {
                let fb: u64 = out.tenants.iter().map(|t| t.fallback).sum();
                assert_eq!(fb, 240, "attempts=0 must route every op to the lock path");
            }
        }
    }

    #[test]
    fn bank_transfer_survives_abort_injection() {
        // Kill every 5th would-commit transaction at its commit point; the
        // conservation asserts inside the driver must still hold.
        let _inj = pto_htm::injection_scope(5, 2);
        let out = bank_transfer("pto", 2, 100, 48, 0x1217);
        let fb: u64 = out.tenants.iter().map(|t| t.fallback).sum();
        assert!(fb > 0, "injection must demote some ops to the lock path");
    }

    #[test]
    fn order_book_keeps_book_and_index_consistent() {
        for series in SERIES {
            let out = order_book(series, 2, 120, 0x0B00);
            assert!(out.ops_per_ms > 0.0);
        }
    }

    #[test]
    fn tenant_rows_merge_by_series_and_tenant() {
        let out = bank_transfer("pto", 2, 50, 32, 7);
        let mut acc = Vec::new();
        merge_tenants(&mut acc, &out.tenants);
        merge_tenants(&mut acc, &out.tenants);
        assert_eq!(acc.len(), out.tenants.len());
        assert_eq!(acc[0].entries, 2 * out.tenants[0].entries);
        let table = render_tenants("t", &acc);
        assert!(table.contains("tenant") && table.contains("pto"));
        let csv = tenants_csv(&acc);
        assert!(csv.starts_with("series,tenant,"));
    }
}

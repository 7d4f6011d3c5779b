//! Multi-object histories: checking that *composed* cross-structure
//! operations ([`pto_core::compose`]) are atomic.
//!
//! ## The product construction
//!
//! A pair of objects `(A, B)` is itself an abstract object whose
//! operations are either single-object ops routed to one side or
//! *composed* ops touching both sides atomically. [`PairSpec`] builds the
//! sequential spec of the product from the two component specs: a
//! [`MOp::Pair`] applies its halves back-to-back with nothing in between,
//! which is exactly the atomicity claim the compose subsystem makes.
//! [`TransferSpec`] adds the conditional-transfer op the bank-transfer
//! scenario needs (`remove(k)` from one set and, only if it was present,
//! `insert(k)` into the other).
//!
//! A multi-object history linearizes iff there is a total order of *all*
//! ops — singles and composed — that replays through the product spec.
//! A composed operation whose halves became separately visible (one half
//! observed without the other by an overlapping audit that responded
//! before, or invoked after, the composed op) has no such order, so the
//! unchanged Wing–Gong search ([`crate::wgl::check`], generic over the
//! spec's op/ret vocabulary) decides cross-structure atomicity.
//!
//! ## Exploration
//!
//! [`explore_pair`] mirrors the single-object explorer: one seed fixes
//! the workload, each schedule perturbs quantum, PCT-style stalls, and —
//! on odd schedules — deterministic abort injection
//! ([`pto_htm::injection_scope`]), which kills every p-th would-commit
//! transaction *at its commit point*. For a composed prefix that is
//! precisely the boundary between the two halves becoming visible: the
//! injected abort must either take both halves down with it (and the
//! demoted ordered-lock fallback redo both), or the run is not atomic and
//! the checker says so. The three shipped harnesses cover the pairs the
//! acceptance criteria name: msqueue→skiplist pop-and-insert, two-table
//! conditional transfer, and the mound+hashtable order book.
//!
//! Pair recording uses the same untyped wire ([`pto_sim::history`]) as
//! single-object recording: side B's codes are offset by 16, a composed
//! pair is two consecutive records (offsets 32 and 48) sharing one
//! `[inv, res]` interval, and transfers get their own codes. The decoder
//! re-merges pair halves and refuses torn recordings.

use crate::explore::{derive_schedule, record_raw, ExploreCfg};
use crate::record::{dec_op, enc_op, DecodeError};
use crate::spec::{Op, Ret, SeqSpec, SetSpec};
use crate::spec::fnv_fold;
use crate::wgl::{check, CheckOpts, GHistOp, GHistory, GVerdict, GWitness};
use pto_core::{
    AdaptivePolicy, Composed, ConcurrentSet, Exec, FifoQueue, PriorityQueue, PtoPolicy,
};
use pto_hashtable::{FSetHashTable, HashVariant};
use pto_mem::epoch;
use pto_mound::Mound;
use pto_msqueue::MsQueue;
use pto_sim::history::{self, RawHistory};
use pto_sim::now;
use pto_sim::rng::XorShift64;
use pto_skiplist::SkipListSet;

/// One operation on a pair of objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MOp {
    /// A single-object op on side A.
    A(Op),
    /// A single-object op on side B.
    B(Op),
    /// A composed op: both halves atomic (A half first, then B half).
    Pair(Op, Op),
    /// Conditional transfer: remove `key` from the source set and, iff it
    /// was present, insert it into the destination (`rev` swaps roles, so
    /// opposite-direction transfers exercise opposite anchor orders).
    Transfer { key: u64, rev: bool },
}

/// A multi-object operation's return.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MRet {
    /// Singles and transfers (a transfer returns whether it moved).
    One(Ret),
    /// Both halves' returns, in `Pair` order.
    Pair(Ret, Ret),
}

/// A multi-object history / witness / verdict.
pub type MultiHistory = GHistory<MOp, MRet>;
pub type MultiWitness = GWitness<MOp, MRet>;
pub type MultiVerdict = GVerdict<MOp, MRet>;

/// The product of two sequential specs: side A, side B, and atomic pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairSpec<SA, SB> {
    pub a: SA,
    pub b: SB,
}

impl<SA, SB> PairSpec<SA, SB> {
    pub fn new(a: SA, b: SB) -> Self {
        PairSpec { a, b }
    }
}

impl<SA, SB> SeqSpec for PairSpec<SA, SB>
where
    SA: SeqSpec<Op = Op, Ret = Ret>,
    SB: SeqSpec<Op = Op, Ret = Ret>,
{
    type Op = MOp;
    type Ret = MRet;

    fn apply(&mut self, lane: usize, op: MOp) -> MRet {
        match op {
            MOp::A(o) => MRet::One(self.a.apply(lane, o)),
            MOp::B(o) => MRet::One(self.b.apply(lane, o)),
            MOp::Pair(oa, ob) => {
                let ra = self.a.apply(lane, oa);
                let rb = self.b.apply(lane, ob);
                MRet::Pair(ra, rb)
            }
            MOp::Transfer { .. } => panic!("PairSpec cannot apply {op:?}; use TransferSpec"),
        }
    }

    fn state_hash(&self) -> u64 {
        fnv_fold([self.a.state_hash(), self.b.state_hash()])
    }
}

/// Two sets linked by conditional transfers — the bank-transfer model,
/// where a token lives in exactly one table at a time and `Transfer`
/// conserves it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransferSpec {
    pub pair: PairSpec<SetSpec, SetSpec>,
}

impl TransferSpec {
    pub fn with_prefill(
        a: impl IntoIterator<Item = u64>,
        b: impl IntoIterator<Item = u64>,
    ) -> Self {
        TransferSpec {
            pair: PairSpec::new(SetSpec::with_prefill(a), SetSpec::with_prefill(b)),
        }
    }
}

impl SeqSpec for TransferSpec {
    type Op = MOp;
    type Ret = MRet;

    fn apply(&mut self, lane: usize, op: MOp) -> MRet {
        match op {
            MOp::Transfer { key, rev } => {
                let (src, dst) = if rev {
                    (&mut self.pair.b, &mut self.pair.a)
                } else {
                    (&mut self.pair.a, &mut self.pair.b)
                };
                let moved = src.apply(lane, Op::Remove(key)) == Ret::Bool(true);
                if moved {
                    dst.apply(lane, Op::Insert(key));
                }
                MRet::One(Ret::Bool(moved))
            }
            other => self.pair.apply(lane, other),
        }
    }

    fn state_hash(&self) -> u64 {
        self.pair.state_hash()
    }
}

// ---------------------------------------------------------------------------
// Wire encoding

/// Side-B single-op codes: base + 16.
const OFF_B: u16 = 16;
/// A composed pair's A half: base + 32; its B half (base + 48) follows
/// immediately with the same interval.
const OFF_PAIR_A: u16 = 32;
const OFF_PAIR_B: u16 = 48;
const OP_TRANSFER: u16 = 13;
const OP_TRANSFER_REV: u16 = 14;

/// Record one multi-object operation (pairs become two wire records
/// sharing the interval; [`decode_multi`] re-merges them).
pub fn record_mop(op: MOp, ret: MRet, inv: u64, res: u64) {
    match (op, ret) {
        (MOp::A(o), MRet::One(r)) => {
            let (c, a, w) = enc_op(o, r);
            history::record(c, a, w, inv, res);
        }
        (MOp::B(o), MRet::One(r)) => {
            let (c, a, w) = enc_op(o, r);
            history::record(c + OFF_B, a, w, inv, res);
        }
        (MOp::Pair(oa, ob), MRet::Pair(ra, rb)) => {
            let (ca, aa, wa) = enc_op(oa, ra);
            let (cb, ab, wb) = enc_op(ob, rb);
            history::record(ca + OFF_PAIR_A, aa, wa, inv, res);
            history::record(cb + OFF_PAIR_B, ab, wb, inv, res);
        }
        (MOp::Transfer { key, rev }, MRet::One(Ret::Bool(moved))) => {
            let code = if rev { OP_TRANSFER_REV } else { OP_TRANSFER };
            history::record(code, key, moved as u64, inv, res);
        }
        (op, ret) => panic!("cannot record {op:?} -> {ret:?}"),
    }
}

const SINGLE_MAX: u16 = 11;

/// Decode a drained recording into a multi-object history, merging pair
/// halves. Refuses incomplete or torn recordings.
pub fn decode_multi(raw: &RawHistory) -> Result<MultiHistory, DecodeError> {
    if raw.lost_threads > 0 {
        return Err(DecodeError::LostThreads(raw.lost_threads));
    }
    if raw.dropped() > 0 {
        return Err(DecodeError::DroppedOps(raw.dropped()));
    }
    let mut lanes = Vec::with_capacity(raw.threads.len());
    for t in &raw.threads {
        let mut lane = Vec::with_capacity(t.items.len());
        let mut it = t.items.iter();
        while let Some(o) = it.next() {
            let (op, ret) = match o.op {
                OP_TRANSFER | OP_TRANSFER_REV => (
                    MOp::Transfer {
                        key: o.arg,
                        rev: o.op == OP_TRANSFER_REV,
                    },
                    MRet::One(Ret::Bool(o.ret != 0)),
                ),
                c if (1..=SINGLE_MAX).contains(&c) => {
                    let (op, ret) = dec_op(c, o.arg, o.ret).ok_or(DecodeError::UnknownOp(c))?;
                    (MOp::A(op), MRet::One(ret))
                }
                c if (OFF_B + 1..=OFF_B + SINGLE_MAX).contains(&c) => {
                    let (op, ret) =
                        dec_op(c - OFF_B, o.arg, o.ret).ok_or(DecodeError::UnknownOp(c))?;
                    (MOp::B(op), MRet::One(ret))
                }
                c if (OFF_PAIR_A + 1..=OFF_PAIR_A + SINGLE_MAX).contains(&c) => {
                    let (oa, ra) = dec_op(c - OFF_PAIR_A, o.arg, o.ret)
                        .ok_or(DecodeError::UnknownOp(c))?;
                    let m = it.next().ok_or(DecodeError::TornPair)?;
                    if !(OFF_PAIR_B + 1..=OFF_PAIR_B + SINGLE_MAX).contains(&m.op)
                        || m.inv != o.inv
                        || m.res != o.res
                    {
                        return Err(DecodeError::TornPair);
                    }
                    let (ob, rb) = dec_op(m.op - OFF_PAIR_B, m.arg, m.ret)
                        .ok_or(DecodeError::UnknownOp(m.op))?;
                    (MOp::Pair(oa, ob), MRet::Pair(ra, rb))
                }
                c => return Err(DecodeError::UnknownOp(c)),
            };
            lane.push(GHistOp {
                inv: o.inv,
                res: o.res,
                op,
                ret,
            });
        }
        lanes.push(lane);
    }
    Ok(MultiHistory { lanes })
}

// ---------------------------------------------------------------------------
// Exploration

/// How the composed operations of a harness run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComposedVariant {
    /// The default retry budget: most composed ops commit as one prefix.
    Pto,
    /// Zero attempts: every composed op takes the ordered-lock fallback,
    /// so the checker exercises the demoted path exclusively.
    Fallback,
    /// The self-tuning policy, tuned so contended call sites demote
    /// through the single-orec middle path quickly.
    Adaptive,
}

impl ComposedVariant {
    fn mode(self) -> Exec {
        match self {
            ComposedVariant::Pto => Exec::Static(PtoPolicy::default()),
            ComposedVariant::Fallback => Exec::Static(PtoPolicy::with_attempts(0)),
            ComposedVariant::Adaptive => Exec::Adaptive(
                AdaptivePolicy::new(PtoPolicy::with_attempts(1)).with_middle_streak(1),
            ),
        }
    }
}

/// A pair of live structures driven by a mixed single/composed workload.
/// `op` runs one operation and reports what happened; the explorer stamps
/// the interval around the whole call (a wider interval only weakens
/// precedence, which is sound).
pub trait PairHarness: Sync {
    fn op(&self, lane: usize, i: usize, rng: &mut XorShift64) -> (MOp, MRet);
}

/// A violation found while exploring a pair (not ddmin-minimized: the
/// multi-object vocabulary has no honest-deletion catalog yet, so the
/// full witness is reported).
#[derive(Clone, Debug)]
pub struct MultiViolation {
    pub schedule: u32,
    pub witness: MultiWitness,
}

/// The outcome of exploring one composed pair.
#[derive(Clone, Debug, Default)]
pub struct MultiReport {
    pub schedules_run: u32,
    pub ops_checked: u64,
    /// Composed ops (pairs + transfers) among those checked.
    pub composed_ops: u64,
    pub exhausted: u32,
    pub violation: Option<MultiViolation>,
}

impl MultiReport {
    pub fn all_linearizable(&self) -> bool {
        self.violation.is_none() && self.exhausted == 0
    }
}

/// Replay one seeded pair workload under `cfg.schedules` schedules and
/// check every history against the product spec.
pub fn explore_pair<S>(
    cfg: &ExploreCfg,
    make: &dyn Fn() -> Box<dyn PairHarness>,
    spec_of: &dyn Fn() -> S,
) -> MultiReport
where
    S: SeqSpec<Op = MOp, Ret = MRet>,
{
    let mut report = MultiReport::default();
    for idx in 0..cfg.schedules {
        let sched = derive_schedule(cfg, idx);
        let harness = make();
        let raw = record_raw(cfg, &sched, |lane, i, rng| {
            let inv = now();
            let (op, ret) = harness.op(lane, i, rng);
            record_mop(op, ret, inv, now());
        });
        let history = decode_multi(&raw).expect("pair histories record completely");
        report.schedules_run += 1;
        report.ops_checked += history.ops() as u64;
        report.composed_ops += history
            .lanes
            .iter()
            .flatten()
            .filter(|o| matches!(o.op, MOp::Pair(..) | MOp::Transfer { .. }))
            .count() as u64;
        let opts = CheckOpts {
            max_nodes: cfg.max_nodes,
            ..CheckOpts::for_quantum(sched.quantum)
        };
        match check(&history, spec_of(), opts) {
            GVerdict::Linearizable => {}
            GVerdict::Exhausted { .. } => report.exhausted += 1,
            GVerdict::NonLinearizable(witness) => {
                report.violation = Some(MultiViolation {
                    schedule: idx,
                    witness,
                });
                break;
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Shipped harnesses

/// msqueue → skiplist: composed pop-and-insert (a popped value lands in
/// the set atomically), plus enqueue singles (unique lane-tagged values)
/// and membership reads.
pub struct QueueSetHarness {
    q: MsQueue,
    set: SkipListSet,
    variant: ComposedVariant,
    lanes: u64,
    ops_per_lane: u64,
}

impl QueueSetHarness {
    pub fn new(variant: ComposedVariant, lanes: usize, ops_per_lane: usize) -> Self {
        QueueSetHarness {
            q: MsQueue::new_pto(),
            set: SkipListSet::new_pto(),
            variant,
            lanes: lanes as u64,
            ops_per_lane: ops_per_lane as u64,
        }
    }

    fn pop_insert(&self) -> (MOp, MRet) {
        let composed = Composed::new(
            vec![self.q.anchor(), self.set.anchor()],
            self.variant.mode(),
        );
        // Pin from handle construction through finish: the handle's
        // neighborhood snapshot must not be reclaimed under it.
        let g = epoch::pin();
        let ins = self.q.compose_peek().map(|v| self.set.compose_insert_begin(v, &g));
        // `u32::MAX` as the dummy marks the fallback path (which retires
        // its own dummy and links via the public insert).
        let outcome = composed.run(
            |tx| match self.q.tx_dequeue_raw(tx)? {
                None => Ok(None),
                Some((v, dummy)) => match &ins {
                    Some(h) if h.key() == v => {
                        let linked = self.set.tx_compose_insert(tx, h)?;
                        Ok(Some((v, dummy, linked)))
                    }
                    // The guess went stale (or the queue was empty at
                    // guess time): no prepared insert half for this value.
                    _ => Err(tx.abort(pto_core::ABORT_HELP)),
                },
            },
            || {
                self.q
                    .fallback_dequeue()
                    .map(|v| (v, u32::MAX, self.set.insert(v)))
            },
        );
        match outcome {
            None => {
                if let Some(h) = ins {
                    self.set.compose_insert_finish(h, false);
                }
                (MOp::A(Op::Dequeue), MRet::One(Ret::Opt(None)))
            }
            Some((v, dummy, linked)) => {
                let via_prefix = dummy != u32::MAX;
                if via_prefix {
                    self.q.compose_retire(dummy);
                }
                if let Some(h) = ins {
                    self.set.compose_insert_finish(h, via_prefix && linked);
                }
                (
                    MOp::Pair(Op::Dequeue, Op::Insert(v)),
                    MRet::Pair(Ret::Opt(Some(v)), Ret::Bool(linked)),
                )
            }
        }
    }
}

impl PairHarness for QueueSetHarness {
    fn op(&self, lane: usize, i: usize, rng: &mut XorShift64) -> (MOp, MRet) {
        match rng.below(10) {
            0..=3 => {
                let v = ((lane as u64) << 16) | i as u64;
                self.q.enqueue(v);
                (MOp::A(Op::Enqueue(v)), MRet::One(Ret::Unit))
            }
            4..=7 => self.pop_insert(),
            _ => {
                let k = (rng.below(self.lanes) << 16) | rng.below(self.ops_per_lane);
                let present = self.set.contains(k);
                (MOp::B(Op::Contains(k)), MRet::One(Ret::Bool(present)))
            }
        }
    }
}

/// Two hash tables holding disjoint token sets, linked by conditional
/// transfers in both directions (so concurrent transfers acquire the same
/// anchor pair from opposite argument orders) and audited by composed
/// double-contains reads.
pub struct TableTransferHarness {
    a: FSetHashTable,
    b: FSetHashTable,
    variant: ComposedVariant,
    tokens: u64,
}

impl TableTransferHarness {
    /// Tokens `0..tokens` start in table A.
    pub fn new(variant: ComposedVariant, tokens: u64) -> Self {
        let a = FSetHashTable::new(HashVariant::PtoInplace, 4);
        let b = FSetHashTable::new(HashVariant::PtoInplace, 4);
        for t in 0..tokens {
            a.insert(t);
        }
        TableTransferHarness {
            a,
            b,
            variant,
            tokens,
        }
    }

    fn transfer(&self, key: u64, rev: bool) -> (MOp, MRet) {
        let (src, dst) = if rev { (&self.b, &self.a) } else { (&self.a, &self.b) };
        let composed = Composed::new(vec![src.anchor(), dst.anchor()], self.variant.mode());
        let moved = composed.run(
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
        (MOp::Transfer { key, rev }, MRet::One(Ret::Bool(moved)))
    }

    fn audit(&self, key: u64) -> (MOp, MRet) {
        let composed = Composed::new(
            vec![self.a.anchor(), self.b.anchor()],
            self.variant.mode(),
        );
        let (ina, inb) = composed.run(
            |tx| {
                Ok((
                    self.a.tx_compose_contains(tx, key)?,
                    self.b.tx_compose_contains(tx, key)?,
                ))
            },
            || (self.a.contains(key), self.b.contains(key)),
        );
        (
            MOp::Pair(Op::Contains(key), Op::Contains(key)),
            MRet::Pair(Ret::Bool(ina), Ret::Bool(inb)),
        )
    }
}

impl PairHarness for TableTransferHarness {
    fn op(&self, _lane: usize, _i: usize, rng: &mut XorShift64) -> (MOp, MRet) {
        let key = rng.below(self.tokens);
        match rng.below(10) {
            0..=4 => {
                let rev = rng.below(2) == 1;
                self.transfer(key, rev)
            }
            5..=7 => self.audit(key),
            8 => {
                let present = self.a.contains(key);
                (MOp::A(Op::Contains(key)), MRet::One(Ret::Bool(present)))
            }
            _ => {
                let present = self.b.contains(key);
                (MOp::B(Op::Contains(key)), MRet::One(Ret::Bool(present)))
            }
        }
    }
}

/// Mound + hashtable order book: `place` pushes an order into the book
/// and registers it in the index atomically (the deterministic
/// transactional mound push), `fill` pops the best order and deregisters
/// it atomically.
pub struct OrderBookHarness {
    book: Mound,
    index: FSetHashTable,
    variant: ComposedVariant,
    keyspace: u64,
}

impl OrderBookHarness {
    pub fn new(variant: ComposedVariant, keyspace: u64) -> Self {
        OrderBookHarness {
            book: Mound::new_pto(10),
            index: FSetHashTable::new(HashVariant::PtoInplace, 4),
            variant,
            keyspace,
        }
    }

    fn place(&self, v: u32) -> (MOp, MRet) {
        let composed = Composed::new(
            vec![self.book.anchor(), self.index.anchor()],
            self.variant.mode(),
        );
        let cell = self.book.compose_alloc_cell();
        // The marker distinguishes the paths: only a committed prefix
        // publishes the pre-allocated cell.
        let (fresh, via_prefix) = composed.run(
            |tx| {
                self.book.tx_compose_push(tx, v, cell)?;
                let fresh = self.index.tx_compose_update(tx, v as u64, true)?;
                Ok((fresh, true))
            },
            || {
                self.book.push(v as u64);
                (self.index.insert(v as u64), false)
            },
        );
        if !via_prefix {
            self.book.compose_release_cell(cell);
        }
        (
            MOp::Pair(Op::Push(v as u64), Op::Insert(v as u64)),
            MRet::Pair(Ret::Unit, Ret::Bool(fresh)),
        )
    }

    fn fill(&self) -> (MOp, MRet) {
        let composed = Composed::new(
            vec![self.book.anchor(), self.index.anchor()],
            self.variant.mode(),
        );
        let outcome = composed.run(
            |tx| match self.book.tx_compose_pop(tx)? {
                None => Ok(None),
                Some((v, cell)) => {
                    let removed = self.index.tx_compose_update(tx, v as u64, false)?;
                    Ok(Some((v, cell, removed)))
                }
            },
            || {
                self.book
                    .pop_min()
                    .map(|v| (v as u32, u32::MAX, self.index.remove(v)))
            },
        );
        match outcome {
            None => (MOp::A(Op::PopMin), MRet::One(Ret::Opt(None))),
            Some((v, cell, removed)) => {
                if cell != u32::MAX {
                    self.book.compose_retire_cell(cell);
                }
                (
                    MOp::Pair(Op::PopMin, Op::Remove(v as u64)),
                    MRet::Pair(Ret::Opt(Some(v as u64)), Ret::Bool(removed)),
                )
            }
        }
    }
}

impl PairHarness for OrderBookHarness {
    fn op(&self, _lane: usize, _i: usize, rng: &mut XorShift64) -> (MOp, MRet) {
        match rng.below(10) {
            0..=3 => self.place(rng.below(self.keyspace) as u32),
            4..=7 => self.fill(),
            _ => {
                let k = rng.below(self.keyspace);
                let present = self.index.contains(k);
                (MOp::B(Op::Contains(k)), MRet::One(Ret::Bool(present)))
            }
        }
    }
}

/// Explore the msqueue→skiplist pop-and-insert pair.
pub fn explore_queue_set(cfg: &ExploreCfg, variant: ComposedVariant) -> MultiReport {
    let (lanes, opl) = (cfg.lanes, cfg.ops_per_lane);
    explore_pair(
        cfg,
        &move || Box::new(QueueSetHarness::new(variant, lanes, opl)) as Box<dyn PairHarness>,
        &|| PairSpec::new(crate::spec::FifoSpec::default(), SetSpec::default()),
    )
}

/// Explore the two-hashtable conditional-transfer pair.
pub fn explore_table_transfer(cfg: &ExploreCfg, variant: ComposedVariant) -> MultiReport {
    let tokens = cfg.keyspace;
    explore_pair(
        cfg,
        &move || Box::new(TableTransferHarness::new(variant, tokens)) as Box<dyn PairHarness>,
        &move || TransferSpec::with_prefill(0..tokens, std::iter::empty()),
    )
}

/// Explore the mound+hashtable order-book pair.
pub fn explore_order_book(cfg: &ExploreCfg, variant: ComposedVariant) -> MultiReport {
    let keyspace = cfg.keyspace;
    explore_pair(
        cfg,
        &move || Box::new(OrderBookHarness::new(variant, keyspace)) as Box<dyn PairHarness>,
        &|| PairSpec::new(crate::spec::PqSpec::default(), SetSpec::default()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FifoSpec;

    fn mop(inv: u64, res: u64, op: MOp, ret: MRet) -> GHistOp<MOp, MRet> {
        GHistOp { inv, res, op, ret }
    }

    fn strict() -> CheckOpts {
        CheckOpts {
            margin: 0,
            max_nodes: 1 << 20,
        }
    }

    #[test]
    fn pair_spec_applies_both_halves_atomically() {
        let mut s = PairSpec::new(FifoSpec::default(), SetSpec::default());
        assert_eq!(
            s.apply(0, MOp::A(Op::Enqueue(7))),
            MRet::One(Ret::Unit)
        );
        assert_eq!(
            s.apply(1, MOp::Pair(Op::Dequeue, Op::Insert(7))),
            MRet::Pair(Ret::Opt(Some(7)), Ret::Bool(true))
        );
        assert_eq!(
            s.apply(0, MOp::B(Op::Contains(7))),
            MRet::One(Ret::Bool(true))
        );
        assert_eq!(s.apply(0, MOp::A(Op::Dequeue)), MRet::One(Ret::Opt(None)));
    }

    #[test]
    fn transfer_spec_conserves_tokens() {
        let mut s = TransferSpec::with_prefill([1, 2], []);
        let t = |k, rev| MOp::Transfer { key: k, rev };
        assert_eq!(s.apply(0, t(1, false)), MRet::One(Ret::Bool(true)));
        // Already moved: the conditional transfer is a no-op.
        assert_eq!(s.apply(0, t(1, false)), MRet::One(Ret::Bool(false)));
        // Audit sees it in exactly one table.
        assert_eq!(
            s.apply(1, MOp::Pair(Op::Contains(1), Op::Contains(1))),
            MRet::Pair(Ret::Bool(false), Ret::Bool(true))
        );
        // And the reverse direction moves it back.
        assert_eq!(s.apply(0, t(1, true)), MRet::One(Ret::Bool(true)));
        assert_eq!(
            s.apply(1, MOp::Pair(Op::Contains(1), Op::Contains(1))),
            MRet::Pair(Ret::Bool(true), Ret::Bool(false))
        );
    }

    #[test]
    fn pair_wire_encoding_round_trips() {
        let session = pto_sim::history::HistorySession::arm();
        let ops = vec![
            mop(0, 5, MOp::A(Op::Enqueue(3)), MRet::One(Ret::Unit)),
            mop(
                6,
                9,
                MOp::Pair(Op::Dequeue, Op::Insert(3)),
                MRet::Pair(Ret::Opt(Some(3)), Ret::Bool(true)),
            ),
            mop(10, 12, MOp::B(Op::Contains(3)), MRet::One(Ret::Bool(true))),
            mop(
                13,
                20,
                MOp::Transfer { key: 9, rev: true },
                MRet::One(Ret::Bool(false)),
            ),
            mop(
                21,
                30,
                MOp::Pair(Op::PopMin, Op::Remove(4)),
                MRet::Pair(Ret::Opt(None), Ret::Bool(false)),
            ),
        ];
        for o in &ops {
            record_mop(o.op, o.ret, o.inv, o.res);
        }
        let decoded = decode_multi(&session.drain()).unwrap();
        assert_eq!(decoded.lanes.len(), 1);
        assert_eq!(decoded.lanes[0], ops);
    }

    #[test]
    fn split_pair_halves_are_caught() {
        // Token 1 starts in A. A transfer moved it (responded long before
        // the audit invoked), yet an atomic audit later sees it in
        // *neither* table: the transfer's halves were visibly split.
        let h = MultiHistory {
            lanes: vec![
                vec![mop(
                    0,
                    10,
                    MOp::Transfer { key: 1, rev: false },
                    MRet::One(Ret::Bool(true)),
                )],
                vec![mop(
                    100,
                    110,
                    MOp::Pair(Op::Contains(1), Op::Contains(1)),
                    MRet::Pair(Ret::Bool(false), Ret::Bool(false)),
                )],
            ],
        };
        let spec = TransferSpec::with_prefill([1], []);
        let v = check(&h, spec.clone(), strict());
        assert!(!v.is_linearizable(), "{v:?}");
        // The same audit seeing it in exactly one table linearizes.
        let mut ok = h.clone();
        ok.lanes[1][0].ret = MRet::Pair(Ret::Bool(false), Ret::Bool(true));
        assert!(check(&ok, spec, strict()).is_linearizable());
    }

    fn tiny() -> ExploreCfg {
        ExploreCfg {
            schedules: 2,
            ops_per_lane: 16,
            lanes: 2,
            keyspace: 8,
            ..ExploreCfg::default()
        }
    }

    #[test]
    fn queue_set_pair_explores_clean() {
        let _g = crate::explore::tests::serial();
        let report = explore_queue_set(&tiny(), ComposedVariant::Pto);
        assert!(report.all_linearizable(), "{report:?}");
        assert!(report.composed_ops > 0, "{report:?}");
    }

    #[test]
    fn table_transfer_pair_explores_clean_pto_and_fallback() {
        let _g = crate::explore::tests::serial();
        for variant in [ComposedVariant::Pto, ComposedVariant::Fallback] {
            let report = explore_table_transfer(&tiny(), variant);
            assert!(report.all_linearizable(), "{variant:?}: {report:?}");
            assert!(report.composed_ops > 0, "{variant:?}: {report:?}");
        }
    }

    #[test]
    fn order_book_pair_explores_clean_adaptive() {
        let _g = crate::explore::tests::serial();
        let report = explore_order_book(&tiny(), ComposedVariant::Adaptive);
        assert!(report.all_linearizable(), "{report:?}");
        assert!(report.composed_ops > 0, "{report:?}");
    }
}

//! Recorders: trait-object wrappers that log every operation into
//! [`pto_sim::history`] while forwarding to the real structure.
//!
//! Each wrapper brackets the forwarded call with two
//! [`pto_sim::now`] readings (reading the clock charges nothing) and
//! records `(op code, arg, encoded ret, inv, res)`. With no
//! [`HistorySession`](pto_sim::history::HistorySession) armed the record
//! call is a single relaxed load, so wrapping a structure perturbs
//! nothing when recording is off.
//!
//! [`decode`] turns a drained [`RawHistory`] back into the checker's typed
//! [`History`]; it refuses incomplete recordings (lost buffers or capacity
//! drops) because checking a subset of the real execution proves nothing.

use crate::spec::{Op, Ret};
use crate::wgl::{HistOp, History};
use pto_core::{ConcurrentSet, FifoQueue, PriorityQueue, Quiescence};
use pto_sim::history::{self, RawHistory};
use pto_sim::now;

// Operation codes on the wire (`pto_sim::history` stores them untyped).
const OP_INSERT: u16 = 1;
const OP_REMOVE: u16 = 2;
const OP_CONTAINS: u16 = 3;
const OP_ENQUEUE: u16 = 4;
const OP_DEQUEUE: u16 = 5;
const OP_PUSH: u16 = 6;
const OP_POP_MIN: u16 = 7;
const OP_PEEK_MIN: u16 = 8;
const OP_ARRIVE: u16 = 9;
const OP_DEPART: u16 = 10;
const OP_QUERY: u16 = 11;

/// `Option<u64>` on the wire: 0 is `None`, `v + 1` is `Some(v)`.
fn enc_opt(v: Option<u64>) -> u64 {
    match v {
        None => 0,
        Some(v) => v + 1,
    }
}

fn dec_opt(w: u64) -> Option<u64> {
    w.checked_sub(1)
}

/// Encode one typed operation as a wire record. The inverse of [`dec_op`];
/// multi-object recorders ([`crate::multi`]) offset the code to tag which
/// object of a pair the operation addressed.
pub(crate) fn enc_op(op: Op, ret: Ret) -> (u16, u64, u64) {
    match (op, ret) {
        (Op::Insert(k), Ret::Bool(b)) => (OP_INSERT, k, b as u64),
        (Op::Remove(k), Ret::Bool(b)) => (OP_REMOVE, k, b as u64),
        (Op::Contains(k), Ret::Bool(b)) => (OP_CONTAINS, k, b as u64),
        (Op::Enqueue(v), Ret::Unit) => (OP_ENQUEUE, v, 0),
        (Op::Dequeue, Ret::Opt(v)) => (OP_DEQUEUE, 0, enc_opt(v)),
        (Op::Push(v), Ret::Unit) => (OP_PUSH, v, 0),
        (Op::PopMin, Ret::Opt(v)) => (OP_POP_MIN, 0, enc_opt(v)),
        (Op::PeekMin, Ret::Opt(v)) => (OP_PEEK_MIN, 0, enc_opt(v)),
        (Op::Arrive(v), Ret::Unit) => (OP_ARRIVE, v, 0),
        (Op::Depart, Ret::Unit) => (OP_DEPART, 0, 0),
        (Op::Query, Ret::Val(v)) => (OP_QUERY, 0, v),
        (op, ret) => panic!("cannot encode {op:?} -> {ret:?}"),
    }
}

/// Decode one wire record into a typed operation, or `None` for an
/// unknown code.
pub(crate) fn dec_op(code: u16, arg: u64, ret: u64) -> Option<(Op, Ret)> {
    Some(match code {
        OP_INSERT => (Op::Insert(arg), Ret::Bool(ret != 0)),
        OP_REMOVE => (Op::Remove(arg), Ret::Bool(ret != 0)),
        OP_CONTAINS => (Op::Contains(arg), Ret::Bool(ret != 0)),
        OP_ENQUEUE => (Op::Enqueue(arg), Ret::Unit),
        OP_DEQUEUE => (Op::Dequeue, Ret::Opt(dec_opt(ret))),
        OP_PUSH => (Op::Push(arg), Ret::Unit),
        OP_POP_MIN => (Op::PopMin, Ret::Opt(dec_opt(ret))),
        OP_PEEK_MIN => (Op::PeekMin, Ret::Opt(dec_opt(ret))),
        OP_ARRIVE => (Op::Arrive(arg), Ret::Unit),
        OP_DEPART => (Op::Depart, Ret::Unit),
        OP_QUERY => (Op::Query, Ret::Val(ret)),
        _ => return None,
    })
}

/// A [`ConcurrentSet`] that records every operation.
pub struct RecordedSet<'a>(pub &'a dyn ConcurrentSet);

impl ConcurrentSet for RecordedSet<'_> {
    fn insert(&self, key: u64) -> bool {
        let inv = now();
        let r = self.0.insert(key);
        history::record(OP_INSERT, key, r as u64, inv, now());
        r
    }

    fn remove(&self, key: u64) -> bool {
        let inv = now();
        let r = self.0.remove(key);
        history::record(OP_REMOVE, key, r as u64, inv, now());
        r
    }

    fn contains(&self, key: u64) -> bool {
        let inv = now();
        let r = self.0.contains(key);
        history::record(OP_CONTAINS, key, r as u64, inv, now());
        r
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// A [`FifoQueue`] that records every operation.
pub struct RecordedFifo<'a>(pub &'a dyn FifoQueue);

impl FifoQueue for RecordedFifo<'_> {
    fn enqueue(&self, value: u64) {
        let inv = now();
        self.0.enqueue(value);
        history::record(OP_ENQUEUE, value, 0, inv, now());
    }

    fn dequeue(&self) -> Option<u64> {
        let inv = now();
        let r = self.0.dequeue();
        history::record(OP_DEQUEUE, 0, enc_opt(r), inv, now());
        r
    }
}

/// A [`PriorityQueue`] that records every operation.
pub struct RecordedPq<'a>(pub &'a dyn PriorityQueue);

impl PriorityQueue for RecordedPq<'_> {
    fn push(&self, key: u64) {
        let inv = now();
        self.0.push(key);
        history::record(OP_PUSH, key, 0, inv, now());
    }

    fn pop_min(&self) -> Option<u64> {
        let inv = now();
        let r = self.0.pop_min();
        history::record(OP_POP_MIN, 0, enc_opt(r), inv, now());
        r
    }

    fn peek_min(&self) -> Option<u64> {
        let inv = now();
        let r = self.0.peek_min();
        history::record(OP_PEEK_MIN, 0, enc_opt(r), inv, now());
        r
    }
}

/// A [`Quiescence`] object that records every operation.
pub struct RecordedQui<'a>(pub &'a dyn Quiescence);

impl Quiescence for RecordedQui<'_> {
    fn arrive(&self, value: u64) {
        let inv = now();
        self.0.arrive(value);
        history::record(OP_ARRIVE, value, 0, inv, now());
    }

    fn depart(&self) {
        let inv = now();
        self.0.depart();
        history::record(OP_DEPART, 0, 0, inv, now());
    }

    fn query(&self) -> u64 {
        let inv = now();
        let r = self.0.query();
        history::record(OP_QUERY, 0, r, inv, now());
        r
    }
}

/// Errors turning a raw recording into a checkable history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffers were created but never collected; the recording is a
    /// subset of the execution and checking it proves nothing.
    LostThreads(u64),
    /// Per-thread capacity overflowed and records were discarded.
    DroppedOps(u64),
    /// An operation code this decoder does not know.
    UnknownOp(u16),
    /// A composed pair's first half was recorded without its second half
    /// immediately following (multi-object histories only).
    TornPair,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::LostThreads(n) => {
                write!(f, "history incomplete: {n} thread buffer(s) lost (missing flush?)")
            }
            DecodeError::DroppedOps(n) => {
                write!(f, "history incomplete: {n} op(s) dropped at capacity")
            }
            DecodeError::UnknownOp(c) => write!(f, "unknown op code {c}"),
            DecodeError::TornPair => {
                write!(f, "pair half recorded without its mate")
            }
        }
    }
}

/// Decode a drained recording into a typed [`History`] (one checker lane
/// per recorded thread, in thread-creation order). Refuses incomplete
/// recordings.
pub fn decode(raw: &RawHistory) -> Result<History, DecodeError> {
    if raw.lost_threads > 0 {
        return Err(DecodeError::LostThreads(raw.lost_threads));
    }
    if raw.dropped() > 0 {
        return Err(DecodeError::DroppedOps(raw.dropped()));
    }
    let mut lanes = Vec::with_capacity(raw.threads.len());
    for t in &raw.threads {
        let mut lane = Vec::with_capacity(t.items.len());
        for o in &t.items {
            let (op, ret) = dec_op(o.op, o.arg, o.ret).ok_or(DecodeError::UnknownOp(o.op))?;
            lane.push(HistOp {
                inv: o.inv,
                res: o.res,
                op,
                ret,
            });
        }
        lanes.push(lane);
    }
    Ok(History { lanes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_encoding_round_trips() {
        for v in [None, Some(0), Some(1), Some(u64::MAX - 1)] {
            assert_eq!(dec_opt(enc_opt(v)), v);
        }
    }

    #[test]
    fn unknown_code_is_rejected() {
        assert_eq!(dec_op(999, 0, 0), None);
    }

    #[test]
    fn decode_refuses_incomplete_recordings() {
        let lost = RawHistory {
            threads: vec![],
            lost_threads: 2,
        };
        assert_eq!(decode(&lost), Err(DecodeError::LostThreads(2)));
    }
}

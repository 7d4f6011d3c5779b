//! Outcome checks. Each returns the number of failed checks instead of
//! panicking, so a wrong answer lands in `failed` and `failed_op_share`.
//!
//! Outcomes are one `u64` per op, recorded in stream order per lane:
//! sets and transfers record `0`/`1`, audits record `in_a | in_b << 1`,
//! pops record the key or [`NONE`].

use crate::workload::{Op, AUDIT, CONTAINS, INSERT, POP, PUSH, REMOVE, TRANSFER_AB, TRANSFER_BA};

/// Outcome of a `pop_min` on an empty queue.
pub const NONE: u64 = u64::MAX;

/// Sets: after quiescence, initial membership + successful inserts −
/// successful removes must equal the final `contains`, key by key (one
/// failure per key that disagrees). On a single lane the history is
/// sequential, so every op's answer is also replayed against a model (one
/// failure per op that disagrees).
pub fn set_ops(initial: &[bool], lanes: &[Vec<Op>], outcomes: &[Vec<u64>], fin: &[bool]) -> u64 {
    let mut failed = 0;
    let mut net: Vec<i64> = initial.iter().map(|&b| b as i64).collect();
    for (ops, outs) in lanes.iter().zip(outcomes) {
        for (op, &r) in ops.iter().zip(outs) {
            let k = op.key as usize;
            match (op.kind, r) {
                (INSERT, 1) => net[k] += 1,
                (REMOVE, 1) => net[k] -= 1,
                _ => {}
            }
        }
    }
    failed += net
        .iter()
        .zip(fin)
        .filter(|&(&n, &f)| n != f as i64)
        .count() as u64;
    if let [ops] = lanes {
        let mut model = initial.to_vec();
        for (op, &r) in ops.iter().zip(&outcomes[0]) {
            let k = op.key as usize;
            let want = match op.kind {
                CONTAINS => model[k],
                INSERT => !std::mem::replace(&mut model[k], true),
                REMOVE => std::mem::replace(&mut model[k], false),
                other => panic!("set stream holds op kind {other}"),
            };
            failed += (r != want as u64) as u64;
        }
    }
    failed
}

/// Bank: every audit saw its token in exactly one bank; after the run
/// every token is in exactly one bank, and in bank B exactly when its
/// successful A→B transfers outnumber its B→A ones by one (all tokens
/// start in A).
pub fn bank(lanes: &[Vec<Op>], outcomes: &[Vec<u64>], fin_a: &[bool], fin_b: &[bool]) -> u64 {
    let mut failed = 0;
    let mut net = vec![0i64; fin_a.len()];
    for (ops, outs) in lanes.iter().zip(outcomes) {
        for (op, &r) in ops.iter().zip(outs) {
            let t = op.key as usize;
            match op.kind {
                TRANSFER_AB => net[t] += r as i64,
                TRANSFER_BA => net[t] -= r as i64,
                AUDIT => failed += (r != 1 && r != 2) as u64,
                other => panic!("bank stream holds op kind {other}"),
            }
        }
    }
    for t in 0..fin_a.len() {
        let placed = fin_a[t] != fin_b[t];
        let moved = net[t] == fin_b[t] as i64;
        failed += (!placed || !moved) as u64;
    }
    failed
}

/// Mound: every popped key was pushed, and key by key, pushed = popped +
/// drained remainder. The drain runs after quiescence, so it must come
/// out in ascending order (one failure per descent).
pub fn mound(
    range: usize,
    prefill: &[u32],
    lanes: &[Vec<Op>],
    outcomes: &[Vec<u64>],
    drained: &[u64],
) -> u64 {
    let mut failed = 0;
    let mut bal = vec![0i64; range];
    for &k in prefill {
        bal[k as usize] += 1;
    }
    let mut take = |k: u64, bal: &mut Vec<i64>| match bal.get_mut(k as usize) {
        Some(b) => *b -= 1,
        None => failed += 1,
    };
    for (ops, outs) in lanes.iter().zip(outcomes) {
        for (op, &r) in ops.iter().zip(outs) {
            match op.kind {
                PUSH => bal[op.key as usize] += 1,
                POP if r != NONE => take(r, &mut bal),
                POP => {}
                other => panic!("mound stream holds op kind {other}"),
            }
        }
    }
    for &k in drained {
        take(k, &mut bal);
    }
    failed += drained.windows(2).filter(|w| w[0] > w[1]).count() as u64;
    failed + bal.iter().filter(|&&b| b != 0).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: u8, key: u32) -> Op {
        Op { kind, key }
    }

    #[test]
    fn set_check_counts_a_fabricated_wrong_answer() {
        let initial = [true, false];
        let lanes = vec![vec![op(INSERT, 1), op(CONTAINS, 0), op(REMOVE, 0)]];
        let good = vec![vec![1, 1, 1]];
        let fin = [false, true];
        assert_eq!(set_ops(&initial, &lanes, &good, &fin), 0);
        // A lookup that answered "absent" for a present key.
        let bad = vec![vec![1, 0, 1]];
        assert_eq!(set_ops(&initial, &lanes, &bad, &fin), 1);
        // A remove that claims success on two lanes for one present key:
        // the per-key balance goes negative.
        let two = vec![vec![op(REMOVE, 0)], vec![op(REMOVE, 0)]];
        assert_eq!(
            set_ops(&initial, &two, &[vec![1], vec![1]], &[false, false]),
            1
        );
    }

    #[test]
    fn bank_check_counts_a_torn_audit_and_a_lost_token() {
        let lanes = vec![vec![op(TRANSFER_AB, 0), op(AUDIT, 0)], vec![op(AUDIT, 1)]];
        let fin_a = [false, true];
        let fin_b = [true, false];
        assert_eq!(bank(&lanes, &[vec![1, 2], vec![1]], &fin_a, &fin_b), 0);
        // An audit that saw token 1 in both banks.
        assert_eq!(bank(&lanes, &[vec![1, 2], vec![3]], &fin_a, &fin_b), 1);
        // Token 0 vanished from both banks after the run.
        assert_eq!(
            bank(
                &lanes,
                &[vec![1, 2], vec![1]],
                &[false, true],
                &[false, false]
            ),
            1
        );
    }

    #[test]
    fn mound_check_counts_an_invented_key_and_a_lost_key() {
        let lanes = vec![vec![op(PUSH, 3), op(POP, 0)]];
        assert_eq!(mound(8, &[1], &lanes, &[vec![0, 1]], &[3]), 0);
        // Popped 5, which nobody pushed; 1 is now never accounted for.
        assert_eq!(mound(8, &[1], &lanes, &[vec![0, 5]], &[3]), 2);
        // The drain lost key 3 and came out of order.
        assert_eq!(mound(8, &[1, 2], &lanes, &[vec![0, 1]], &[2, 1]), 3);
    }
}

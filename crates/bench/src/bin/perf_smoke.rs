//! Wallclock microbenchmarks of the simulator's hot paths.
//!
//! Everything this workspace measures is *virtual* time; this binary is the
//! one place that times *wallclock* — the harness overhead that bounds how
//! many trials, lanes, and sweeps the figure harnesses can afford (see
//! DESIGN.md §2.2, "two clocks"). It times each wallclock hot path in
//! isolation plus a miniature `run_all`, and *appends* a timestamped run
//! record to the `history` array of `BENCH_sim.json` (schema v3) alongside
//! the pre-PR-4 baseline recorded on the same host — so the file carries
//! the whole perf trajectory of this checkout, not just the latest run.
//! A v2 (or corrupt) file is replaced by a fresh v3 file with a one-entry
//! history; the array is capped at the most recent [`HISTORY_CAP`] runs.
//! Records sharing a `(mode, unix_ts)` identity are re-runs of the same
//! measurement and are deduplicated (newest wins) rather than appended,
//! and a soft regression rail prints a warning when a just-measured
//! metric is more than [`RAIL_FACTOR`]× worse than its median over the
//! last [`RAIL_WINDOW`] comparable records — a visible nudge, never a hard
//! failure, because wallclock on shared hosts is noise. Each record
//! carries its mode and a host fingerprint (`nproc`, `cpu_model`), and a
//! record is comparable only when all three match this run: check-mode
//! history says nothing about a full-mode run, nor one host about another.
//!
//! Paths timed:
//!
//! * `charge_1lane` — `clock::charge_cycles` with a gate attached but no
//!   peers: the pure thread-local fast path.
//! * `charge_sync` — 4 balanced lanes crossing quantum boundaries: the
//!   clock fast path plus `Gate::sync` publishing/min-tracking.
//! * `txn` — uncontended read/write transactions (descriptor setup,
//!   read/write-set handling, commit locking).
//! * `pool` — alloc/free_now churn plus retire/drain (free-list and limbo
//!   handling).
//! * `mini_run_all` — a scaled-down slice of the real figure sweep
//!   (setbench/pqbench/mbench over lock-free and PTO variants at 1 and 4
//!   lanes), i.e. the composition of all of the above.
//! * `gate_lanes` — the lanes-scaling series: balanced lanes charging in
//!   lockstep at 8, 64, and 256 lanes, reporting ns per charge (the
//!   per-crossing gate overhead) and the virtual makespan. With the
//!   tournament-tree gate the per-charge cost stays roughly flat as the
//!   machine grows; the old flat `cached_min` rescan made it linear
//!   (≈32× from 8 to 256 lanes), which is what this series watches for.
//!
//! Run with `--check` for the premerge gate: reduced iteration counts, the
//! emitted JSON is re-read and the *latest* history record structurally
//! validated, the lanes series
//! must stay far from the linear-rescan regime (a loose 8× backstop —
//! wallclock on shared CI hosts is noise; the trajectory is for humans),
//! and a small sharded sweep is replayed inline to assert the cell runner
//! returns byte-identical per-cell results to sequential execution.

use pto_bench::drivers::{mbench, pqbench, setbench};
use pto_htm::{transaction, TxWord};
use pto_mem::Pool;
use pto_sim::{json, Sim};
use std::time::Instant;

/// Pre-PR-4 baseline: a build of commit 67d054d (the seed of this PR)
/// with this binary grafted in, run *interleaved* with the optimized
/// build on the same host (3 alternating pairs, medians taken) so host
/// drift cannot masquerade as speedup. ns/op for the microbenches,
/// seconds for the mini sweep.
const BASELINE_RECORDED_AT: &str = "pre-PR4 (commit 67d054d, interleaved A/B medians)";
const BASELINE_CHARGE_1LANE_NS: f64 = 5.17;
const BASELINE_CHARGE_SYNC_NS: f64 = 23.82;
const BASELINE_TXN_NS: f64 = 198.26;
const BASELINE_POOL_NS: f64 = 59.93;
const BASELINE_MINI_RUN_ALL_S: f64 = 0.338;

struct Scale {
    charge_iters: u64,
    txn_iters: u64,
    pool_iters: u64,
    mini_ops: u64,
    lane_iters: u64,
}

const FULL: Scale = Scale {
    charge_iters: 4_000_000,
    txn_iters: 400_000,
    pool_iters: 1_000_000,
    mini_ops: 3_000,
    lane_iters: 20_000,
};

const CHECK: Scale = Scale {
    charge_iters: 200_000,
    txn_iters: 20_000,
    pool_iters: 50_000,
    mini_ops: 60,
    lane_iters: 2_000,
};

/// The lanes axis of the scaling series (8 = the paper's machine,
/// 64/256 = the ROADMAP's server scale).
const LANES_SERIES: [usize; 3] = [8, 64, 256];

/// Most recent run records kept in the `history` array.
const HISTORY_CAP: usize = 50;

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// One lane under the gate, pure charge loop: ns per `charge_cycles`.
fn bench_charge_1lane(iters: u64) -> f64 {
    let (s, _) = time(|| {
        Sim::new(1).run(|_| {
            for _ in 0..iters {
                pto_sim::charge_cycles(3);
            }
        })
    });
    s * 1e9 / iters as f64
}

/// Four balanced lanes crossing quantum boundaries: ns per charge,
/// including the lanes' `Gate::sync` traffic.
fn bench_charge_sync(iters_per_lane: u64) -> f64 {
    const LANES: u64 = 4;
    let (s, _) = time(|| {
        Sim::new(LANES as usize).run(|_| {
            for _ in 0..iters_per_lane {
                pto_sim::charge_cycles(3);
            }
        })
    });
    s * 1e9 / (iters_per_lane * LANES) as f64
}

/// Uncontended transactions: 8 reads + 4 writes each, ns per transaction.
fn bench_txn(iters: u64) -> f64 {
    let words: Vec<TxWord> = (0..8).map(TxWord::new).collect();
    let (s, _) = time(|| {
        for _ in 0..iters {
            let r = transaction(|tx| {
                let mut acc = 0;
                for w in &words {
                    acc += tx.read(w)?;
                }
                for w in &words[..4] {
                    tx.write(w, acc)?;
                }
                Ok(acc)
            });
            std::hint::black_box(r.unwrap());
        }
    });
    s * 1e9 / iters as f64
}

/// Pool churn: alloc/free_now pairs with a retire every 16th round,
/// ns per alloc+free pair.
fn bench_pool(iters: u64) -> f64 {
    #[derive(Default)]
    struct Node {
        _w: TxWord,
    }
    let pool: Pool<Node> = Pool::new();
    let (s, _) = time(|| {
        for i in 0..iters {
            let idx = pool.alloc();
            if i % 16 == 0 {
                pool.retire(idx);
            } else {
                pool.free_now(idx);
            }
        }
    });
    s * 1e9 / iters as f64
}

/// A miniature `run_all`: one slice of each driver family over lock-free
/// and PTO variants at 1 and 4 lanes. Returns total seconds.
fn bench_mini_run_all(ops: u64) -> f64 {
    use pto_list::{HarrisList, ListVariant};
    use pto_mindicator::{LockFreeMindicator, PtoMindicator};
    use pto_mound::Mound;
    use pto_skiplist::SkipListSet;
    let (s, _) = time(|| {
        for &n in &[1usize, 4] {
            std::hint::black_box(setbench(
                SkipListSet::new_lockfree,
                n,
                ops,
                512,
                34,
                42,
            ));
            std::hint::black_box(setbench(SkipListSet::new_pto, n, ops, 512, 34, 42));
            std::hint::black_box(setbench(
                || HarrisList::new(ListVariant::PtoWhole),
                n,
                ops,
                128,
                34,
                42,
            ));
            std::hint::black_box(pqbench(|| Mound::new_pto(16), n, ops, 1024, 7));
            std::hint::black_box(mbench(|| LockFreeMindicator::new(64), n, ops, 4096, 3));
            std::hint::black_box(mbench(|| PtoMindicator::new(64), n, ops, 4096, 3));
        }
    });
    s
}

/// One point of the lanes-scaling series: `lanes` balanced lanes each
/// charge `iters` 3-cycle granules, so every lane crosses a quantum
/// boundary every ~67 charges and the whole machine advances in lockstep
/// rotations. Returns (ns per charge across all lanes, virtual makespan).
/// The makespan is deterministic — lane-private work, so it is exactly
/// `3 * iters` regardless of lane count — and doubles as a cheap golden.
fn bench_gate_lanes(lanes: usize, iters: u64) -> (f64, u64) {
    let (s, out) = time(|| {
        Sim::new(lanes).run(|_| {
            for _ in 0..iters {
                pto_sim::charge_cycles(3);
            }
        })
    });
    (s * 1e9 / (iters * lanes as u64) as f64, out.makespan)
}

/// Replay a small sweep of deterministic simulation cells both through
/// the sharded cell runner and inline on this thread, and assert the
/// per-cell outputs (virtual-time results *and* scoped HTM counters) are
/// identical. This is the premerge face of the tentpole determinism
/// claim; `pto-bench`'s unit tests assert the same property.
fn check_sharded_determinism() {
    use pto_bench::cells;
    use pto_htm::{transaction, TxWord};
    let body = |i: &u64| {
        let reps = 40 + *i % 7;
        let out = Sim::new(4).run(|lane| {
            for _ in 0..(reps + lane as u64) {
                pto_sim::charge_cycles(3);
            }
            let w = TxWord::new(0);
            let _ = transaction(|tx| tx.read(&w));
        });
        (out.makespan, out.per_thread)
    };
    let items: Vec<u64> = (0..8).collect();
    let sharded = cells::sweep(items.clone(), |i| cells::cell_key("smoke-det", *i), body);
    for (i, a) in items.iter().zip(&sharded) {
        let b = cells::run_scoped(cells::cell_key("smoke-det", *i), || body(i));
        assert_eq!(a.value, b.value, "cell {i}: sharded virtual-time result diverged");
        assert_eq!(a.htm, b.htm, "cell {i}: sharded scoped HTM counters diverged");
    }
    println!("sharded cells byte-identical to sequential ({} cells)", sharded.len());
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "null".to_string()
    } else {
        format!("{v:.2}")
    }
}

/// Re-serialize a parsed [`json::Value`] (compact, insertion order kept).
/// Used to carry the prior history records into the rewritten file.
fn value_to_json(v: &json::Value, out: &mut String) {
    match v {
        json::Value::Null => out.push_str("null"),
        json::Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        json::Value::Num(n) => {
            // Integers (timestamps, makespans) must round-trip clean.
            if n.fract() == 0.0 && n.abs() < 9e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        json::Value::Str(s) => {
            out.push('"');
            out.push_str(&json::escape(s));
            out.push('"');
        }
        json::Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                value_to_json(item, out);
            }
            out.push(']');
        }
        json::Value::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                out.push_str(&json::escape(k));
                out.push_str("\": ");
                value_to_json(val, out);
            }
            out.push('}');
        }
    }
}

/// The parsed history records of an existing v3 `BENCH_sim.json`,
/// oldest first. A missing, corrupt, or pre-v3 file yields an empty
/// history (the trajectory restarts rather than blocking the run).
fn prior_history() -> Vec<json::Value> {
    let Ok(text) = std::fs::read_to_string("BENCH_sim.json") else {
        return Vec::new();
    };
    let Ok(v) = json::Value::parse(&text) else {
        println!("  (existing BENCH_sim.json unparseable — starting a fresh history)");
        return Vec::new();
    };
    if v.get("schema").and_then(|s| s.as_str()) != Some("pto-perf-smoke-v3") {
        println!("  (existing BENCH_sim.json pre-v3 — starting a fresh history)");
        return Vec::new();
    }
    match v.get("history").and_then(|h| h.as_arr()) {
        Some(records) => records.to_vec(),
        None => Vec::new(),
    }
}

/// Identity of a run record for dedupe: two records from the same second
/// in the same mode are re-runs of the same measurement, not two points
/// of the trajectory.
fn record_key(r: &json::Value) -> Option<(String, u64)> {
    let mode = r.get("mode")?.as_str()?.to_string();
    let ts = r.get("unix_ts")?.as_f64()? as u64;
    Some((mode, ts))
}

/// Append `record` to `history`, *replacing* (in place) any existing
/// record with the same `(mode, unix_ts)` identity: repeated premerge
/// runs within one second must not duplicate trajectory points. Applied
/// to every record so a previously-duplicated file heals on rewrite.
fn push_deduped(history: &mut Vec<json::Value>, record: json::Value) {
    if let Some(key) = record_key(&record) {
        if let Some(slot) = history.iter().position(|r| record_key(r) == Some(key.clone())) {
            history[slot] = record;
            return;
        }
    }
    history.push(record);
}

/// This host's fingerprint: logical CPU count and CPU model name (from
/// `/proc/cpuinfo`; `"unknown"` where that is unreadable).
fn host_fingerprint() -> (u64, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}

/// The history records a run in `mode` on host `(nproc, cpu_model)` may
/// be compared against: same mode, same fingerprint, oldest first.
/// Records written before records carried a fingerprint never match.
fn comparable<'a>(
    history: &'a [json::Value],
    mode: &str,
    (nproc, cpu_model): (u64, &str),
) -> Vec<&'a json::Value> {
    history
        .iter()
        .filter(|r| {
            r.get("mode").and_then(|m| m.as_str()) == Some(mode)
                && r.get("nproc").and_then(|n| n.as_f64()) == Some(nproc as f64)
                && r.get("cpu_model").and_then(|c| c.as_str()) == Some(cpu_model)
        })
        .collect()
}

/// How many trailing history records the soft regression rail medians over.
const RAIL_WINDOW: usize = 10;
/// A current metric more than this factor worse than its trailing median
/// prints a warning (never fails: wallclock on shared hosts is noise).
const RAIL_FACTOR: f64 = 1.5;

/// Soft regression rail: compare each just-measured metric against the
/// median of the same metric over the last [`RAIL_WINDOW`] history
/// records (already filtered by [`comparable`]), and *warn* when it is
/// more than [`RAIL_FACTOR`]× worse. Wallclock on a shared CI host is far
/// too noisy for a hard gate, but a sustained regression shows up here
/// without anyone diffing the file.
fn soft_regression_rail(history: &[&json::Value], current: &[(&str, f64)]) {
    let recent = &history[history.len().saturating_sub(RAIL_WINDOW)..];
    for &(key, now) in current {
        let mut prior: Vec<f64> = recent
            .iter()
            .filter_map(|r| r.get("current")?.get(key)?.as_f64())
            .filter(|v| v.is_finite() && *v > 0.0)
            .collect();
        if prior.is_empty() || !now.is_finite() {
            continue;
        }
        prior.sort_by(|a, b| a.total_cmp(b));
        let median = prior[prior.len() / 2];
        if now > RAIL_FACTOR * median {
            println!(
                "  WARN: {key} = {now:.2} is {:.2}x the trailing median {median:.2} \
                 (> {RAIL_FACTOR}x rail, {} prior run(s))",
                now / median,
                prior.len()
            );
        }
    }
}

fn ratio(baseline: f64, current: f64) -> f64 {
    if baseline.is_nan() || current <= 0.0 {
        f64::NAN
    } else {
        baseline / current
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let scale = if check { &CHECK } else { &FULL };
    let mode = if check { "check" } else { "full" };
    println!("perf_smoke ({mode} mode) — wallclock hot-path microbenches");

    let charge_1lane = bench_charge_1lane(scale.charge_iters);
    println!("  charge_1lane : {charge_1lane:8.2} ns/op");
    let charge_sync = bench_charge_sync(scale.charge_iters / 4);
    println!("  charge_sync  : {charge_sync:8.2} ns/op");
    let txn = bench_txn(scale.txn_iters);
    println!("  txn          : {txn:8.2} ns/op");
    let pool = bench_pool(scale.pool_iters);
    println!("  pool         : {pool:8.2} ns/op");
    let mini = bench_mini_run_all(scale.mini_ops);
    println!("  mini_run_all : {mini:8.3} s");

    let lanes_points: Vec<(usize, f64, u64)> = LANES_SERIES
        .iter()
        .map(|&lanes| {
            let (ns, makespan) = bench_gate_lanes(lanes, scale.lane_iters);
            println!("  gate@{lanes:<4} lanes: {ns:8.2} ns/charge, makespan {makespan}");
            (lanes, ns, makespan)
        })
        .collect();
    let lanes_ratio = lanes_points[2].1 / lanes_points[0].1;
    println!(
        "  gate scaling : 256-lane charge costs {lanes_ratio:.2}x the 8-lane charge \
         (linear rescan would be ~32x)"
    );

    let lanes_json: String = lanes_points
        .iter()
        .map(|(lanes, ns, makespan)| {
            format!(
                "    {{ \"lanes\": {lanes}, \"gate_ns_per_charge\": {}, \"makespan\": {makespan} }}",
                fmt_f64(*ns)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // A run record: everything measured this run, timestamped. The
    // baseline lives once at the top level; history entries are deltas
    // against it.
    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (nproc, cpu_model) = host_fingerprint();
    let record_json = format!(
        "{{\"mode\": \"{mode}\", \"unix_ts\": {unix_ts}, \
         \"nproc\": {nproc}, \"cpu_model\": \"{cpu}\", \
         \"current\": {{\"charge_1lane_ns\": {c1}, \"charge_sync_ns\": {cs}, \
         \"txn_ns\": {ct}, \"pool_ns\": {cp}, \"mini_run_all_s\": {cm}}}, \
         \"speedup\": {{\"charge_1lane\": {s1}, \"charge_sync\": {ss}, \
         \"txn\": {st}, \"pool\": {sp}, \"mini_run_all\": {sm}}}, \
         \"lanes\": [{lanes_json}]}}",
        c1 = fmt_f64(charge_1lane),
        cs = fmt_f64(charge_sync),
        ct = fmt_f64(txn),
        cp = fmt_f64(pool),
        cm = fmt_f64(mini),
        s1 = fmt_f64(ratio(BASELINE_CHARGE_1LANE_NS, charge_1lane)),
        ss = fmt_f64(ratio(BASELINE_CHARGE_SYNC_NS, charge_sync)),
        st = fmt_f64(ratio(BASELINE_TXN_NS, txn)),
        sp = fmt_f64(ratio(BASELINE_POOL_NS, pool)),
        sm = fmt_f64(ratio(BASELINE_MINI_RUN_ALL_S, mini)),
        cpu = json::escape(&cpu_model),
        lanes_json = lanes_json.replace('\n', " ").replace("    ", ""),
    );

    let prior = prior_history();
    let like = comparable(&prior, mode, (nproc, &cpu_model));
    println!(
        "  soft rail: {} of {} prior record(s) match this mode and host",
        like.len(),
        prior.len()
    );
    soft_regression_rail(
        &like,
        &[
            ("charge_1lane_ns", charge_1lane),
            ("charge_sync_ns", charge_sync),
            ("txn_ns", txn),
            ("pool_ns", pool),
            ("mini_run_all_s", mini),
        ],
    );

    // Rebuild the history with the per-(mode, unix_ts) dedupe so a file
    // that already carries duplicates heals, then append this run.
    let mut history: Vec<json::Value> = Vec::new();
    for r in prior {
        push_deduped(&mut history, r);
    }
    let record =
        json::Value::parse(&record_json).expect("perf_smoke emitted an unparseable record");
    push_deduped(&mut history, record);
    if history.len() > HISTORY_CAP {
        let drop = history.len() - HISTORY_CAP;
        history.drain(..drop);
    }
    let history_json = history
        .iter()
        .map(|r| {
            let mut s = String::new();
            value_to_json(r, &mut s);
            format!("    {s}")
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json_text = format!(
        "{{\n  \"schema\": \"pto-perf-smoke-v3\",\n  \
         \"baseline\": {{\n    \"recorded_at\": \"{rec}\",\n    \
         \"charge_1lane_ns\": {b1},\n    \"charge_sync_ns\": {bs},\n    \
         \"txn_ns\": {bt},\n    \"pool_ns\": {bp},\n    \"mini_run_all_s\": {bm}\n  }},\n  \
         \"history\": [\n{history_json}\n  ]\n}}\n",
        rec = BASELINE_RECORDED_AT,
        b1 = fmt_f64(BASELINE_CHARGE_1LANE_NS),
        bs = fmt_f64(BASELINE_CHARGE_SYNC_NS),
        bt = fmt_f64(BASELINE_TXN_NS),
        bp = fmt_f64(BASELINE_POOL_NS),
        bm = fmt_f64(BASELINE_MINI_RUN_ALL_S),
    );
    std::fs::write("BENCH_sim.json", &json_text).expect("writing BENCH_sim.json");
    println!("wrote BENCH_sim.json ({} run(s) in history)", history.len());

    // Structural self-check: the emitted file must parse, keep the schema
    // and baseline, and the *latest* history record must carry every
    // expected member. This is the whole premerge gate — wallclock numbers
    // on shared hosts are noise, so no thresholds.
    let reread = std::fs::read_to_string("BENCH_sim.json").expect("re-reading BENCH_sim.json");
    let v = json::Value::parse(&reread).expect("BENCH_sim.json must be valid JSON");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("pto-perf-smoke-v3"),
        "BENCH_sim.json schema marker"
    );
    let latest = v
        .get("history")
        .and_then(|h| h.as_arr())
        .and_then(|h| h.last())
        .expect("BENCH_sim.json history must not be empty");
    assert!(
        latest.get("unix_ts").and_then(|t| t.as_f64()).is_some(),
        "latest history record missing unix_ts"
    );
    for (owner, section) in [(&v, "baseline"), (latest, "current"), (latest, "speedup")] {
        let s = owner
            .get(section)
            .unwrap_or_else(|| panic!("BENCH_sim.json missing \"{section}\""));
        for key in ["charge_1lane", "charge_sync", "txn", "pool", "mini_run_all"] {
            let full_key = match section {
                "speedup" => key.to_string(),
                _ if key == "mini_run_all" => format!("{key}_s"),
                _ => format!("{key}_ns"),
            };
            assert!(
                s.get(&full_key).is_some(),
                "BENCH_sim.json missing {section}.{full_key}"
            );
        }
    }
    // The history must be a clean trajectory: timestamps non-decreasing,
    // and no two records sharing a (mode, unix_ts) identity (the dedupe
    // above guarantees both; this catches a regression in it).
    let all_records = v
        .get("history")
        .and_then(|h| h.as_arr())
        .expect("BENCH_sim.json history must be an array");
    let mut keys_seen = Vec::new();
    let mut prev_ts = 0u64;
    for r in all_records {
        if let Some(key) = record_key(r) {
            assert!(
                key.1 >= prev_ts,
                "history timestamps went backwards ({} after {prev_ts})",
                key.1
            );
            prev_ts = key.1;
            assert!(
                !keys_seen.contains(&key),
                "duplicate history record for (mode, unix_ts) = {key:?}"
            );
            keys_seen.push(key);
        }
    }

    let lanes_arr = latest
        .get("lanes")
        .and_then(|l| l.as_arr())
        .expect("latest history record missing \"lanes\" series");
    assert_eq!(lanes_arr.len(), LANES_SERIES.len(), "lanes series truncated");
    for (point, &lanes) in lanes_arr.iter().zip(&LANES_SERIES) {
        assert_eq!(
            point.get("lanes").and_then(|v| v.as_f64()),
            Some(lanes as f64),
            "lanes series out of order"
        );
        for key in ["gate_ns_per_charge", "makespan"] {
            assert!(point.get(key).is_some(), "lanes[{lanes}] missing {key}");
        }
        // Balanced lane-private work: the makespan is exactly 3 cycles per
        // iteration no matter how many lanes run — a free golden check.
        assert_eq!(
            point.get("makespan").and_then(|v| v.as_f64()),
            Some((3 * scale.lane_iters) as f64),
            "lanes[{lanes}] makespan drifted"
        );
    }
    println!("BENCH_sim.json structurally valid");

    if check {
        // The sublinear-gate backstop: a linear min-rescan makes the
        // 256-lane charge ~32x the 8-lane one. The real figure (full mode
        // prints it) sits near 1–3x; assert a loose 8x so scheduler noise
        // on shared CI hosts cannot flake the gate while a linear
        // regression still trips it.
        assert!(
            lanes_ratio < 8.0,
            "gate per-charge cost at 256 lanes is {lanes_ratio:.1}x the 8-lane cost \
             (sublinear min-tracking regressed?)"
        );
        check_sharded_determinism();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(mode: &str, fingerprint: Option<(u64, &str)>, ts: u64) -> json::Value {
        let host = fingerprint.map_or(String::new(), |(n, cpu)| {
            format!(", \"nproc\": {n}, \"cpu_model\": \"{cpu}\"")
        });
        json::Value::parse(&format!(
            "{{\"mode\": \"{mode}\", \"unix_ts\": {ts}{host}}}"
        ))
        .unwrap()
    }

    #[test]
    fn rail_compares_only_same_mode_and_host() {
        let here = (2, "Xeon A");
        let history = vec![
            record("check", Some(here), 1),
            record("full", Some(here), 2),
            record("full", Some((4, "Xeon A")), 3),
            record("full", Some((2, "Xeon B")), 4),
            record("full", None, 5),
            record("full", Some(here), 6),
        ];
        let ts = |rs: Vec<&json::Value>| -> Vec<f64> {
            rs.iter()
                .map(|r| r.get("unix_ts").unwrap().as_f64().unwrap())
                .collect()
        };
        assert_eq!(ts(comparable(&history, "full", here)), [2.0, 6.0]);
        assert_eq!(ts(comparable(&history, "check", here)), [1.0]);
        assert!(comparable(&history, "check", (4, "Xeon A")).is_empty());
    }

    #[test]
    fn emitted_fingerprint_round_trips_through_the_filter() {
        // The record `main` writes must match its own filter, or the rail
        // would never compare anything.
        let (nproc, cpu) = host_fingerprint();
        let text = format!(
            "{{\"mode\": \"full\", \"unix_ts\": 1, \"nproc\": {nproc}, \"cpu_model\": \"{}\"}}",
            json::escape(&cpu)
        );
        let history = vec![json::Value::parse(&text).unwrap()];
        assert_eq!(comparable(&history, "full", (nproc, &cpu)).len(), 1);
    }
}

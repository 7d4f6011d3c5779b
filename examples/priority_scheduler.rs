//! A deadline scheduler on the Mound priority queue — upgraded to the
//! composed cross-structure API ([`pto::core::compose`]) and measured as
//! a figure with SLO rails.
//!
//! Producers submit tasks with deadlines; workers repeatedly claim the
//! most urgent task **and record it in the scheduled set in one atomic
//! composed operation**. The end-to-end invariant is *no task lost or
//! double-scheduled between the queue and the scheduled set*: every
//! claim's set-insert must be fresh (asserted per op), and after the run
//! the scheduled set holds exactly the submitted tasks (asserted by
//! count and membership sweep). Producer submissions route through the
//! composed site too (single-participant compose), per the module
//! contract that all ops on participating structures go through
//! [`Composed::run`].
//!
//! Series: `fallback` (ordered-lock path only), `pto` (static retry
//! budget), `adaptive` (self-tuning). Output: the throughput table with
//! ratio columns, latency histograms, the metrics table (including the
//! `policy.compose_*` columns), SLO verdicts, and
//! `results/compose_sched.csv` (+ `lat_`/`slo_` siblings).
//!
//! ```sh
//! cargo run --release --example priority_scheduler
//! ```

use pto::core::compose::Composed;
use pto::core::policy::{AdaptivePolicy, Exec, PtoPolicy};
use pto::core::{ConcurrentSet, PriorityQueue};
use pto::hashtable::{FSetHashTable, HashVariant};
use pto::mound::Mound;
use pto::sim::rng::XorShift64;
use pto::sim::{ops_per_ms, Sim};
use pto_bench::lat::{self, OpKind};
use pto_bench::report::Table;
use pto_bench::{cells, slo};
use std::sync::atomic::{AtomicU64, Ordering};

const TASKS_PER_PRODUCER: u64 = 600;

fn mode_for(series: &str) -> Exec {
    match series {
        "fallback" => Exec::Static(PtoPolicy::with_attempts(0)),
        "pto" => Exec::Static(PtoPolicy::default()),
        "adaptive" => Exec::Adaptive(AdaptivePolicy::new(PtoPolicy::default())),
        other => panic!("unknown series {other}"),
    }
}

/// One scheduler run: `pairs` producers and `pairs` workers. A task key
/// encodes `(deadline << 16) | id` with lane-unique ids, so queue order
/// is deadline order and the scheduled set can be swept for exactly the
/// submitted ids. Returns ops/ms (one op = one submit or one claim).
fn run(series: &str, pairs: usize) -> f64 {
    let total_tasks = pairs as u64 * TASKS_PER_PRODUCER;
    let queue = Mound::new_pto(16);
    let scheduled = FSetHashTable::new(HashVariant::PtoInplace, 64);
    pto::sim::clock::reset();
    let submit_site = Composed::new(vec![queue.anchor()], mode_for(series));
    let claim_site = Composed::new(
        vec![queue.anchor(), scheduled.anchor()],
        mode_for(series),
    );
    let claimed = AtomicU64::new(0);
    let out = Sim::new(2 * pairs).run(|lane| {
        if lane < pairs {
            // Producer: submit tasks with pseudo-deadlines through the
            // composed site (single-participant compose: the prefix is
            // the mound's transactional push half, the fallback its
            // ordinary lock-free push under the anchor).
            let mut rng = XorShift64::new(lane as u64 + 1);
            for i in 0..TASKS_PER_PRODUCER {
                let deadline = i * 3 + rng.below(64);
                let id = lane as u64 * TASKS_PER_PRODUCER + i;
                let key = (deadline << 16) | id;
                let t0 = pto::sim::now();
                let cell = queue.compose_alloc_cell();
                let via_prefix = submit_site.run(
                    |tx| {
                        queue.tx_compose_push(tx, key as u32, cell)?;
                        Ok(true)
                    },
                    || {
                        queue.push(key);
                        false
                    },
                );
                if !via_prefix {
                    queue.compose_release_cell(cell);
                }
                lat::record(OpKind::Push, pto::sim::now() - t0);
            }
        } else {
            // Worker: claim the most urgent task and mark it scheduled,
            // atomically. A torn claim would either lose the task (popped
            // but never scheduled) or double-schedule it (insert not
            // fresh) — both assert.
            loop {
                let t0 = pto::sim::now();
                let got = claim_site.run(
                    |tx| match queue.tx_compose_pop(tx)? {
                        None => Ok(None),
                        Some((key, cell)) => {
                            let fresh = scheduled.tx_compose_update(tx, key as u64, true)?;
                            Ok(Some((key, cell, fresh)))
                        }
                    },
                    || {
                        queue
                            .pop_min()
                            .map(|key| (key as u32, u32::MAX, scheduled.insert(key)))
                    },
                );
                match got {
                    Some((key, cell, fresh)) => {
                        if cell != u32::MAX {
                            queue.compose_retire_cell(cell);
                        }
                        assert!(fresh, "task {key} was scheduled twice");
                        claimed.fetch_add(1, Ordering::Relaxed);
                        lat::record(OpKind::Pop, pto::sim::now() - t0);
                    }
                    None => {
                        if claimed.load(Ordering::Relaxed) >= total_tasks {
                            break;
                        }
                        std::hint::spin_loop();
                        // Idle worker waiting on producers: gate-aware
                        // wait, charged for its virtual duration.
                        pto::sim::spin_wait_tick();
                    }
                }
            }
        }
    });
    // End-to-end: every submitted task claimed and scheduled exactly once.
    assert_eq!(claimed.load(Ordering::Relaxed), total_tasks, "tasks lost");
    assert_eq!(scheduled.len(), total_tasks as usize, "scheduled set drifted");
    // Membership sweep: replay each producer's deterministic deadline
    // stream and require every submitted key in the scheduled set.
    for lane in 0..pairs as u64 {
        let mut rng = XorShift64::new(lane + 1);
        for i in 0..TASKS_PER_PRODUCER {
            let key = ((i * 3 + rng.below(64)) << 16) | (lane * TASKS_PER_PRODUCER + i);
            assert!(scheduled.contains(key), "task {key} lost between queue and set");
        }
    }
    assert_eq!(queue.pop_min(), None, "tasks left in the queue");
    ops_per_ms(2 * total_tasks, out.makespan)
}

fn main() {
    let series = ["fallback", "pto", "adaptive"];
    let mut t = Table::new(
        "COMPOSE — deadline scheduler: mound + scheduled set, atomic claims (ops/ms)",
        &series,
    );
    for pairs in [1usize, 2, 4] {
        let mut vals = Vec::new();
        for s in series {
            let out = cells::run_scoped(cells::cell_key(s, pairs as u64), || run(s, pairs));
            t.push_cause(2 * pairs, s, out.htm, out.mem);
            t.push_lat(2 * pairs, s, out.lat);
            t.push_met(2 * pairs, s, out.met);
            vals.push(out.value);
        }
        t.push(2 * pairs, vals);
    }
    print!("{}", t.render());
    print!("{}", t.sparklines());
    print!("{}", t.render_latency());
    print!("{}", t.render_metrics());
    let report = slo::evaluate("compose_sched", &t, &slo::spec_for("compose_sched"));
    print!("{}", report.render());
    t.write_csv("compose_sched").expect("write results/compose_sched.csv");
    t.write_latency_csv("compose_sched")
        .expect("write results/lat_compose_sched.csv");
    report
        .write_csv("compose_sched")
        .expect("write results/slo_compose_sched.csv");
    println!("-> results/compose_sched.csv (+ lat, slo); no task lost between queue and set");
    if !report.pass() {
        eprintln!("SLO rails FAILED on the scheduler figure");
        std::process::exit(1);
    }
}

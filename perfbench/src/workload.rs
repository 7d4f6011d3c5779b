//! The four workloads: op streams generated up front from the seed, a
//! closed-loop runner that replays a stream through a structure's public
//! API under `Sim::run` and records every outcome, and one build function
//! per structure shape (set, bank, priority queue).

use crate::check::{self, NONE};
use crate::host;
use crate::spans::Spans;
use pto_bst::{Bst, BstVariant};
use pto_core::compose::Composed;
use pto_core::policy::PtoStats;
use pto_core::profile::ProfileSession;
use pto_core::{ConcurrentSet, PriorityQueue};
use pto_hashtable::{FSetHashTable, HashVariant};
use pto_htm::{HtmScope, HtmSnapshot};
use pto_mem::{MemScope, MemSnapshot};
use pto_mound::Mound;
use pto_sim::metrics::MetricsSession;
use pto_sim::rng::XorShift64;
use pto_sim::trace::TraceSession;
use pto_sim::{Sim, SimOutcome};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Set op kinds.
pub const CONTAINS: u8 = 0;
pub const INSERT: u8 = 1;
pub const REMOVE: u8 = 2;
/// Bank op kinds; the key is the token.
pub const TRANSFER_AB: u8 = 0;
pub const TRANSFER_BA: u8 = 1;
pub const AUDIT: u8 = 2;
/// Priority-queue op kinds; a pop's key is unused.
pub const PUSH: u8 = 0;
pub const POP: u8 = 1;

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: u8,
    pub key: u32,
}

/// Which build of a workload: the non-speculative reference, the paper's
/// static prefix transactions, or an extra variant reported per layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Base,
    Pto,
    Extra,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Base => "base",
            Role::Pto => "pto",
            Role::Extra => "extra",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    TreeChurn,
    HashLookup,
    BankCompose,
    MoundPq,
}

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub lanes: usize,
    pub ops_per_lane: usize,
    /// Key (or token) space.
    pub range: usize,
    /// Crate prefix of the per-op metrics.
    pub layer: &'static str,
    /// Metric name of each op kind, indexed by kind.
    pub op_names: &'static [&'static str],
    /// One op kind per op name the per-op metrics report; ops group by
    /// name, so the bank's `transfer` covers both directions.
    pub kinds: &'static [u8],
    /// The builds in run order, base first, then pto.
    pub builds: &'static [(Role, &'static str)],
}

const SET_OPS: &[&str] = &["contains", "insert", "remove"];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tree_churn",
        shape: Shape::TreeChurn,
        lanes: 2,
        ops_per_lane: 150_000,
        range: 512,
        layer: "bst",
        op_names: SET_OPS,
        kinds: &[INSERT, REMOVE],
        builds: &[
            (Role::Base, "LockFree"),
            (Role::Pto, "Pto1Pto2"),
            (Role::Extra, "Adaptive"),
        ],
    },
    Workload {
        name: "hash_lookup",
        shape: Shape::HashLookup,
        lanes: 1,
        ops_per_lane: 250_000,
        range: 65_536,
        layer: "hashtable",
        op_names: SET_OPS,
        kinds: &[CONTAINS, INSERT, REMOVE],
        builds: &[
            (Role::Base, "LockFree"),
            (Role::Pto, "Pto"),
            (Role::Extra, "PtoInplace"),
        ],
    },
    Workload {
        name: "bank_compose",
        shape: Shape::BankCompose,
        lanes: 2,
        ops_per_lane: 10_000,
        range: 512,
        layer: "compose",
        op_names: &["transfer", "transfer", "audit"],
        kinds: &[TRANSFER_AB, AUDIT],
        builds: &[
            (Role::Base, "fallback"),
            (Role::Pto, "pto"),
            (Role::Extra, "adaptive"),
        ],
    },
    Workload {
        name: "mound_pq",
        shape: Shape::MoundPq,
        lanes: 2,
        ops_per_lane: 100_000,
        range: 4096,
        layer: "mound",
        op_names: &["push", "pop_min"],
        kinds: &[PUSH, POP],
        builds: &[(Role::Base, "new_lockfree"), (Role::Pto, "new_pto")],
    },
];

/// Hash table prefill (half the key space) and bucket count.
const HASH_PREFILL: usize = 32_768;
const HASH_BUCKETS: usize = 1024;
/// Bank tables' initial bucket count (as in the bank-transfer scenario).
const BANK_BUCKETS: usize = 64;
const MOUND_DEPTH: u32 = 16;
const MOUND_PREFILL: usize = 2048;
/// Calls per lane kept verbatim as spans in a traced build.
const SAMPLED_CALLS: usize = 16;

/// A workload's generated inputs: the prefill keys and one op stream per
/// lane. Every build replays exactly these.
pub struct Input {
    pub prefill: Vec<u32>,
    pub lanes: Vec<Vec<Op>>,
}

fn rng_for(seed: u64, stream: u64) -> XorShift64 {
    XorShift64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            ^ 0x5EED,
    )
}

/// The seed of a run's sample `k`; sample 0 replays the run's own seed.
pub fn sample_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn distinct_keys(rng: &mut XorShift64, range: usize, n: usize) -> Vec<u32> {
    let mut seen = vec![false; range];
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.below(range as u64) as usize;
        if !std::mem::replace(&mut seen[k], true) {
            keys.push(k as u32);
        }
    }
    keys
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn ops_per_build(&self) -> u64 {
        (self.lanes * self.ops_per_lane) as u64
    }

    /// The prefill and op streams for `seed`.
    pub fn generate(&self, seed: u64) -> Input {
        let mut rng = rng_for(seed, 0);
        let range = self.range as u64;
        let prefill = match self.shape {
            Shape::TreeChurn => distinct_keys(&mut rng, self.range, self.range / 2),
            Shape::HashLookup => distinct_keys(&mut rng, self.range, HASH_PREFILL),
            Shape::BankCompose => (0..self.range as u32).collect(),
            Shape::MoundPq => (0..MOUND_PREFILL)
                .map(|_| rng.below(range) as u32)
                .collect(),
        };
        let lanes = (0..self.lanes)
            .map(|lane| {
                let mut rng = rng_for(seed, lane as u64 + 1);
                (0..self.ops_per_lane)
                    .map(|_| {
                        let key = rng.below(range) as u32;
                        let kind = match self.shape {
                            Shape::TreeChurn => [INSERT, REMOVE][rng.below(2) as usize],
                            Shape::HashLookup => match rng.below(100) {
                                0..=79 => CONTAINS,
                                r => [INSERT, REMOVE][(r & 1) as usize],
                            },
                            Shape::BankCompose => match rng.below(100) {
                                0..=69 => [TRANSFER_AB, TRANSFER_BA][rng.below(2) as usize],
                                _ => AUDIT,
                            },
                            Shape::MoundPq => [PUSH, POP][rng.below(2) as usize],
                        };
                        Op { kind, key }
                    })
                    .collect()
            })
            .collect();
        Input { prefill, lanes }
    }
}

/// Fast / middle / fallback / aborted-attempt counts of one executor.
#[derive(Clone, Copy, Debug, Default)]
pub struct PtoCounts {
    pub fast: u64,
    pub middle: u64,
    pub fallback: u64,
    pub aborted: u64,
}

impl PtoCounts {
    fn of(s: &PtoStats) -> PtoCounts {
        PtoCounts {
            fast: s.fast.get(),
            middle: s.middle.get(),
            fallback: s.fallback.get(),
            aborted: s.aborted_attempts.get(),
        }
    }

    fn plus(self, o: PtoCounts) -> PtoCounts {
        PtoCounts {
            fast: self.fast + o.fast,
            middle: self.middle + o.middle,
            fallback: self.fallback + o.fallback,
            aborted: self.aborted + o.aborted,
        }
    }

    fn since(self, before: PtoCounts) -> PtoCounts {
        PtoCounts {
            fast: self.fast - before.fast,
            middle: self.middle - before.middle,
            fallback: self.fallback - before.fallback,
            aborted: self.aborted - before.aborted,
        }
    }
}

/// Per-layer counters of one traced build's measured phase.
pub struct Layer {
    pub htm: HtmSnapshot,
    pub mem: MemSnapshot,
    /// `ProfileSession` cycles per phase (attempt, backoff, fallback,
    /// combine), summed over call sites; inclusive for nested executors.
    pub phases: [u64; 4],
    /// Outcomes of the outermost executor; `aborted` sums every level.
    pub pto: PtoCounts,
    pub trace_events: usize,
    pub metric_series: usize,
}

/// One build's run over the stream: setup, measured phase and verify.
pub struct Build {
    pub role: Role,
    pub label: &'static str,
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub verify_s: f64,
    pub sim: SimOutcome,
    pub ops: u64,
    /// Failed checks, prefill included.
    pub failed: u64,
    /// Per-op virtual latency by lane, in stream order.
    pub vcycles: Vec<Vec<u32>>,
    /// Per-op host time by lane (traced builds only).
    pub host_ns: Vec<Vec<u32>>,
    pub layer: Option<Layer>,
}

/// Where a traced build records its spans.
pub struct Tracer<'a> {
    pub spans: &'a mut Spans,
    pub parent: usize,
}

struct LaneRec {
    outcomes: Vec<u64>,
    vcycles: Vec<u32>,
    host_ns: Vec<u32>,
    /// (host start, host end, virtual start, virtual end, kind) of the
    /// first calls.
    calls: Vec<(u64, u64, u64, u64, u8)>,
}

struct Measured {
    sim: SimOutcome,
    run_s: f64,
    cpu_s: f64,
    outcomes: Vec<Vec<u64>>,
    vcycles: Vec<Vec<u32>>,
    host_ns: Vec<Vec<u32>>,
    layer: Option<Layer>,
}

fn nanos(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// Replay `lanes` through `exec` under a `Sim` with one lane per stream,
/// recording each op's outcome and virtual latency. Traced, it also times
/// each call on the host clock, arms the program's trace, metrics and
/// profile sessions and scopes its HTM and memory counters to the run.
fn measure<F>(
    w: &Workload,
    lanes: &[Vec<Op>],
    tr: &mut Option<Tracer<'_>>,
    pto: &dyn Fn() -> PtoCounts,
    exec: F,
) -> Measured
where
    F: Fn(usize, Op) -> u64 + Sync,
{
    let traced = tr.is_some();
    let slots: Vec<Mutex<LaneRec>> = lanes
        .iter()
        .map(|ops| {
            Mutex::new(LaneRec {
                outcomes: Vec::with_capacity(ops.len()),
                vcycles: Vec::with_capacity(ops.len()),
                host_ns: Vec::with_capacity(if traced { ops.len() } else { 0 }),
                calls: Vec::with_capacity(SAMPLED_CALLS),
            })
        })
        .collect();
    // Lanes start at virtual 0; so does the harness thread's clock, which
    // the spans around the run read.
    pto_sim::clock::reset();
    let run_span = tr.as_mut().map(|t| t.spans.open("sim_run", Some(t.parent)));
    let epoch = tr.as_ref().map(|t| t.spans.epoch());
    let pto0 = pto();
    let scopes = traced.then(|| {
        (
            HtmScope::new(),
            MemScope::new(),
            TraceSession::arm(),
            MetricsSession::arm(),
            ProfileSession::arm(),
        )
    });
    let cpu0 = host::cpu_s();
    let t0 = Instant::now();
    let sim = Sim::new(lanes.len()).run(|lane| {
        let mut rec = slots[lane]
            .lock()
            .expect("each lane locks only its own record");
        for &op in &lanes[lane] {
            let v0 = pto_sim::now();
            let r = match epoch {
                None => exec(lane, op),
                Some(ep) => {
                    let h0 = Instant::now();
                    let r = exec(lane, op);
                    let h1 = Instant::now();
                    rec.host_ns.push(nanos(h1 - h0).min(u32::MAX as u64) as u32);
                    if rec.calls.len() < SAMPLED_CALLS {
                        let (a, b) = (nanos(h0 - ep), nanos(h1 - ep));
                        rec.calls.push((a, b, v0, pto_sim::now(), op.kind));
                    }
                    r
                }
            };
            let dv = pto_sim::now() - v0;
            rec.vcycles.push(dv.min(u32::MAX as u64) as u32);
            rec.outcomes.push(r);
        }
    });
    let run = t0.elapsed();
    let cpu_s = host::cpu_s() - cpu0;
    let layer = scopes.map(|(htm, mem, trace, metrics, prof)| {
        let phases = prof.drain().sites.iter().fold([0u64; 4], |mut acc, s| {
            for (a, c) in acc.iter_mut().zip(s.cycles) {
                *a += c;
            }
            acc
        });
        Layer {
            htm: htm.snapshot(),
            mem: mem.snapshot(),
            phases,
            pto: pto().since(pto0),
            trace_events: trace.drain().events(),
            metric_series: metrics.drain().series_present().len(),
        }
    });
    let recs: Vec<LaneRec> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("lane threads have joined"))
        .collect();
    if let (Some(t), Some(id), Some(ep)) = (tr.as_mut(), run_span, epoch) {
        let start = nanos(t0 - ep);
        t.spans.close_at(id, start + nanos(run), sim.makespan);
        // Lanes call in parallel: the calls cover the mean lane's call time.
        let call_ns: u64 = recs
            .iter()
            .flat_map(|r| &r.host_ns)
            .map(|&n| n as u64)
            .sum();
        t.spans.cover(id, call_ns / recs.len() as u64);
        for rec in &recs {
            for &(h0, h1, v0, v1, kind) in &rec.calls {
                let name = format!("call:{}", w.op_names[kind as usize]);
                t.spans.record(id, &name, (h0, h1), (v0, v1));
            }
        }
    }
    let mut m = Measured {
        sim,
        run_s: run.as_secs_f64(),
        cpu_s,
        outcomes: Vec::new(),
        vcycles: Vec::new(),
        host_ns: Vec::new(),
        layer,
    };
    for rec in recs {
        m.outcomes.push(rec.outcomes);
        m.vcycles.push(rec.vcycles);
        m.host_ns.push(rec.host_ns);
    }
    m
}

/// Time a phase and record it as a span when traced.
fn phase<T>(tr: &mut Option<Tracer<'_>>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = tr.as_mut().map(|t| t.spans.open(name, Some(t.parent)));
    let t0 = Instant::now();
    let out = f();
    let s = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.spans.close(id);
    }
    (out, s)
}

/// Insert every prefill key (each must be new) and settle lazy work.
/// Returns the failed inserts.
fn prefill_set<S: ConcurrentSet>(s: &S, keys: &[u32]) -> u64 {
    let failed = keys.iter().filter(|&&k| !s.insert(k as u64)).count() as u64;
    // len() walks the structure, finishing deferred bucket migrations.
    black_box(s.len());
    failed
}

/// Run build `i` of `w` over `input`.
pub fn run_build(w: &Workload, i: usize, input: &Input, mut tr: Option<Tracer<'_>>) -> Build {
    let (role, label) = w.builds[i];
    let tr = &mut tr;
    let (m, failed, setup_s, verify_s) = match w.shape {
        Shape::TreeChurn => {
            let variant = [
                BstVariant::LockFree,
                BstVariant::Pto1Pto2,
                BstVariant::Adaptive,
            ][i];
            let ((t, pre), setup_s) = phase(tr, "setup", || {
                let t = Bst::new(variant);
                let pre = prefill_set(&t, &input.prefill);
                (t, pre)
            });
            // PTO1 is the outer executor; PTO2's aborts count too.
            let pto = || {
                let mut c = PtoCounts::of(&t.stats1);
                c.aborted += t.stats2.aborted_attempts.get();
                c
            };
            let m = measure(w, &input.lanes, tr, &pto, |_, op| set_op(&t, op));
            let (failed, verify_s) = phase(tr, "verify", || pre + verify_set(w, &t, input, &m));
            (m, failed, setup_s, verify_s)
        }
        Shape::HashLookup => {
            let variant = [
                HashVariant::LockFree,
                HashVariant::Pto,
                HashVariant::PtoInplace,
            ][i];
            let ((t, pre), setup_s) = phase(tr, "setup", || {
                let t = FSetHashTable::new(variant, HASH_BUCKETS);
                let pre = prefill_set(&t, &input.prefill);
                (t, pre)
            });
            let pto = || PtoCounts::of(&t.stats);
            let m = measure(w, &input.lanes, tr, &pto, |_, op| set_op(&t, op));
            let (failed, verify_s) = phase(tr, "verify", || pre + verify_set(w, &t, input, &m));
            (m, failed, setup_s, verify_s)
        }
        Shape::BankCompose => {
            let mode = pto_bench::scenario::mode_for(label);
            let ((a, b, pre), setup_s) = phase(tr, "setup", || {
                let a = FSetHashTable::new(HashVariant::PtoInplace, BANK_BUCKETS);
                let b = FSetHashTable::new(HashVariant::PtoInplace, BANK_BUCKETS);
                let pre = prefill_set(&a, &input.prefill);
                (a, b, pre)
            });
            let sites: Vec<Composed<'_>> = (0..w.lanes)
                .map(|_| Composed::new(vec![a.anchor(), b.anchor()], mode))
                .collect();
            let pto = || {
                sites
                    .iter()
                    .fold(PtoCounts::default(), |c, s| c.plus(PtoCounts::of(&s.stats)))
            };
            let m = measure(w, &input.lanes, tr, &pto, |lane, op| {
                bank_op(&sites[lane], &a, &b, op)
            });
            let (failed, verify_s) = phase(tr, "verify", || {
                let fin_a: Vec<bool> = (0..w.range as u64).map(|t| a.contains(t)).collect();
                let fin_b: Vec<bool> = (0..w.range as u64).map(|t| b.contains(t)).collect();
                pre + check::bank(&input.lanes, &m.outcomes, &fin_a, &fin_b)
            });
            (m, failed, setup_s, verify_s)
        }
        Shape::MoundPq => {
            let (q, setup_s) = phase(tr, "setup", || {
                let q = if i == 0 {
                    Mound::new_lockfree(MOUND_DEPTH)
                } else {
                    Mound::new_pto(MOUND_DEPTH)
                };
                for &k in &input.prefill {
                    q.push(k as u64);
                }
                black_box(q.len());
                q
            });
            let pto = || q.pto_stats().map(PtoCounts::of).unwrap_or_default();
            let m = measure(w, &input.lanes, tr, &pto, |_, op| match op.kind {
                PUSH => {
                    q.push(op.key as u64);
                    0
                }
                _ => q.pop_min().unwrap_or(NONE),
            });
            let (failed, verify_s) = phase(tr, "verify", || {
                let drained: Vec<u64> = std::iter::from_fn(|| q.pop_min()).collect();
                check::mound(w.range, &input.prefill, &input.lanes, &m.outcomes, &drained)
            });
            (m, failed, setup_s, verify_s)
        }
    };
    Build {
        role,
        label,
        setup_s,
        run_s: m.run_s,
        cpu_s: m.cpu_s,
        verify_s,
        sim: m.sim,
        ops: w.ops_per_build(),
        failed,
        vcycles: m.vcycles,
        host_ns: m.host_ns,
        layer: m.layer,
    }
}

fn set_op<S: ConcurrentSet>(s: &S, op: Op) -> u64 {
    let k = op.key as u64;
    (match op.kind {
        CONTAINS => s.contains(k),
        INSERT => s.insert(k),
        _ => s.remove(k),
    }) as u64
}

fn verify_set<S: ConcurrentSet>(w: &Workload, s: &S, input: &Input, m: &Measured) -> u64 {
    let mut initial = vec![false; w.range];
    for &k in &input.prefill {
        initial[k as usize] = true;
    }
    let fin: Vec<bool> = (0..w.range as u64).map(|k| s.contains(k)).collect();
    check::set_ops(&initial, &input.lanes, &m.outcomes, &fin)
}

/// One composed bank op: a transfer moves the token between the banks in
/// one atomic step; an audit reads both banks in one atomic step.
fn bank_op(site: &Composed<'_>, a: &FSetHashTable, b: &FSetHashTable, op: Op) -> u64 {
    let key = op.key as u64;
    match op.kind {
        AUDIT => {
            let (in_a, in_b) = site.run(
                |tx| {
                    Ok((
                        a.tx_compose_contains(tx, key)?,
                        b.tx_compose_contains(tx, key)?,
                    ))
                },
                || (a.contains(key), b.contains(key)),
            );
            in_a as u64 | (in_b as u64) << 1
        }
        kind => {
            let (src, dst) = if kind == TRANSFER_AB { (a, b) } else { (b, a) };
            site.run(
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
            ) as u64
        }
    }
}

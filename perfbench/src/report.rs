//! The metric catalogue and the folds that compute each metric from one
//! sample (every build of a workload run once over the same stream).
//! `METRICS.md` maps each metric to its layer and to the end-to-end
//! metric it should move.

use crate::host::{self, median, tail_q};
use crate::workload::{Build, Input, Role, Shape, Workload, WORKLOADS};
use pto_sim::json::Value;
use pto_sim::ops_per_ms;
use std::collections::BTreeMap;

/// End-to-end metrics: name, unit, better, clock. Measured untraced.
pub const E2E: [(&str, &str, &str, &str); 10] = [
    ("pto_ops_per_ms", "ops/ms", "higher", "virtual"),
    ("base_ops_per_ms", "ops/ms", "higher", "virtual"),
    ("pto_speedup", "ratio", "higher", "virtual"),
    ("pto_p50_cycles", "cycles", "lower", "virtual"),
    ("pto_p999_cycles", "cycles", "lower", "virtual"),
    ("host_wall_s", "s", "lower", "host"),
    ("host_cpu_s", "s", "lower", "host"),
    ("host_ns_per_vcycle", "ns", "lower", "host"),
    ("setup_s", "s", "lower", "host"),
    ("peak_rss_mb", "MiB", "lower", "host"),
];

/// Layer metrics that are not per op: name, unit, better.
const LAYER: [(&str, &str, &str); 26] = [
    ("sim.run_s", "s", "lower"),
    ("sim.gate_parks_per_op", "parks/op", "lower"),
    ("sim.gate_backstops_per_op", "backstops/op", "lower"),
    ("sim.vcycles_per_op", "cycles/op", "lower"),
    ("sim.lane_skew", "ratio", "lower"),
    ("htm.begins_per_op", "tx/op", "lower"),
    ("htm.commit_rate", "ratio", "higher"),
    ("htm.conflict_per_kop", "aborts/kop", "lower"),
    ("htm.capacity_per_kop", "aborts/kop", "lower"),
    ("htm.explicit_per_kop", "aborts/kop", "lower"),
    ("mem.epoch_advances_per_kop", "events/kop", "lower"),
    ("mem.limbo_reclaimed_per_kop", "slots/kop", "lower"),
    ("mem.hazard_scans_per_kop", "scans/kop", "lower"),
    ("core.fast_share", "ratio", "higher"),
    ("core.middle_share", "ratio", "higher"),
    ("core.fallback_share", "ratio", "lower"),
    ("core.aborted_attempts_per_op", "aborts/op", "lower"),
    ("core.attempt_cycles_per_op", "cycles/op", "lower"),
    ("core.backoff_cycles_per_op", "cycles/op", "lower"),
    ("core.fallback_cycles_per_op", "cycles/op", "lower"),
    ("core.adaptive_ops_per_ms", "ops/ms", "higher"),
    ("hashtable.inplace_ops_per_ms", "ops/ms", "higher"),
    ("bench.driver_s", "s", "lower"),
    ("bench.gen_s", "s", "lower"),
    ("bench.verify_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
];

const PER_OP: [(&str, &str); 3] = [
    ("host_ns_p50", "ns"),
    ("vcycles_p50", "cycles"),
    ("vcycles_p999", "cycles"),
];

fn per_op_name(w: &Workload, op: &str, role: Role, metric: &str) -> String {
    format!("{}.{op}.{}.{metric}", w.layer, role.name())
}

fn per_op_names(w: &Workload) -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for &k in w.kinds {
        for &(role, _) in w.builds {
            for (m, unit) in PER_OP {
                out.push((per_op_name(w, w.op_names[k as usize], role, m), unit));
            }
        }
    }
    out
}

/// Every per-layer metric of every workload: name, unit, better. A traced
/// run reports all of them; those its workload does not exercise read 0.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for w in &WORKLOADS {
        out.extend(per_op_names(w).into_iter().map(|(n, u)| (n, u, "lower")));
    }
    out
}

fn build(bs: &[Build], role: Role) -> Option<&Build> {
    bs.iter().find(|b| b.role == role)
}

fn throughput(b: &Build) -> f64 {
    ops_per_ms(b.ops, b.sim.makespan)
}

fn lane_cycles(b: &Build) -> u64 {
    b.sim.per_thread.iter().sum()
}

fn counts<'a>(values: impl IntoIterator<Item = &'a u32>) -> BTreeMap<u32, u64> {
    let mut m = BTreeMap::new();
    for &v in values {
        *m.entry(v).or_insert(0) += 1;
    }
    m
}

/// Exact nearest-rank quantile of a value → count map; 0 when empty.
fn count_rank(dist: &BTreeMap<u32, u64>, q: f64) -> u32 {
    let n: u64 = dist.values().sum();
    let target = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
    let mut seen = 0;
    for (&v, &c) in dist {
        seen += c;
        if seen >= target {
            return v;
        }
    }
    0
}

/// One build's share of a [`Sample`].
pub struct BuildRow {
    pub role: String,
    pub ops: u64,
    pub makespan: u64,
    /// Σ lane clocks.
    pub lane_cycles: u64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub setup_s: f64,
    pub failed: u64,
}

/// What one sample contributes to the end-to-end metrics. An untraced
/// sample runs in a child process and hands this back as one JSON line.
pub struct Sample {
    pub builds: Vec<BuildRow>,
    /// The pto build's per-op virtual latencies, as value → count.
    pub lat: BTreeMap<u32, u64>,
    /// `VmHWM` after the sample.
    pub peak_rss_mb: f64,
}

impl Sample {
    pub fn of(bs: &[Build]) -> Sample {
        let pto = build(bs, Role::Pto).expect("every workload has a pto build");
        let lat = counts(pto.vcycles.iter().flatten());
        let builds = bs
            .iter()
            .map(|b| BuildRow {
                role: b.role.name().to_string(),
                ops: b.ops,
                makespan: b.sim.makespan,
                lane_cycles: lane_cycles(b),
                run_s: b.run_s,
                cpu_s: b.cpu_s,
                setup_s: b.setup_s,
                failed: b.failed,
            })
            .collect();
        Sample {
            builds,
            lat,
            peak_rss_mb: host::peak_rss_mb(),
        }
    }

    pub fn ops(&self) -> u64 {
        self.builds.iter().map(|b| b.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.builds.iter().map(|b| b.failed).sum()
    }

    fn role(&self, role: Role) -> &BuildRow {
        self.builds
            .iter()
            .find(|b| b.role == role.name())
            .expect("every workload has a base and a pto build")
    }

    pub fn to_json(&self) -> String {
        let builds: Vec<String> = self
            .builds
            .iter()
            .map(|b| {
                format!(
                    "[\"{}\", {}, {}, {}, {}, {}, {}, {}]",
                    b.role, b.ops, b.makespan, b.lane_cycles, b.run_s, b.cpu_s, b.setup_s, b.failed
                )
            })
            .collect();
        let lat: Vec<String> = self
            .lat
            .iter()
            .map(|(v, c)| format!("[{v}, {c}]"))
            .collect();
        format!(
            "{{\"builds\": [{}], \"lat\": [{}], \"peak_rss_mb\": {}}}",
            builds.join(", "),
            lat.join(", "),
            self.peak_rss_mb
        )
    }

    pub fn from_json(text: &str) -> Result<Sample, String> {
        let doc = Value::parse(text)?;
        let field = |k: &str| doc.get(k).ok_or(format!("missing {k}"));
        let arr = |v: &Value| v.as_arr().map(<[Value]>::to_vec).ok_or("expected an array");
        let nums = |v: &[Value]| -> Result<Vec<f64>, String> {
            v.iter()
                .map(|x| x.as_f64().ok_or_else(|| "expected a number".to_string()))
                .collect()
        };
        let mut builds = Vec::new();
        for b in arr(field("builds")?)? {
            let b = arr(&b)?;
            let n = nums(b.get(1..).unwrap_or(&[]))?;
            if n.len() != 7 {
                return Err("a build row has a role and 7 numbers".into());
            }
            builds.push(BuildRow {
                role: b[0].as_str().ok_or("role name")?.to_string(),
                ops: n[0] as u64,
                makespan: n[1] as u64,
                lane_cycles: n[2] as u64,
                run_s: n[3],
                cpu_s: n[4],
                setup_s: n[5],
                failed: n[6] as u64,
            });
        }
        let mut lat = BTreeMap::new();
        for pair in arr(field("lat")?)? {
            match nums(&arr(&pair)?)?[..] {
                [v, c] => lat.insert(v as u32, c as u64),
                _ => return Err("a latency pair has 2 numbers".into()),
            };
        }
        let peak_rss_mb = field("peak_rss_mb")?.as_f64().ok_or("peak_rss_mb")?;
        Ok(Sample {
            builds,
            lat,
            peak_rss_mb,
        })
    }
}

/// End-to-end metrics accumulated over a run's samples, in [`E2E`] order.
/// The virtual metrics pool every sample (ops ÷ makespan over all of
/// them, exact latency quantiles over every op) and `peak_rss_mb` is the
/// mean over samples, because both vary with the address layout each
/// sample's process draws (see `METRICS.md` on `hash_lookup`). Host times
/// are medians of the per-sample values, robust to other load on the
/// host.
#[derive(Default)]
pub struct E2eAgg {
    /// Per-sample values, for the medians and the printed min/max.
    pub rows: Vec<[f64; 10]>,
    /// Σ ops and Σ makespan of the pto and base builds.
    pto: (u64, u64),
    base: (u64, u64),
    /// Every pto-build op's virtual latency, as value → count.
    lat: BTreeMap<u32, u64>,
}

impl E2eAgg {
    pub fn add(&mut self, s: &Sample) {
        let (pto, base) = (s.role(Role::Pto), s.role(Role::Base));
        self.pto = (self.pto.0 + pto.ops, self.pto.1 + pto.makespan);
        self.base = (self.base.0 + base.ops, self.base.1 + base.makespan);
        for (&v, &c) in &s.lat {
            *self.lat.entry(v).or_insert(0) += c;
        }
        let n: u64 = s.lat.values().sum();
        let wall: f64 = s.builds.iter().map(|b| b.run_s).sum();
        let vcycles: u64 = s.builds.iter().map(|b| b.lane_cycles).sum();
        let (pto, base) = (
            ops_per_ms(pto.ops, pto.makespan),
            ops_per_ms(base.ops, base.makespan),
        );
        self.rows.push([
            pto,
            base,
            pto / base,
            count_rank(&s.lat, 0.5) as f64,
            count_rank(&s.lat, tail_q(n as usize)) as f64,
            wall,
            s.builds.iter().map(|b| b.cpu_s).sum(),
            wall * 1e9 / vcycles as f64,
            s.builds.iter().map(|b| b.setup_s).sum(),
            s.peak_rss_mb,
        ]);
    }

    /// The run's values.
    pub fn values(&self) -> [f64; 10] {
        let pto = ops_per_ms(self.pto.0, self.pto.1);
        let base = ops_per_ms(self.base.0, self.base.1);
        let n: u64 = self.lat.values().sum();
        let med = |i: usize| median(&self.rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        [
            pto,
            base,
            pto / base,
            count_rank(&self.lat, 0.5) as f64,
            count_rank(&self.lat, tail_q(n as usize)) as f64,
            med(5),
            med(6),
            med(7),
            med(8),
            self.rows.iter().map(|r| r[9]).sum::<f64>() / self.rows.len() as f64,
        ]
    }

    /// Smallest and largest per-sample value of metric `i`.
    pub fn range(&self, i: usize) -> (f64, f64) {
        self.rows
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
                (lo.min(r[i]), hi.max(r[i]))
            })
    }
}

/// Per-op virtual latencies and host times of one build, for ops named
/// `op`, as value → count maps.
fn op_samples(
    w: &Workload,
    input: &Input,
    b: &Build,
    op: &str,
) -> (BTreeMap<u32, u64>, BTreeMap<u32, u64>) {
    let (mut v, mut h) = (Vec::new(), Vec::new());
    for (lane, ops) in input.lanes.iter().enumerate() {
        for (i, o) in ops.iter().enumerate() {
            if w.op_names[o.kind as usize] == op {
                v.push(b.vcycles[lane][i]);
                h.extend(b.host_ns[lane].get(i));
            }
        }
    }
    (counts(&v), counts(&h))
}

/// One traced sample's per-layer values for the metrics `w` exercises
/// (`bench.trace_overhead` is added by the caller, across samples).
pub fn layer_sample(w: &Workload, input: &Input, bs: &[Build], gen_s: f64) -> Vec<(String, f64)> {
    let base = build(bs, Role::Base).expect("every workload has a base build");
    let pto = build(bs, Role::Pto).expect("every workload has a pto build");
    let ops: f64 = bs.iter().map(|b| b.ops as f64).sum();
    let run_s: f64 = bs.iter().map(|b| b.run_s).sum();
    // Lanes call in parallel, so the benchmark loop's share of a run is the mean
    // lane's time outside public calls.
    let call_s: f64 = bs
        .iter()
        .flat_map(|b| b.host_ns.iter().flatten())
        .map(|&n| n as f64 / 1e9)
        .sum::<f64>()
        / w.lanes as f64;
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let kop = |x: u64, b: &Build| per(x * 1000, b.ops);
    let skew = {
        let (lo, hi) = (
            pto.sim.per_thread.iter().min(),
            pto.sim.per_thread.iter().max(),
        );
        per(hi.unwrap_or(&0) - lo.unwrap_or(&0), pto.sim.makespan)
    };
    let htm = &pto.layer.as_ref().expect("traced build").htm;
    let mem = &base.layer.as_ref().expect("traced build").mem;
    let pl = pto.layer.as_ref().expect("traced build");
    let c = pl.pto;
    let entered = c.fast + c.middle + c.fallback;
    let extra = build(bs, Role::Extra).map_or(0.0, throughput);
    let mut out: Vec<(String, f64)> = vec![
        ("sim.run_s".into(), run_s),
        (
            "sim.gate_parks_per_op".into(),
            bs.iter().map(|b| b.sim.gate_parks).sum::<u64>() as f64 / ops,
        ),
        (
            "sim.gate_backstops_per_op".into(),
            bs.iter().map(|b| b.sim.gate_backstops).sum::<u64>() as f64 / ops,
        ),
        (
            "sim.vcycles_per_op".into(),
            bs.iter().map(lane_cycles).sum::<u64>() as f64 / ops,
        ),
        ("sim.lane_skew".into(), skew),
        ("htm.begins_per_op".into(), per(htm.begins, pto.ops)),
        ("htm.commit_rate".into(), htm.commit_rate()),
        ("htm.conflict_per_kop".into(), kop(htm.aborts_conflict, pto)),
        ("htm.capacity_per_kop".into(), kop(htm.aborts_capacity, pto)),
        ("htm.explicit_per_kop".into(), kop(htm.aborts_explicit, pto)),
        (
            "mem.epoch_advances_per_kop".into(),
            kop(mem.epoch_advances, base),
        ),
        (
            "mem.limbo_reclaimed_per_kop".into(),
            kop(mem.limbo_reclaimed, base),
        ),
        (
            "mem.hazard_scans_per_kop".into(),
            kop(mem.hazard_scans, base),
        ),
        ("core.fast_share".into(), per(c.fast, entered)),
        ("core.middle_share".into(), per(c.middle, entered)),
        ("core.fallback_share".into(), per(c.fallback, entered)),
        (
            "core.aborted_attempts_per_op".into(),
            per(c.aborted, pto.ops),
        ),
        (
            "core.attempt_cycles_per_op".into(),
            per(pl.phases[0], pto.ops),
        ),
        (
            "core.backoff_cycles_per_op".into(),
            per(pl.phases[1], pto.ops),
        ),
        (
            "core.fallback_cycles_per_op".into(),
            per(pl.phases[2], pto.ops),
        ),
        ("bench.driver_s".into(), run_s - call_s),
        ("bench.gen_s".into(), gen_s),
        ("bench.verify_s".into(), bs.iter().map(|b| b.verify_s).sum()),
    ];
    match w.shape {
        Shape::TreeChurn | Shape::BankCompose => {
            out.push(("core.adaptive_ops_per_ms".into(), extra))
        }
        Shape::HashLookup => out.push(("hashtable.inplace_ops_per_ms".into(), extra)),
        Shape::MoundPq => {}
    }
    for &k in w.kinds {
        let op = w.op_names[k as usize];
        for b in bs {
            let (v, h) = op_samples(w, input, b, op);
            let n = v.values().sum::<u64>() as usize;
            let name = |m: &str| per_op_name(w, op, b.role, m);
            out.push((name("host_ns_p50"), count_rank(&h, 0.5) as f64));
            out.push((name("vcycles_p50"), count_rank(&v, 0.5) as f64));
            out.push((name("vcycles_p999"), count_rank(&v, tail_q(n)) as f64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let c = counts(&(1..=1000).collect::<Vec<u32>>());
        assert_eq!(count_rank(&c, 0.5), 500);
        assert_eq!(count_rank(&c, 0.999), 999);
        assert_eq!(count_rank(&counts(&[74, 74, 74, 98]), 0.5), 74);
        assert_eq!(count_rank(&BTreeMap::new(), 0.5), 0);
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this catalogue reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = E2E
            .iter()
            .map(|&(n, u, b, _)| (n.into(), u.into(), b.into()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<_> = per_layer_catalogue()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
    }
}

//! `perfbench` — the repository's two-clock benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tree_churn|hash_lookup|bank_compose|mound_pq> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run measures *samples* until `--seconds` is spent. Sample `k` replays
//! the op stream generated from `(seed, k)` through every build of the
//! workload (base, pto, and any extra), each in a fresh structure, and
//! checks every outcome. Untraced samples each run in a child process of
//! their own, so every sample sees a fresh address layout (see
//! `METRICS.md` on `hash_lookup`). Host metrics are medians over samples;
//! virtual metrics pool all samples.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics.
//! With `--trace 1` the first half of the time runs untraced and the rest
//! runs traced in this process, and the last line reports the per-layer
//! metrics. Earlier lines print each metric with its unit and clock, and
//! a result record with the host fingerprint. See `METRICS.md`.

mod check;
mod host;
mod report;
mod spans;
mod workload;

use host::{json_str, median};
use report::{layer_sample, per_layer_catalogue, E2eAgg, Sample, E2E};
use spans::Spans;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{run_build, Build, Tracer, Workload};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run only sample `k` and print it as JSON (how a run spawns its
    /// untraced samples).
    child: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <tree_churn|hash_lookup|bank_compose|mound_pq> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(val).ok_or(format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(int(val)?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {val:?}")),
                })
            }
            "--child" => child = Some(int(val)?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if child.is_some() {
            0.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: child.is_none() && trace.ok_or("--trace is required")?,
        child,
    })
}

/// Run sample `k` in a child process and read back its summary.
fn child_sample(w: &Workload, seed: u64, k: u64) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--child",
            &k.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn sample {k}: {e}"))?;
    if !out.status.success() {
        return Err(format!("sample {k} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Sample::from_json(text.lines().last().unwrap_or("")).map_err(|e| format!("sample {k}: {e}"))
}

fn metrics_json(values: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = args.workload;
    if let Some(k) = args.child {
        let input = w.generate(workload::sample_seed(args.seed, k));
        let bs: Vec<Build> = (0..w.builds.len())
            .map(|i| run_build(w, i, &input, None))
            .collect();
        println!("{}", Sample::of(&bs).to_json());
        return;
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut untraced = E2eAgg::default();
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let start = Instant::now();
    let mut k = 0;
    loop {
        let t = Instant::now();
        let s = child_sample(w, args.seed, k).unwrap_or_else(|e| fail(&e));
        untraced.add(&s);
        attempted += s.ops();
        failed += s.failed();
        k += 1;
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > untraced_budget {
            break;
        }
    }

    // Traced samples run here, so the spans stay in this process's memory.
    let mut spans = Spans::new();
    let mut traced = E2eAgg::default();
    let mut layer_rows: Vec<Vec<(String, f64)>> = Vec::new();
    let mut sessions = String::new();
    if args.trace {
        let root = spans.open("workload", None);
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let input = w.generate(workload::sample_seed(args.seed, k));
            let gen_s = t.elapsed().as_secs_f64();
            let bs: Vec<Build> = (0..w.builds.len())
                .map(|i| {
                    let id = spans.open(&format!("build:{}", w.builds[i].1), Some(root));
                    let b = run_build(
                        w,
                        i,
                        &input,
                        Some(Tracer {
                            spans: &mut spans,
                            parent: id,
                        }),
                    );
                    spans.close(id);
                    b
                })
                .collect();
            let s = Sample::of(&bs);
            traced.add(&s);
            attempted += s.ops();
            failed += s.failed();
            layer_rows.push(layer_sample(w, &input, &bs, gen_s));
            sessions.clear();
            for b in &bs {
                let l = b
                    .layer
                    .as_ref()
                    .expect("traced builds carry layer counters");
                let _ = writeln!(
                    sessions,
                    "  program sessions, {}: {} trace events, {} counter series",
                    b.label, l.trace_events, l.metric_series
                );
            }
            k += 1;
            if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > args.seconds / 2.0 {
                break;
            }
        }
        spans.close(root);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} lanes={} ops_per_build={} builds={} samples={} traced_samples={}",
        w.name,
        args.seed,
        w.lanes,
        w.ops_per_build(),
        w.builds.iter().map(|b| b.1).collect::<Vec<_>>().join(","),
        untraced.rows.len(),
        traced.rows.len()
    );
    let values = untraced.values();
    let mut e2e: Vec<(String, f64, &str)> = Vec::new();
    for (i, &(name, unit, _, clock)) in E2E.iter().enumerate() {
        let (v, (lo, hi)) = (values[i], untraced.range(i));
        let _ = writeln!(
            out,
            "  {name:<20} {v:>14.4} {unit:<7} {clock:<8} per-sample min {lo:.4} max {hi:.4}"
        );
        e2e.push((name.to_string(), v, unit));
    }
    let share = failed as f64 / attempted as f64;
    let _ = writeln!(
        out,
        "  {:<20} {share:>14.4} {:<7} {:<8} {failed} of {attempted} ops",
        "failed_op_share", "ratio", "-"
    );

    let mut record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"lanes\": {}, \"ops_per_build\": {}, \"samples\": {}, \
         \"traced_samples\": {}",
        json_str(w.name),
        args.seed,
        w.lanes,
        w.ops_per_build(),
        untraced.rows.len(),
        traced.rows.len()
    );
    for (key, v) in host::fingerprint() {
        let _ = write!(record, ", {}: {}", json_str(key), json_str(&v));
    }
    let _ = write!(
        record,
        ", \"failed_op_share\": {share}, \"end_to_end\": {}}}",
        metrics_json(&e2e)
    );

    let metrics = if args.trace {
        let tv = traced.values();
        let overhead = tv[5] / values[5];
        let _ = writeln!(
            out,
            "traced: pto_ops_per_ms {:.4} (untraced {:.4}), base_ops_per_ms {:.4} (untraced {:.4}), \
             pto_p999_cycles {} (untraced {}), host_wall_s {:.4} (untraced {:.4})",
            tv[0], values[0], tv[1], values[1], tv[4], values[4], tv[5], values[5]
        );
        out.push_str(&sessions);
        let _ = writeln!(out, "span self time (s):");
        for (name, s) in spans.self_times() {
            let _ = writeln!(out, "  {name:<20} {s:>10.4}");
        }
        let dir = "perfbench/out";
        let path = format!("{dir}/spans-{}-seed{}.json", w.name, args.seed);
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.to_json())) {
            Ok(()) => {
                let _ = writeln!(out, "spans written to {path}");
            }
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        per_layer_catalogue()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = if name == "bench.trace_overhead" {
                    overhead
                } else {
                    let col: Vec<f64> = layer_rows
                        .iter()
                        .filter_map(|r| r.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                        .collect();
                    median(&col)
                };
                let _ = writeln!(out, "  {name:<36} {v:>14.4} {unit}");
                (name, v, unit)
            })
            .collect()
    } else {
        e2e
    };
    print!("{out}");
    println!("{{\"record\": {record}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&metrics)
    );
}

//! Host-clock readings and the result record's fingerprint, all from
//! `/proc` and the checkout itself (no external crates).

use std::fs;

/// `sysconf(_SC_CLK_TCK)` on every Linux ABI this runs on; `/proc/self/stat`
/// reports CPU time in these ticks.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, including lane
/// threads that have already exited. Resolution is one clock tick (10 ms).
pub fn cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis start at field 3, so utime (14) and stime (15)
    // are the 12th and 13th of them.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / CLK_TCK
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs from, read from `.git`
/// without invoking git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = fs::read_to_string(format!(".git/{r}")) {
        return c.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .map(|l| l.split(' ').next().unwrap_or("").to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint fields as `(key, value)` pairs for the result record.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", git_commit()),
        ("build_profile", env!("PERFBENCH_PROFILE").to_string()),
    ]
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", pto_sim::json::escape(s))
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail quantile the latency metrics report: p99.9 when at least ten
/// samples lie beyond it, otherwise the highest of p99/p90/p50 that does.
pub fn tail_q(n: usize) -> f64 {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_q(100_000), 0.999);
        assert_eq!(tail_q(1_000), 0.99);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn proc_readers_parse_this_process() {
        assert!(cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}

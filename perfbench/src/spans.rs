//! The benchmark's own spans, recorded around its calls into the program:
//! workload → build → setup | `Sim::run` | public calls | verify. Each span
//! carries a host and a virtual start and end and its parent. Spans stay
//! in memory and are written out when the run ends.
//!
//! Public calls are too many to keep one by one. A `Sim::run` span keeps
//! the first few calls of each lane verbatim and the exact host total of
//! all of them in `covered_ns`, so its self time is exact.

use crate::host::json_str;
use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub v_start: u64,
    pub v_end: u64,
    /// Host time covered by children, recorded or aggregated.
    pub covered_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    /// The instant host times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; the virtual clock is the calling thread's.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let id = self.list.len();
        let t = self.now_ns();
        self.list.push(Span {
            id,
            parent,
            name: name.to_string(),
            host_start_ns: t,
            host_end_ns: t,
            v_start: pto_sim::now(),
            v_end: 0,
            covered_ns: 0,
        });
        id
    }

    /// Close `id` now (virtual end = the calling thread's clock).
    pub fn close(&mut self, id: usize) {
        let (h, v) = (self.now_ns(), pto_sim::now());
        self.close_at(id, h, v);
    }

    /// Close `id` at explicit ends (a `Sim::run` ends at its makespan).
    pub fn close_at(&mut self, id: usize, host_end_ns: u64, v_end: u64) {
        let s = &mut self.list[id];
        s.host_end_ns = host_end_ns;
        s.v_end = v_end;
        let dur = host_end_ns - s.host_start_ns;
        if let Some(p) = s.parent {
            self.list[p].covered_ns += dur;
        }
    }

    /// Record an already-finished child (a sampled public call) without
    /// charging its parent: the parent's `covered_ns` gets the exact
    /// aggregate through [`Spans::cover`].
    pub fn record(&mut self, parent: usize, name: &str, host: (u64, u64), virt: (u64, u64)) {
        self.list.push(Span {
            id: self.list.len(),
            parent: Some(parent),
            name: name.to_string(),
            host_start_ns: host.0,
            host_end_ns: host.1,
            v_start: virt.0,
            v_end: virt.1,
            covered_ns: 0,
        });
    }

    /// Add host time covered by children that are not recorded one by one.
    pub fn cover(&mut self, id: usize, ns: u64) {
        self.list[id].covered_ns += ns;
    }

    /// Self time (duration minus children) summed per span name, in first
    /// appearance order. Sampled calls are excluded: their time is already
    /// counted in the parent's aggregate.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for s in self.list.iter().filter(|s| !s.name.starts_with("call:")) {
            let dur = s.host_end_ns - s.host_start_ns;
            let own = dur.saturating_sub(s.covered_ns) as f64 / 1e9;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name.clone(), own)),
            }
        }
        out
    }

    /// All spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .list
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"id\":{},\"parent\":{},\"name\":{},\"host_start_ns\":{},\"host_end_ns\":{},\
                     \"v_start\":{},\"v_end\":{},\"covered_ns\":{}}}",
                    s.id,
                    parent,
                    json_str(&s.name),
                    s.host_start_ns,
                    s.host_end_ns,
                    s.v_start,
                    s.v_end,
                    s.covered_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_recorded_and_aggregated_children() {
        let mut sp = Spans::new();
        let root = sp.open("build", None);
        let run = sp.open("sim_run", Some(root));
        sp.record(run, "call:insert", (0, 5), (0, 1));
        sp.close_at(run, sp.list[run].host_start_ns + 100, 7);
        sp.cover(run, 60);
        sp.close_at(root, sp.list[root].host_start_ns + 150, 7);
        let t = sp.self_times();
        assert_eq!(t[0].0, "build");
        assert!((t[0].1 - 50e-9).abs() < 1e-12);
        assert!((t[1].1 - 40e-9).abs() < 1e-12);
        assert_eq!(t.len(), 2, "sampled calls are not double counted");
    }
}

//! Metric names, units and the result line.

use crate::traced::CLASSES;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("virtual_s", "sim_s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

const ENGINE: [(&str, &str, &str); 13] = [
    ("engine.plans", "count", "lower"),
    ("engine.executed_ops", "count", "lower"),
    ("engine.acquire_s", "sim_s", "lower"),
    ("engine.execute_s", "sim_s", "lower"),
    ("engine.complete_s", "sim_s", "lower"),
    ("engine.sched_flushes", "count", "lower"),
    ("engine.sched_runs", "count", "lower"),
    ("dtype.hits", "count", "higher"),
    ("dtype.misses", "count", "lower"),
    ("shm.hits", "count", "higher"),
    ("shm.bypass_bytes", "B", "higher"),
    ("pool.hits", "count", "higher"),
    ("pool.misses", "count", "lower"),
];

const MPI: [(&str, &str, &str); 9] = [
    ("mpi.epochs", "count", "lower"),
    ("mpi.gets", "count", "lower"),
    ("mpi.puts", "count", "lower"),
    ("mpi.accs", "count", "lower"),
    ("mpi.bytes_got", "B", "lower"),
    ("mpi.bytes_put", "B", "lower"),
    ("mpi.bytes_acc", "B", "lower"),
    ("mpi.rmws", "count", "lower"),
    ("mpi.cas_retries", "count", "lower"),
];

/// Wait categories, as `wait.<cat>_s`.
pub const WAITS: [&str; 6] = [
    "progress",
    "straggler",
    "lock",
    "congestion",
    "cas_retry",
    "win_sync",
];

/// scalesim disciplines priced by `workloads::scale::kv_scale`.
pub const DISCIPLINES: [&str; 4] = ["native", "mutex", "sharded", "channel"];

const REST: [(&str, &str, &str); 9] = [
    ("app.host_s", "s", "lower"),
    ("app.virtual_s", "sim_s", "lower"),
    ("proxy.tasks", "count", "lower"),
    ("scalesim.events", "count", "lower"),
    ("scalesim.ns_per_event", "ns", "lower"),
    ("setup.spawn_s", "s", "lower"),
    ("setup.armci_init_s", "s", "lower"),
    ("traced.cpu_s", "s", "lower"),
    ("traced.virtual_s", "sim_s", "lower"),
];

/// Every per-layer metric `(name, unit, better)`, in report order.
/// `BENCHMARK.json` lists exactly these.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for c in CLASSES {
        out.push((format!("armci.{c}.calls"), "count", "lower"));
        out.push((format!("armci.{c}.host_s"), "s", "lower"));
        out.push((format!("armci.{c}.virtual_s"), "sim_s", "lower"));
    }
    for &(n, u, b) in ENGINE.iter().chain(&MPI) {
        out.push((n.to_string(), u, b));
    }
    for w in WAITS {
        out.push((format!("wait.{w}_s"), "sim_s", "lower"));
    }
    for d in DISCIPLINES {
        out.push((format!("scalesim.{d}.host_s"), "s", "lower"));
    }
    for (n, u, b) in REST {
        out.push((n.to_string(), u, b));
    }
    out
}

/// Per-layer values of one round. Every per-layer metric is present
/// (zero for a layer the workload never enters), so all workloads print
/// the same set.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<String, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(per_layer().into_iter().map(|(n, _, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Adds `v` to metric `name`, which must be a per-layer metric.
    pub fn add(&mut self, name: &str, v: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}")) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The mean of each metric over `rounds`.
    pub fn mean(rounds: &[Layers]) -> Layers {
        let mut out = Layers::default();
        for r in rounds {
            for (k, v) in &r.0 {
                out.add(k, v / rounds.len() as f64);
            }
        }
        out
    }
}

/// Operations whose outputs were checked, and how many of them failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the error line.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Counts `n` operations checked by one predicate: all of them fail
    /// together when `ok` is false.
    pub fn expect(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_line(checks: &Checks, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.ok(),
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_short() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(n - END_TO_END.len() <= 128);
        assert!(names.iter().all(|m| m.len() <= 64));
    }

    /// `BENCHMARK.json` lists exactly the metrics the benchmark prints,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let listed: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("{\"name\"") && l.contains("\"unit\""))
            .collect();
        let mut want: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u, b)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\""))
            .collect();
        want.extend(per_layer().iter().map(|(n, u, b)| {
            format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        }));
        assert_eq!(listed.len(), want.len(), "metric count in BENCHMARK.json");
        for (got, want) in listed.iter().zip(&want) {
            assert!(got.starts_with(want.as_str()), "{got} != {want}");
        }
    }

    #[test]
    fn checks_count_failures_per_operation() {
        let mut c = Checks::default();
        c.expect(3, true, || unreachable!());
        c.expect(2, false, || "bad".into());
        c.expect(1, false, || "worse".into());
        assert_eq!((c.attempted, c.failed), (6, 3));
        assert_eq!(c.first_failure.as_deref(), Some("bad"));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

//! `des`: scalesim's discrete-event model of the hot-key server,
//! `workloads::scale::kv_scale`, under four atomics disciplines at
//! 10³–10⁶ clients. Single-threaded; touches no runtime layer.

use crate::report::{Checks, Layers, DISCIPLINES};
use scalesim::{simulate, simulate_sharded, ShardedCounter, SimConfig};
use simnet::{Platform, PlatformId};
use std::time::Instant;
use workloads::scale::{rmw_service_s, ScaleRow, KV_CLIENTS, KV_OPS_PER_CLIENT};

/// Client think time between operations in `kv_scale`'s series.
const THINK_S: f64 = 100e-6;

/// One series point's inputs, as `kv_scale` prices it.
#[derive(Debug, Clone)]
pub struct Point {
    pub discipline: &'static str,
    pub cfg: SimConfig,
    pub shard: Option<ShardedCounter>,
}

/// The series inputs: platform, per-discipline service pricing and one
/// simulator configuration per (discipline, client count).
pub fn inputs() -> (Platform, Vec<Point>) {
    let platform = Platform::get(PlatformId::InfiniBandCluster);
    let mut points = Vec::new();
    for discipline in DISCIPLINES {
        let service = rmw_service_s(&platform, discipline);
        for n in KV_CLIENTS {
            let cfg = SimConfig {
                nprocs: n,
                ntasks: n * KV_OPS_PER_CLIENT,
                task_compute: THINK_S,
                task_comm: 0.0,
                nxtval_service: service,
                nxtval_latency: 2.0 * platform.mpi.rmw_latency,
                congestion_scale: None,
                startup: 0.0,
                iterations: 1,
            };
            let shard = (discipline == "sharded").then(|| ShardedCounter {
                ranks_per_node: (platform.sockets_per_node * platform.cores_per_socket).max(1)
                    as usize,
                block: KV_OPS_PER_CLIENT,
                shard_service: platform.shm.atomic_cost(),
                shard_latency: platform.shm.win_sync,
            });
            points.push(Point {
                discipline,
                cfg,
                shard,
            });
        }
    }
    (platform, points)
}

/// CPU seconds per call of [`inputs`]: the median of 9 batches of 200
/// calls, each divided by its batch size, so the figure times real work
/// rather than one interval near the clock's resolution.
pub fn setup_s() -> f64 {
    const BATCH: usize = 200;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = crate::host::Stamp::now();
            for _ in 0..BATCH {
                std::hint::black_box(inputs());
            }
            t.cpu_s() / BATCH as f64
        })
        .collect();
    crate::report::median(&samples)
}

/// Events a point's simulation pops off its heap: every client draws
/// tickets until it sees one past the last task, so `ntasks + nprocs`.
fn events(cfg: &SimConfig) -> u64 {
    (cfg.ntasks + cfg.nprocs) as u64
}

/// Lower bound on a point's makespan from its inputs. The serving tier
/// (the flat counter, or the busiest node's shard) is serial and serves
/// every request; and some client runs at least ⌈ntasks/nprocs⌉ tasks,
/// each behind one full ticket round trip, then one final probe.
pub fn lower_bound(p: &Point) -> f64 {
    let c = &p.cfg;
    let (service, latency, servers) = match &p.shard {
        Some(s) => (
            s.shard_service,
            s.shard_latency,
            c.nprocs.div_ceil(s.ranks_per_node.max(1)),
        ),
        None => (c.nxtval_service, c.nxtval_latency, 1),
    };
    let server = events(c).div_ceil(servers as u64) as f64 * service + latency;
    let per_client = c.ntasks.div_ceil(c.nprocs) as f64;
    let client =
        per_client * (latency + service + c.task_compute + c.task_comm) + latency + service;
    server.max(client)
}

/// Saturated-server tolerance: where the counter is ≥ 99% busy, the
/// makespan is within 1.5% of its busy time, `(ntasks + nprocs)·service`.
pub const SATURATED_TOL: f64 = 0.015;

/// Checks each point against its inputs, one operation per check:
/// makespan at least its lower bound; within [`SATURATED_TOL`] of the
/// server's busy time wherever utilisation ≥ 0.99; and at each client
/// count, sharded < native < mutex.
pub fn check(points: &[Point], rows: &[ScaleRow]) -> Checks {
    let mut c = Checks::default();
    c.expect(1, rows.len() == points.len(), || {
        format!("des: {} rows for {} points", rows.len(), points.len())
    });
    for (p, r) in points.iter().zip(rows) {
        let same = r.discipline == p.discipline && r.clients == p.cfg.nprocs;
        c.expect(1, same, || {
            format!(
                "des: row {}@{} is not point {}@{}",
                r.discipline, r.clients, p.discipline, p.cfg.nprocs
            )
        });
        let lb = lower_bound(p);
        // The simulator adds one service time per request to a running
        // clock, so its makespan carries up to ~1e-10 relative rounding.
        c.expect(1, r.makespan_s >= lb * (1.0 - 1e-9), || {
            format!(
                "des: {}@{} makespan {} below its bound {lb}",
                r.discipline, r.clients, r.makespan_s
            )
        });
        if r.utilisation >= 0.99 {
            let busy = events(&p.cfg) as f64 * p.cfg.nxtval_service;
            c.expect(
                1,
                (r.makespan_s / busy - 1.0).abs() <= SATURATED_TOL,
                || {
                    format!(
                        "des: {}@{} saturated makespan {} vs busy time {busy}",
                        r.discipline, r.clients, r.makespan_s
                    )
                },
            );
        }
    }
    let mut counts: Vec<usize> = points.iter().map(|p| p.cfg.nprocs).collect();
    counts.sort_unstable();
    counts.dedup();
    for n in counts {
        let at = |d: &str| {
            rows.iter()
                .find(|r| r.discipline == d && r.clients == n)
                .map(|r| r.makespan_s)
        };
        let (s, nat, m) = (at("sharded"), at("native"), at("mutex"));
        c.expect(
            1,
            matches!((s, nat, m), (Some(s), Some(nat), Some(m)) if s < nat && nat < m),
            || format!("des: at {n} clients sharded {s:?} < native {nat:?} < mutex {m:?} fails"),
        );
    }
    c
}

/// The traced round: each point's simulation timed on its own, with the
/// makespans checked bit for bit against `reference` (the program's own
/// series), so the timed configurations are the ones `kv_scale` prices.
pub fn traced(points: &[Point], reference: &[ScaleRow]) -> (Layers, Checks) {
    let mut l = Layers::default();
    let mut c = Checks::default();
    let mut total_s = 0.0;
    let mut total_events = 0u64;
    for (p, want) in points.iter().zip(reference) {
        let t = Instant::now();
        let res = match &p.shard {
            Some(s) => simulate_sharded(&p.cfg, s),
            None => simulate(&p.cfg),
        };
        let dt = t.elapsed().as_secs_f64();
        l.add(&format!("scalesim.{}.host_s", p.discipline), dt);
        total_s += dt;
        total_events += events(&p.cfg);
        c.expect(
            1,
            res.makespan.to_bits() == want.makespan_s.to_bits(),
            || {
                format!(
                    "des: traced {}@{} makespan {} != series {}",
                    p.discipline, p.cfg.nprocs, res.makespan, want.makespan_s
                )
            },
        );
    }
    l.add("scalesim.events", total_events as f64);
    l.add("scalesim.ns_per_event", total_s * 1e9 / total_events as f64);
    (l, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first two client counts of each discipline: the debug-size
    /// cut of the series.
    fn small() -> (Vec<Point>, Vec<ScaleRow>) {
        let (_, points) = inputs();
        let points: Vec<Point> = points
            .into_iter()
            .filter(|p| p.cfg.nprocs <= KV_CLIENTS[1])
            .collect();
        let rows = points
            .iter()
            .map(|p| {
                let res = match &p.shard {
                    Some(s) => simulate_sharded(&p.cfg, s),
                    None => simulate(&p.cfg),
                };
                ScaleRow {
                    driver: "kv",
                    discipline: p.discipline,
                    clients: p.cfg.nprocs,
                    makespan_s: res.makespan,
                    throughput_per_s: 0.0,
                    utilisation: res.counter_utilisation,
                }
            })
            .collect();
        (points, rows)
    }

    #[test]
    fn small_series_passes_and_a_makespan_below_its_bound_is_rejected() {
        let (points, rows) = small();
        let c = check(&points, &rows);
        assert!(c.ok(), "{:?}", c.first_failure);
        let mut low = rows.clone();
        low[0].makespan_s = lower_bound(&points[0]) * 0.999;
        assert!(!check(&points, &low).ok());
    }

    #[test]
    fn traced_small_series_matches_and_counts_events() {
        let (points, rows) = small();
        let (l, c) = traced(&points, &rows);
        assert!(c.ok(), "{:?}", c.first_failure);
        let want: u64 = points.iter().map(|p| events(&p.cfg)).sum();
        assert_eq!(l.get("scalesim.events"), want as f64);
        assert!(l.get("scalesim.mutex.host_s") > 0.0);
    }

    #[test]
    fn setup_times_real_work() {
        assert!(setup_s() > 1e-7);
    }
}

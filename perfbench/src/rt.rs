//! One round of a runtime workload: spawn the simulated runtime on two
//! ranks placed one per node, build `ArmciMpi` on each, run the
//! workload's entry point, and collect its outputs and both clocks.

use crate::host::process_cpu_s;
use crate::report::{Layers, WAITS};
use crate::traced::{Breakdown, Traced, CLASSES};
use armci::Armci;
use armci_mpi::{ArmciMpi, Config, OpStats, StageStats};
use mpisim::{Proc, Runtime};
use std::time::Instant;

/// Rank threads every runtime workload starts.
pub const RANKS: usize = 2;

/// A workload entry point run on every rank.
pub trait RankWork: Sync {
    type Out: Send;
    fn run<A: Armci + ?Sized>(&self, p: &Proc, rt: &A) -> Self::Out;
}

/// Per-rank record of one round.
struct RankOut<T> {
    out: T,
    /// Host seconds from the spawn call to this rank's first instruction.
    spawn_s: f64,
    /// Host seconds in `ArmciMpi::with_config`.
    init_s: f64,
    /// End of set-up: this rank left the set-up barrier.
    ready: Instant,
    /// Process CPU seconds at `ready` (rank 0 only).
    cpu0: Option<f64>,
    /// Virtual seconds of the measured phase.
    virtual_s: f64,
    /// Host seconds of the measured phase on this rank.
    host_s: f64,
    trace: Option<(Breakdown, StageStats, OpStats, f64)>,
}

/// Outcome of one round.
pub struct Round<T> {
    /// Per-rank workload outputs, indexed by rank.
    pub outs: Vec<T>,
    /// Max over ranks of the measured phase's virtual seconds.
    pub virtual_s: f64,
    pub cpu_s: f64,
    pub wall_s: f64,
    pub setup_s: f64,
    /// Traced rounds only: per-layer values and the per-rank check that
    /// the call classes plus `app` add up to each rank's elapsed time.
    pub layers: Option<Layers>,
    pub sums: Vec<SumCheck>,
}

/// One rank's parts against its whole, in both clocks.
pub struct SumCheck {
    pub rank: usize,
    pub virtual_parts: f64,
    pub virtual_whole: f64,
    pub host_parts: f64,
    pub host_whole: f64,
}

impl SumCheck {
    /// Virtual parts equal the whole up to float rounding of the sum.
    pub fn virtual_ok(&self) -> bool {
        (self.virtual_parts - self.virtual_whole).abs() <= 1e-9 * self.virtual_whole.max(1e-6)
    }

    /// Host parts are within 1% (or 1 ms) of the rank's host elapsed
    /// time: the whole is read by the caller just outside the wrapper.
    pub fn host_ok(&self) -> bool {
        (self.host_parts - self.host_whole).abs() <= 0.01 * self.host_whole + 1e-3
    }
}

fn runtime_config() -> mpisim::RuntimeConfig {
    bench::internode(simnet::PlatformId::InfiniBandCluster)
}

/// Set-up repetitions per round on top of the round's own set-up, so a
/// run's `setup_s` is a median over many samples of a sub-millisecond
/// phase.
pub const EXTRA_SETUPS: usize = 40;

/// CPU seconds of one bare set-up: spawn the runtime, build `ArmciMpi`
/// on every rank, meet at a barrier.
pub fn setup_only() -> f64 {
    let cpu_spawn = process_cpu_s();
    let ready = Runtime::run_with(RANKS, runtime_config(), |p| {
        let rt = ArmciMpi::with_config(p, Config::default());
        rt.barrier();
        (p.rank() == 0).then(process_cpu_s)
    });
    ready[0].expect("rank 0 reads the CPU clock") - cpu_spawn
}

/// Runs one round of `work`; with `trace`, through the timing wrapper
/// and with the `obs` recorder on.
pub fn round<W: RankWork>(work: &W, trace: bool) -> Round<W::Out> {
    if trace {
        obs::enable();
        obs::clear();
    }
    let cpu_spawn = process_cpu_s();
    let t_spawn = Instant::now();
    let ranks: Vec<RankOut<W::Out>> = Runtime::run_with(RANKS, runtime_config(), |p| {
        let t_start = Instant::now();
        let rt = ArmciMpi::with_config(p, Config::default());
        let init_s = t_start.elapsed().as_secs_f64();
        rt.barrier();
        let ready = Instant::now();
        let cpu0 = (p.rank() == 0).then(process_cpu_s);
        if trace {
            rt.reset_stats();
            rt.reset_stage_stats();
        }
        let v0 = p.clock().now();
        let h0 = Instant::now();
        let (out, breakdown) = if trace {
            let tr = Traced::new(&rt);
            let out = work.run(p, &tr);
            (out, Some(tr.finish()))
        } else {
            (work.run(p, &rt), None)
        };
        let host_s = h0.elapsed().as_secs_f64();
        let virtual_s = p.clock().now() - v0;
        RankOut {
            out,
            spawn_s: (t_start - t_spawn).as_secs_f64(),
            init_s,
            ready,
            cpu0,
            virtual_s,
            host_s,
            trace: breakdown.map(|b| (b, rt.stage_stats(), rt.stats(), v0)),
        }
    });
    let cpu0 = ranks[0].cpu0.expect("rank 0 reads the CPU clock");
    let cpu_s = process_cpu_s() - cpu0;
    let wall_s = ranks[0].ready.elapsed().as_secs_f64();
    let setup_s = cpu0 - cpu_spawn;
    let virtual_s = ranks.iter().map(|r| r.virtual_s).fold(0.0, f64::max);

    let (layers, sums) = if trace {
        let events = obs::take();
        obs::disable();
        let (layers, sums) = trace_layers(&ranks, &events, cpu_s, virtual_s);
        (Some(layers), sums)
    } else {
        (None, Vec::new())
    };
    Round {
        outs: ranks.into_iter().map(|r| r.out).collect(),
        virtual_s,
        cpu_s,
        wall_s,
        setup_s,
        layers,
        sums,
    }
}

fn trace_layers<T>(
    ranks: &[RankOut<T>],
    events: &[obs::Event],
    cpu_s: f64,
    virtual_s: f64,
) -> (Layers, Vec<SumCheck>) {
    let mut l = Layers::default();
    let mut sums = Vec::new();
    let mut v0 = Vec::new();
    for (rank, r) in ranks.iter().enumerate() {
        let (b, st, ops, start) = r.trace.as_ref().expect("traced rank");
        v0.push(*start);
        for (c, t) in CLASSES.iter().zip(&b.classes) {
            l.add(&format!("armci.{c}.calls"), t.calls as f64);
            l.add(&format!("armci.{c}.host_s"), t.host_s);
            l.add(&format!("armci.{c}.virtual_s"), t.virtual_s);
        }
        l.add("app.host_s", b.app_host_s);
        l.add("app.virtual_s", b.app_virtual_s);
        for (name, v) in [
            ("engine.plans", st.plans as f64),
            ("engine.executed_ops", st.executed_ops as f64),
            ("engine.acquire_s", st.acquire_s),
            ("engine.execute_s", st.execute_s),
            ("engine.complete_s", st.complete_s),
            ("engine.sched_flushes", st.sched_flushes as f64),
            ("engine.sched_runs", st.sched_runs as f64),
            ("dtype.hits", st.dtype_hits as f64),
            ("dtype.misses", st.dtype_misses as f64),
            ("shm.hits", st.shm_hits as f64),
            ("shm.bypass_bytes", st.shm_bypass_bytes as f64),
            ("pool.hits", st.pool_hits as f64),
            ("pool.misses", st.pool_misses as f64),
            ("mpi.epochs", ops.epochs as f64),
            ("mpi.gets", ops.gets as f64),
            ("mpi.puts", ops.puts as f64),
            ("mpi.accs", ops.accs as f64),
            ("mpi.bytes_got", ops.bytes_got as f64),
            ("mpi.bytes_put", ops.bytes_put as f64),
            ("mpi.bytes_acc", ops.bytes_acc as f64),
            ("mpi.rmws", ops.rmws as f64),
            ("mpi.cas_retries", ops.cas_retries as f64),
        ] {
            l.add(name, v);
        }
        sums.push(SumCheck {
            rank,
            virtual_parts: b.virtual_sum(),
            virtual_whole: r.virtual_s,
            host_parts: b.host_sum(),
            host_whole: r.host_s,
        });
    }
    // Spawn and init are set-up phases that run side by side on the
    // ranks: report the slowest rank, like `setup_s`.
    l.add(
        "setup.spawn_s",
        ranks.iter().map(|r| r.spawn_s).fold(0.0, f64::max),
    );
    l.add(
        "setup.armci_init_s",
        ranks.iter().map(|r| r.init_s).fold(0.0, f64::max),
    );

    // Wait attribution over the measured phase only: set-up events
    // (the barrier after `with_config`) start before the rank's `v0`.
    let measured: Vec<obs::Event> = events
        .iter()
        .filter(|e| e.ts >= v0[e.rank as usize])
        .cloned()
        .collect();
    let ws = obs::waitstate::analyze(&measured);
    let reg = obs::metrics::Registry::from_events(&measured);
    // waitstate folds straggler spans into "progress"; the registry keeps
    // the two apart, so the split comes from there.
    let straggler = reg.time("progress.straggler_s");
    for w in WAITS {
        let v = match w {
            "progress" => reg.time("progress.stall_s"),
            "straggler" => straggler,
            cat => ws.cat_s.get(cat).copied().unwrap_or(0.0),
        };
        l.add(&format!("wait.{w}_s"), v);
    }
    l.add("traced.cpu_s", cpu_s);
    l.add("traced.virtual_s", virtual_s);
    (l, sums)
}

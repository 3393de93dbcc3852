//! `ccsd`: the paper's application, `nwchem_proxy::run_ccsd`, checked
//! against a serial contraction computed here from the tensor formulas.

use crate::report::Checks;
use crate::rt::RankWork;
use armci::Armci;
use mpisim::Proc;
use nwchem_proxy::tensors::{t2_value, v2_value};
use nwchem_proxy::{run_ccsd, CcsdConfig, CcsdResult};

/// Full size: V is nv⁴ · 8 B = 40.5 MiB; 64 tile-pair tasks per
/// iteration, each fetching 16 V and 16 T tile patches.
pub const FULL: CcsdConfig = CcsdConfig {
    no: 4,
    nv: 48,
    tile_o: 2,
    tile_v: 12,
    iterations: 2,
};

pub struct Ccsd {
    pub cfg: CcsdConfig,
}

impl RankWork for Ccsd {
    type Out = CcsdResult;

    fn run<A: Armci + ?Sized>(&self, p: &Proc, rt: &A) -> CcsdResult {
        run_ccsd(p, rt, &self.cfg)
    }
}

/// The proxy's energy computed serially: R = V·T over (c, d), then
/// E = R·T / (1 + T·T). Every value is a dyadic rational and every
/// partial sum fits in 53 bits, so any summation order gives the same
/// bits and the comparison with the distributed run is exact.
pub fn reference_energy(cfg: &CcsdConfig) -> f64 {
    let (no, nv) = (cfg.no, cfg.nv);
    let k = nv * nv;
    // T[ij, cd], one row per occupied pair.
    let t: Vec<Vec<f64>> = (0..no * no)
        .map(|ij| {
            (0..k)
                .map(|cd| t2_value(ij / no, ij % no, cd / nv, cd % nv))
                .collect()
        })
        .collect();
    let mut v_ab = vec![0.0; k];
    let (mut rt_dot, mut tt) = (0.0, 0.0);
    for a in 0..nv {
        for b in 0..nv {
            for (cd, v) in v_ab.iter_mut().enumerate() {
                *v = v2_value(a, b, cd / nv, cd % nv);
            }
            for (ij, t_ij) in t.iter().enumerate() {
                let r: f64 = v_ab.iter().zip(t_ij).map(|(v, t)| v * t).sum();
                let t_ijab = t2_value(ij / no, ij % no, a, b);
                rt_dot += r * t_ijab;
                tt += t_ijab * t_ijab;
            }
        }
    }
    rt_dot / (1.0 + tt)
}

/// Checks every rank's energy bit for bit against the serial reference,
/// and that the ranks together ran every task of every iteration once.
/// One operation per task.
pub fn check(cfg: &CcsdConfig, reference: f64, outs: &[CcsdResult]) -> Checks {
    let mut c = Checks::default();
    let tasks = (cfg.ccsd_tasks() * cfg.iterations) as u64;
    let done: usize = outs.iter().map(|r| r.tasks_done).sum();
    c.expect(1, done as u64 == tasks, || {
        format!("ccsd: ranks ran {done} tasks, expected {tasks}")
    });
    for (rank, r) in outs.iter().enumerate() {
        c.expect(
            r.tasks_done as u64,
            r.energy.to_bits() == reference.to_bits(),
            || {
                format!(
                    "ccsd: rank {rank} energy {:e} != serial reference {:e}",
                    r.energy, reference
                )
            },
        );
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_passes_and_corruptions_are_rejected() {
        let cfg = CcsdConfig {
            no: 4,
            nv: 8,
            tile_o: 2,
            tile_v: 4,
            iterations: 2,
        };
        let reference = reference_energy(&cfg);
        let round = crate::rt::round(&Ccsd { cfg }, false);
        let c = check(&cfg, reference, &round.outs);
        assert!(c.ok(), "{:?}", c.first_failure);
        assert_eq!(c.attempted, 1 + (cfg.ccsd_tasks() * cfg.iterations) as u64);

        let mut off = round.outs.clone();
        off[1].energy = f64::from_bits(off[1].energy.to_bits() + 1);
        assert!(!check(&cfg, reference, &off).ok(), "one ulp off");

        let mut lost = round.outs.clone();
        lost[0].tasks_done -= 1;
        assert!(!check(&cfg, reference, &lost).ok(), "lost task");
    }

    #[test]
    fn traced_round_parts_add_up() {
        // The recorder is process-wide: one traced round at a time.
        let _g = obs::test_guard();
        let cfg = CcsdConfig::tiny();
        let round = crate::rt::round(&Ccsd { cfg }, true);
        let l = round.layers.expect("traced");
        assert!(l.get("armci.get_strided.calls") > 0.0);
        assert!(l.get("armci.acc_strided.calls") > 0.0);
        assert!(l.get("armci.rmw.calls") > 0.0);
        assert!(l.get("mpi.gets") > 0.0);
        assert_eq!(round.sums.len(), 2);
        for s in &round.sums {
            assert!(s.virtual_ok() && s.host_ok(), "rank {}", s.rank);
        }
    }
}

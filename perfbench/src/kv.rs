//! `kv`: the parameter-server loop, `workloads::kv::run_kv`, with both
//! ranks as clients, checked for linearizability here rather than by the
//! program's own oracle.

use crate::report::Checks;
use crate::rt::RankWork;
use armci::Armci;
use mpisim::Proc;
use workloads::kv::{run_kv, KvOpts, KvResult};

/// Full size for `seed`: 200k operations per rank over 1,024 keys, half
/// reads and half fetch-and-add writes, 60% of them on 4 hot keys.
pub fn full(seed: u64) -> KvOpts {
    KvOpts {
        keys: 1024,
        ops_per_rank: 200_000,
        read_pct: 50,
        hot_pct: 60,
        hot_keys: 4,
        seed,
        think_s: 0.0,
    }
}

pub struct Kv {
    pub opts: KvOpts,
}

impl RankWork for Kv {
    type Out = KvResult;

    fn run<A: Armci + ?Sized>(&self, p: &Proc, rt: &A) -> KvResult {
        run_kv(p, rt, &self.opts)
    }
}

/// Linearizability of the counters, one operation per read, write and
/// per-rank final value:
/// * per key, the pre-increment values seen by all writes are exactly
///   `0..w` (no lost update, no duplicated ticket);
/// * every rank reads `w` as the key's final value;
/// * every read of the key lies in `[0, w]`;
/// * reads plus writes account for every issued operation.
pub fn check(opts: &KvOpts, outs: &[KvResult]) -> Checks {
    let mut c = Checks::default();
    let mut tickets: Vec<Vec<i64>> = vec![Vec::new(); opts.keys];
    let mut issued = 0usize;
    for r in outs {
        issued += r.reads.len() + r.writes.len();
        for &(k, prev) in &r.writes {
            tickets[k].push(prev);
        }
    }
    let want = outs.len() * opts.ops_per_rank;
    c.expect(1, issued == want, || {
        format!("kv: {issued} reads + writes, expected {want}")
    });
    for (k, t) in tickets.iter_mut().enumerate() {
        t.sort_unstable();
        let gap_free = t.iter().enumerate().all(|(i, &v)| v == i as i64);
        c.expect(t.len() as u64, gap_free, || {
            format!("kv: key {k} tickets are not 0..{}", t.len())
        });
    }
    for (rank, r) in outs.iter().enumerate() {
        for (k, t) in tickets.iter().enumerate() {
            let fin = r.finals.get(k).copied();
            c.expect(1, fin == Some(t.len() as i64), || {
                format!(
                    "kv: rank {rank} final of key {k} is {fin:?}, {} writes",
                    t.len()
                )
            });
        }
        for &(k, v) in &r.reads {
            let w = tickets[k].len() as i64;
            c.expect(1, (0..=w).contains(&v), || {
                format!("kv: rank {rank} read {v} from key {k} outside [0, {w}]")
            });
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_passes_and_corruptions_are_rejected() {
        let opts = KvOpts {
            keys: 16,
            ops_per_rank: 400,
            ..full(7)
        };
        let round = crate::rt::round(&Kv { opts: opts.clone() }, false);
        let c = check(&opts, &round.outs);
        assert!(c.ok(), "{:?}", c.first_failure);
        assert_eq!(c.attempted, 1 + 2 * 400 + 2 * 16);

        // A duplicated ticket: a second write sees the first one's value.
        let mut dup = round.outs.clone();
        let (k0, v0) = dup[0].writes[0];
        let j = dup[1].writes.iter().position(|&(k, _)| k == k0).unwrap();
        dup[1].writes[j].1 = v0;
        assert!(!check(&opts, &dup).ok(), "duplicated ticket");

        let mut stale = round.outs.clone();
        stale[1].finals[0] -= 1;
        assert!(!check(&opts, &stale).ok(), "stale final");

        let mut torn = round.outs.clone();
        torn[0].reads[0].1 = -1;
        assert!(!check(&opts, &torn).ok(), "read out of range");
    }

    #[test]
    fn traced_round_parts_add_up() {
        // The recorder is process-wide: one traced round at a time.
        let _g = obs::test_guard();
        let opts = KvOpts {
            keys: 16,
            ops_per_rank: 200,
            ..full(3)
        };
        let round = crate::rt::round(&Kv { opts }, true);
        let l = round.layers.expect("traced");
        assert!(l.get("armci.rmw.calls") > 0.0);
        assert!(l.get("armci.get_strided.calls") > 0.0);
        assert!(l.get("mpi.rmws") > 0.0);
        for s in &round.sums {
            assert!(s.virtual_ok() && s.host_ok(), "rank {}", s.rank);
        }
    }
}

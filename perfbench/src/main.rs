//! `perfbench --workload <ccsd|kv|des> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload through the program's public entry points in whole
//! rounds until `--seconds` have passed, checks every round's outputs
//! independently, and prints one line per round, a `host:` context line
//! and, last, the result line. With `--trace 0` the result carries the
//! end-to-end metrics (medians over rounds); with `--trace 1` each round
//! runs traced and the result carries the per-layer metrics (means over
//! rounds). See README.md.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc files and calls clock_gettime with a 64-bit timespec");

mod ccsd;
mod des;
mod host;
mod kv;
mod report;
mod rt;
mod traced;

use report::{median, per_layer, result_line, Checks, Layers, END_TO_END};
use std::time::Instant;
use workloads::scale::kv_scale;

const USAGE: &str =
    "usage: perfbench --workload <ccsd|kv|des> --seed <u64> --seconds <1..=600> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "ccsd" | "kv" | "des" => workload = Some(value.clone()),
                _ => return Err(format!("unknown workload {value}")),
            },
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("trace must be 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One round's measurements.
struct Sample {
    virtual_s: f64,
    cpu_s: f64,
    wall_s: f64,
    /// Set-up samples taken in this round.
    setup_s: Vec<f64>,
    layers: Option<Layers>,
}

/// A run's rounds and checks, and the peak resident set after its first
/// round.
struct Run {
    samples: Vec<Sample>,
    checks: Checks,
    first_peak_rss_mb: f64,
}

/// Runs whole rounds until `seconds` have passed (at least one).
fn rounds(seconds: f64, mut one: impl FnMut() -> (Sample, Checks)) -> Run {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut checks = Checks::default();
    let mut first_peak_rss_mb = 0.0;
    loop {
        let (s, c) = one();
        let peak = host::peak_rss_mib();
        if samples.is_empty() {
            first_peak_rss_mb = peak;
        }
        println!(
            "round {}: virtual_s={} cpu_s={} wall_s={} setup_s={} peak_rss_mb={} checked={} failed={}",
            samples.len(),
            s.virtual_s,
            s.cpu_s,
            s.wall_s,
            median(&s.setup_s),
            peak,
            c.attempted,
            c.failed
        );
        checks.merge(c);
        samples.push(s);
        if start.elapsed().as_secs_f64() >= seconds {
            return Run {
                samples,
                checks,
                first_peak_rss_mb,
            };
        }
    }
}

/// A runtime round's sample, with the traced run's per-rank sum checks
/// folded into `checks` and [`rt::EXTRA_SETUPS`] more set-up samples.
fn runtime_sample<T>(r: &rt::Round<T>, checks: &mut Checks) -> Sample {
    for s in &r.sums {
        println!(
            "rank {}: virtual parts {} whole {}; host parts {} whole {}",
            s.rank, s.virtual_parts, s.virtual_whole, s.host_parts, s.host_whole
        );
        checks.expect(1, s.virtual_ok(), || {
            format!(
                "rank {}: virtual parts do not sum to the elapsed time",
                s.rank
            )
        });
        checks.expect(1, s.host_ok(), || {
            format!("rank {}: host parts do not sum to the elapsed time", s.rank)
        });
    }
    Sample {
        virtual_s: r.virtual_s,
        cpu_s: r.cpu_s,
        wall_s: r.wall_s,
        setup_s: std::iter::once(r.setup_s)
            .chain((0..rt::EXTRA_SETUPS).map(|_| rt::setup_only()))
            .collect(),
        layers: r.layers.clone(),
    }
}

fn run_ccsd(args: &Args) -> Run {
    let cfg = ccsd::FULL;
    let reference = ccsd::reference_energy(&cfg);
    let work = ccsd::Ccsd { cfg };
    rounds(args.seconds, || {
        let r = rt::round(&work, args.trace);
        let mut c = ccsd::check(&cfg, reference, &r.outs);
        let mut s = runtime_sample(&r, &mut c);
        if let Some(l) = s.layers.as_mut() {
            let tasks: usize = r.outs.iter().map(|o| o.tasks_done).sum();
            l.add("proxy.tasks", tasks as f64);
        }
        (s, c)
    })
}

fn run_kv(args: &Args) -> Run {
    let work = kv::Kv {
        opts: kv::full(args.seed),
    };
    rounds(args.seconds, || {
        let r = rt::round(&work, args.trace);
        let mut c = kv::check(&work.opts, &r.outs);
        (runtime_sample(&r, &mut c), c)
    })
}

fn run_des(args: &Args) -> Run {
    // The traced round times each configuration on its own and compares
    // it with the program's series, computed once here, untimed.
    let reference = args.trace.then(|| kv_scale(&des::inputs().0));
    rounds(args.seconds, || {
        let setup_s = vec![des::setup_s()];
        let (platform, points) = des::inputs();
        let t = host::Stamp::now();
        let (rows, layers, mut c) = match &reference {
            None => (kv_scale(&platform), None, Checks::default()),
            Some(rows) => {
                let (l, c) = des::traced(&points, rows);
                (rows.clone(), Some(l), c)
            }
        };
        let (cpu_s, wall_s) = (t.cpu_s(), t.wall_s());
        c.merge(des::check(&points, &rows));
        let virtual_s = rows.iter().map(|r| r.makespan_s).sum();
        let layers = layers.map(|mut l| {
            l.add("traced.cpu_s", cpu_s);
            l.add("traced.virtual_s", virtual_s);
            l
        });
        let s = Sample {
            virtual_s,
            cpu_s,
            wall_s,
            setup_s,
            layers,
        };
        (s, c)
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let steal0 = host::steal_s();
    let start = host::Stamp::now();
    let (run, rank_threads) = match args.workload.as_str() {
        "ccsd" => (run_ccsd(&args), rt::RANKS),
        "kv" => (run_kv(&args), rt::RANKS),
        _ => (run_des(&args), 0),
    };
    let Run {
        samples,
        checks,
        first_peak_rss_mb,
    } = run;
    let steal = match (steal0, host::steal_s()) {
        (Some(a), Some(b)) => format!("{:.2}", b - a),
        _ => "null".to_string(),
    };
    println!(
        "host: {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"rank_threads\": {}, \"rounds\": {}, \"wall_s\": {:.3}, \"cpu_s\": {:.3}, \"steal_s\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        rank_threads,
        samples.len(),
        start.wall_s(),
        start.cpu_s(),
        steal
    );
    if let Some(f) = &checks.first_failure {
        eprintln!("perfbench: check failed: {f}");
    }
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let layers: Vec<Layers> = samples.iter().filter_map(|s| s.layers.clone()).collect();
        let mean = Layers::mean(&layers);
        per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = mean.get(&name);
                (name, v, unit)
            })
            .collect()
    } else {
        let med = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        let values = [
            med(|s| s.virtual_s),
            med(|s| s.cpu_s),
            median(
                &samples
                    .iter()
                    .flat_map(|s| s.setup_s.clone())
                    .collect::<Vec<_>>(),
            ),
            first_peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _), v)| (name.to_string(), v, *unit))
            .collect()
    };
    println!("{}", result_line(&checks, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv("--workload kv --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "kv".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload kv --seed -1 --seconds 1 --trace 0",
            "--workload kv --seed 1 --seconds 0 --trace 0",
            "--workload kv --seed 1 --seconds 1 --trace 2",
            "--workload kv --seed 1 --seconds 1",
            "--workload kv --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}

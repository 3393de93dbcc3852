#!/usr/bin/env python3
"""Build and run the GA / ARMCI-MPI simulator benchmark.

  python3 perfbench/run.py --workload <ccsd|kv|des> --seed N --seconds S --trace <0|1>
      One run (see README.md). The last stdout line is the result JSON.
  python3 perfbench/run.py repeat --workload W [--runs 10] [--seconds S] [--first-seed 1] [--trace 0]
      N runs with seeds first-seed.. ; median, quartiles and spread of every metric.
  python3 perfbench/run.py compare A.txt B.txt
      Lines up the result lines of two saved reports and names the layer that moved most.
  python3 perfbench/run.py selftest
      The benchmark's own tests at small sizes.

Run from the repository root. The program is built from source with cargo
into $CARGO_TARGET_DIR (default .bench_build); build output goes to stderr.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


# Loops aligned to 64 bytes: with LLVM's default alignment the ccsd hot
# path ran at 3.2 or 5.1 CPU-s per round depending on unrelated code
# elsewhere in the binary; aligned, both builds ran at 3.3.
RUSTFLAGS = "-C llvm-args=-align-loops=64"


def cargo_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.path.dirname(HERE), ".bench_build"))
    env["RUSTFLAGS"] = (env.get("RUSTFLAGS", "") + " " + RUSTFLAGS).strip()
    return env


def build():
    """Builds the benchmark binary; exits with cargo's code on failure."""
    env = cargo_env()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    code = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
    if code != 0:
        sys.exit(code)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def last_result(lines):
    """The result JSON (last line) and the host context line of a report."""
    lines = [l for l in lines if l.strip()]
    if not lines:
        raise ValueError("empty report")
    host = next((json.loads(l[len("host: "):]) for l in lines if l.startswith("host: ")), {})
    return json.loads(lines[-1]), host


def bounds():
    try:
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
    except OSError:
        return {}, 10
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}, spec["run_seconds"]


def opt(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 >= len(args):
            sys.exit(f"{name} needs a value")
        return args[i + 1]
    return default


def repeat(args):
    workload = opt(args, "--workload", None)
    if workload is None:
        sys.exit("repeat needs --workload")
    bound, run_seconds = bounds()
    runs = int(opt(args, "--runs", "10"))
    seconds = opt(args, "--seconds", str(run_seconds))
    first = int(opt(args, "--first-seed", "1"))
    trace = opt(args, "--trace", "0")
    binary = build()
    values, shares = {}, []
    for seed in range(first, first + runs):
        cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        res, host = last_result(out.splitlines())
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              f"rounds={host.get('rounds')} wall_s={host.get('wall_s')} steal_s={host.get('steal_s')} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in res["metrics"].items() if trace == "0"),
              flush=True)
    print(f"{workload}: {runs} runs, failed share {sorted(set(shares))}")
    print(f"{'metric':40} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, (unit, v) in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        b = bound.get(name)
        verdict = "" if b is None else ("steady" if spread < b / 3 else "WIDE")
        print(f"{name:40} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if b is None else b:>6} {verdict}")


def compare(args):
    if len(args) != 2:
        sys.exit("usage: run.py compare A.txt B.txt")
    (a, _), (b, _) = (last_result(open(p).read().splitlines()) for p in args)
    print(f"{'metric':40} {'unit':6} {'A':>14} {'B':>14} {'B-A':>14} {'rel':>8}")
    movers = {}
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            print(f"{name:40} missing from B")
            continue
        va, vb, unit = ma["value"], mb["value"], ma["unit"]
        rel = (vb - va) / abs(va) if va else (0.0 if vb == va else float("inf"))
        print(f"{name:40} {unit:6} {va:14.6g} {vb:14.6g} {vb - va:14.6g} {rel:8.2%}")
        # A layer is the metric name less its last part; traced.* are the
        # whole-run totals the layers split, not a layer.
        layer = name.rsplit(".", 1)[0]
        if layer != "traced" and "." in name:
            key = unit if unit in ("s", "sim_s") else "count"
            score = abs(vb - va) if key != "count" else abs(rel)
            best = movers.get(key)
            if best is None or score > best[0]:
                movers[key] = (score, layer, name, vb - va, rel)
    for key, label in (("s", "host time"), ("sim_s", "virtual time"), ("count", "counts")):
        if key in movers and movers[key][0] > 0:
            _, layer, name, delta, rel = movers[key]
            print(f"largest {label} mover: layer {layer} ({name} {delta:+.6g}, {rel:+.2%})")
        elif key in movers:
            print(f"largest {label} mover: none, every {label} metric is unchanged")


def main():
    args = sys.argv[1:]
    if args[:1] == ["repeat"]:
        repeat(args[1:])
    elif args[:1] == ["compare"]:
        compare(args[1:])
    elif args[:1] == ["selftest"]:
        cmd = ["cargo", "test", "--release", "--offline", "--manifest-path", MANIFEST]
        sys.exit(subprocess.run(cmd, env=cargo_env()).returncode)
    else:
        binary = build()
        sys.stdout.flush()
        os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()

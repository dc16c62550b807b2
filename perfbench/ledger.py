#!/usr/bin/env python3
"""The benchmark's ledger: run the whole battery, diff two results.

    python3 perfbench/ledger.py run [--seed 21] [--runs 3] [--out FILE]
    python3 perfbench/ledger.py diff A.json B.json [--layers]
    python3 perfbench/ledger.py selfcheck [--seed 21] [--runs 3]
    python3 perfbench/ledger.py spread [--seeds 10]

Run from the repository root. Everything the battery is — command,
workloads, seconds per run, metrics, directions and bounds — is read
from BENCHMARK.json, so this script and the driver that gates later
changes measure the same thing. Each run is one process of the Rust
driver (`perfbench/src/main.rs`); this script only starts them, collects
their result lines and compares numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer figures that are counts made by the program and repeat
# exactly, with the workloads they are exact on (one client, fixed
# plans). `diff` reports any change in them, however small.
EXACT = {
    "exec.work_per_op": ["job_warm", "online_drift"],
    "exec.parallel.work_per_op": ["job_warm"],
    "serve.online.generations_to_parity": ["online_drift"],
    "serve.online.work_ratio_vs_expert": ["online_drift"],
}


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    """One process, one result line."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} (seed {seed}, trace {trace}) printed no result:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} (seed {seed}, trace {trace}) failed its oracle:\n{proc.stderr[-2000:]}")
    return result


def spread_of(values):
    """Distance between the quartiles as a share of the median (the
    whole range when there are too few values for quartiles)."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(mid)


def summarise(results):
    """Median and every value of each metric over repeated runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        out[name] = {
            "value": statistics.median(values),
            "unit": results[0]["metrics"][name]["unit"],
            "runs": values,
        }
    return out


def battery(bench, seed, runs):
    """Every workload, `runs` untraced and one traced run each."""
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
    out = {
        "seed": seed,
        "runs": runs,
        "run_seconds": bench["run_seconds"],
        "host": {"nproc": os.cpu_count(), "commit": commit},
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        untraced = [run_once(bench, name, seed, 0) for _ in range(runs)]
        traced = run_once(bench, name, seed, 1)
        failed = sum(r["failed"] for r in untraced) + traced["failed"]
        out["workloads"][name] = {
            "attempted": untraced[0]["attempted"],
            "failed": failed,
            "end_to_end": summarise(untraced),
            "per_layer": summarise([traced]),
        }
        print(f"== {name}: {untraced[0]['attempted']} ops per run, {failed} failed")
        for metric, m in out["workloads"][name]["end_to_end"].items():
            print(f"  {metric:<44} {m['value']:>16.4f} {m['unit']:<8} spread {spread_of(m['runs']):.3f}")
        for metric, m in out["workloads"][name]["per_layer"].items():
            print(f"  {metric:<44} {m['value']:>16.4f} {m['unit']}")
    return out


def worse_by(a, b, better):
    """How much worse `b` is than `a`, as a share of `a`."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def diff(bench, a, b, layers):
    """One row per (workload, metric). Returns whether all rows pass."""
    ok = True
    print(f"{'workload':<18} {'metric':<38} {'A':>14} {'B':>14} {'B/A':>8}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:<18} missing from {'A' if wa is None else 'B'}")
            ok = False
            continue
        for m in bench["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse = worse_by(ma["value"], mb["value"], m["better"])
            noise = max(spread_of(ma["runs"]), spread_of(mb["runs"]))
            if worse <= m["bound"]:
                verdict = "pass"
            elif noise > m["bound"] and not all_worse(ma["runs"], mb["runs"], m["better"]):
                verdict = f"unresolved (spread {noise:.3f} > bound {m['bound']})"
                ok = False
            else:
                verdict = f"REGRESS (worse by {worse:.3f} > bound {m['bound']})"
                ok = False
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            print(f"{name:<18} {m['name']:<38} {ma['value']:>14.4f} {mb['value']:>14.4f} {ratio:>8.3f}  {verdict}")
        for metric, ma in wa["per_layer"].items():
            mb = wb["per_layer"].get(metric)
            if mb is None:
                continue
            exact = name in EXACT.get(metric, [])
            if exact and ma["value"] != mb["value"]:
                verdict = "CHANGED (exact metric)"
                ok = False
            elif exact:
                verdict = "identical"
            elif layers:
                verdict = ""
            else:
                continue
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            print(f"{name:<18} {metric:<38} {ma['value']:>14.4f} {mb['value']:>14.4f} {ratio:>8.3f}  {verdict}")
    return ok


def all_worse(runs_a, runs_b, better):
    """Every run of B reads worse than every run of A."""
    if better == "lower":
        return min(runs_b) > max(runs_a)
    return max(runs_b) < min(runs_a)


def spread(bench, seeds):
    """The check the driver makes before it accepts the benchmark: ten
    runs per workload, each at another seed; the quartile distance of
    every end-to-end metric, as a share of its median, against its
    bound."""
    ok = True
    for w in bench["workloads"]:
        results = [run_once(bench, w["name"], 100 + 7 * i, 0) for i in range(seeds)]
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread_of(values)
            third = s <= m["bound"] / 3 or m["name"] == "setup_s"
            ok &= third
            print(f"{w['name']:<18} {m['name']:<12} median {statistics.median(values):>14.4f} "
                  f"spread {s:.4f} bound {m['bound']} {'ok' if third else 'ABOVE A THIRD OF THE BOUND'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("run", "selfcheck"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=21)
        p.add_argument("--runs", type=int, default=3)
        if name == "run":
            p.add_argument("--out", default=os.path.join("perfbench", "out", "BENCH.json"))
    p = sub.add_parser("diff")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--layers", action="store_true", help="print every per-layer metric too")
    p = sub.add_parser("spread")
    p.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bench = benchmark()

    if args.cmd == "run":
        result = battery(bench, args.seed, args.runs)
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
        print(f"written to {args.out}")
    elif args.cmd == "diff":
        with open(args.a) as fa, open(args.b) as fb:
            sys.exit(0 if diff(bench, json.load(fa), json.load(fb), args.layers) else 1)
    elif args.cmd == "selfcheck":
        first = battery(bench, args.seed, args.runs)
        second = battery(bench, args.seed, args.runs)
        sys.exit(0 if diff(bench, first, second, False) else 1)
    elif args.cmd == "spread":
        sys.exit(0 if spread(bench, args.seeds) else 1)


if __name__ == "__main__":
    main()

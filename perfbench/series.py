#!/usr/bin/env python3
"""Repeat benchmark runs, summarise their spread, and compare two sets.

    python3 perfbench/series.py run --workloads batch_dense,serve_fleet \\
        --seeds 1-10 --out results/base.jsonl [--trace 0|1]
    python3 perfbench/series.py summary results/base.jsonl
    python3 perfbench/series.py compare results/base.jsonl results/new.jsonl

A result set is a JSONL file of run.py results (run.py --out appends
one).  `summary` prints each metric's median, quartiles and spread
(interquartile range over median) per workload, and flags a spread wider
than the metric's bound in BENCHMARK.json.  `compare` prints the change
of every metric's median from the first set to the second, one row per
workload; an end-to-end metric worse by more than its bound is marked
"!", and one whose spread in the first set exceeds its bound is
unresolved ("?").  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    meta = {}
    for m in spec["end_to_end"]:
        meta[m["name"]] = dict(m, kind="e2e")
    for m in spec["per_layer"]:
        meta[m["name"]] = dict(m, kind="layer", bound=None)
    return spec, meta


def load_set(path):
    """{workload: {metric: [values...]}} from a JSONL result set."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            per = out.setdefault(r["workload"], {})
            for name, m in r["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def cmd_run(args):
    spec, _ = load_spec()
    failed = 0
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0]}",
                  flush=True)
            failed += proc.returncode != 0
    return 1 if failed else 0


def cmd_summary(args):
    _, meta = load_spec()
    data = load_set(args.set)
    flagged = 0
    for workload, metrics in data.items():
        n = max(len(v) for v in metrics.values())
        print(f"\n{workload} ({n} runs)")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            bound = meta.get(name, {}).get("bound")
            flag = ""
            if bound is not None and s > bound:
                flag = "  WIDER THAN BOUND"
                flagged += 1
            elif bound is not None and s > bound / 3:
                flag = "  over a third of bound"
            print(f"  {name:34} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 1 if flagged else 0


def change(meta, name, base, new):
    """Relative change of the median, signed so that + means worse."""
    b, n = statistics.median(base), statistics.median(new)
    if b == 0:
        return None if n == 0 else float("inf")
    rel = (n - b) / abs(b)
    return rel if meta.get(name, {}).get("better", "lower") == "lower" else -rel


def cmd_compare(args):
    _, meta = load_spec()
    base, new = load_set(args.base), load_set(args.new)
    present = {n for per in (*base.values(), *new.values()) for n in per}
    order = [n for n in meta if n in present]
    regressed = 0
    print("change of each median, + = worse, ! = worse than its bound, "
          "? = base spread wider than the bound")
    for kind in ("e2e", "layer"):
        names = [n for n in order if meta[n]["kind"] == kind]
        for start in range(0, len(names), 6):
            block = names[start:start + 6]
            print("\n  " + f"{'workload':16}" +
                  "".join(f"{n[-22:]:>24}" for n in block))
            for workload in base:
                if workload not in new:
                    continue
                cells = []
                for name in block:
                    b, n = base[workload].get(name), new[workload].get(name)
                    if not b or not n:
                        cells.append("-")
                        continue
                    c = change(meta, name, b, n)
                    if c is None:
                        cells.append("0 -> 0")
                        continue
                    mark = ""
                    bound = meta[name].get("bound")
                    if bound is not None and spread(b) > bound:
                        mark = "?"
                    elif bound is not None and c > bound:
                        mark = "!"
                        regressed += 1
                    cells.append(f"{c * 100:+.1f}%{mark}")
                print("  " + f"{workload:16}" +
                      "".join(f"{c:>24}" for c in cells))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads", required=True)
    run.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    summary = sub.add_parser("summary")
    summary.add_argument("set")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args()
    if args.cmd == "run":
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        return cmd_run(args)
    return cmd_summary(args) if args.cmd == "summary" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare benchmark runs: spread of one set, or a candidate set against a
baseline set, with the bounds BENCHMARK.json fixes.

    python3 perfbench/gate.py spread RUN.out...
    python3 perfbench/gate.py compare --base RUN.out... --cand RUN.out...

Each RUN.out is the full stdout of one `perfbench/run.py --trace 0` run.
Runs are grouped by workload. For every end-to-end metric, `compare`
reports:

  regression  the candidate median is worse than the baseline median by
              more than the metric's bound;
  unresolved  the baseline's own spread (interquartile range / median)
              is wider than the bound, and not every candidate run beats
              every baseline run;
  no change   otherwise.

setup_s is judged on its median alone. The host stamp of every run is
compared first: when the two sets come from hosts whose copy or gather
probes differ by more than 15%, whose CPU time stolen by other guests
differs by more than 5 points, or whose CPU counts differ, the result is
flagged instead of silently compared.

Exit status: 0 no regression, 1 a regression, 3 hosts differ.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_TOLERANCE = 0.15
STEAL_TOLERANCE = 0.05  # absolute share of CPU time


def load_bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def parse_run(path):
    """(workload, host stamp, result object) of one run's stdout."""
    workload, host, lines = None, None, []
    with open(path) as f:
        lines = [l.strip() for l in f if l.strip()]
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[5:])
        elif line.startswith("workload "):
            workload = line.split()[1]
    if not lines or workload is None:
        raise ValueError("%s: not a benchmark run" % path)
    return workload, host, json.loads(lines[-1])


def group(paths):
    runs = {}
    for p in paths:
        w, host, result = parse_run(p)
        runs.setdefault(w, []).append((host, result))
    return runs


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def host_check(base, cand):
    """A reason the two sets' hosts differ, or None."""
    def med(runs, key):
        return statistics.median(h[key] for h, _ in runs if h)
    for key in ("copy_gbps", "gather_mops"):
        b, c = med(base, key), med(cand, key)
        if abs(c - b) > HOST_TOLERANCE * b:
            return "%s %.4g vs %.4g" % (key, b, c)
    b, c = med(base, "steal_frac"), med(cand, "steal_frac")
    if abs(c - b) > STEAL_TOLERANCE:
        return "steal_frac %.3f vs %.3f" % (b, c)
    nb = {h["nproc"] for h, _ in base if h}
    nc = {h["nproc"] for h, _ in cand if h}
    if nb != nc:
        return "nproc %s vs %s" % (sorted(nb), sorted(nc))
    return None


def values(runs, name):
    return [r["metrics"][name]["value"] for _, r in runs]


def verdict(metric, base_vals, cand_vals):
    lower = metric["better"] == "lower"
    b, c = statistics.median(base_vals), statistics.median(cand_vals)
    worse = (c - b) / b if lower else (b - c) / b
    if worse > metric["bound"]:
        return "regression", worse
    if metric["name"] != "setup_s" and spread(base_vals) > metric["bound"]:
        beats = (max(cand_vals) < min(base_vals) if lower
                 else min(cand_vals) > max(base_vals))
        if not beats:
            return "unresolved", worse
    return "no change", worse


def compare(base_paths, cand_paths, out=sys.stdout):
    """Print the per-workload verdicts; return the exit status."""
    bounds = load_bounds()
    base, cand = group(base_paths), group(cand_paths)
    status = 0
    for w in sorted(set(base) & set(cand)):
        why = host_check(base[w], cand[w])
        if why:
            print("%s: HOST DIFFERS (%s): not compared" % (w, why), file=out)
            status = max(status, 3)
            continue
        for name, m in bounds.items():
            v, worse = verdict(m, values(base[w], name), values(cand[w], name))
            print("%s %-16s %-11s worse by %+.1f%% (bound %.0f%%)"
                  % (w, name, v, 100 * worse, 100 * m["bound"]), file=out)
            if v == "regression" and status != 3:
                status = 1
    return status


def print_spread(paths):
    bounds = load_bounds()
    for w, runs in sorted(group(paths).items()):
        bad = [r for _, r in runs if not r["correct"]]
        print("%s: %d runs, %d incorrect, host steal median %.3f"
              % (w, len(runs), len(bad),
                 statistics.median(h.get("steal_frac", 0) for h, _ in runs)))
        for name, m in bounds.items():
            vals = values(runs, name)
            s = spread(vals)
            flag = ("" if name == "setup_s" or s < m["bound"] / 3
                    else "  <-- above a third of the bound")
            print("  %-16s median %-12.6g spread %5.1f%% (bound %.0f%%)%s"
                  % (name, statistics.median(vals), 100 * s,
                     100 * m["bound"], flag))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("runs", nargs="+")
    cp = sub.add_parser("compare")
    cp.add_argument("--base", nargs="+", required=True)
    cp.add_argument("--cand", nargs="+", required=True)
    args = ap.parse_args()
    if args.cmd == "spread":
        print_spread(args.runs)
        return 0
    return compare(args.base, args.cand)


if __name__ == "__main__":
    sys.exit(main())

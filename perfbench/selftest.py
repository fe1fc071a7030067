#!/usr/bin/env python3
"""Self-test of the regression gate (perfbench/gate.py).

    python3 perfbench/selftest.py

Runs mixed_small RUNS times in each of three sets, interleaved seed by
seed so that host drift hits all three alike:

  A, B  two clean sets of the same code;
  C     the same code with a planted slowdown: every PLANT_EVERY-th
        request of each connection carries a pb-delay-drain fault plan (a
        25 ms stall in one Binning drain), about 30% fewer requests per
        second.

It passes when the gate reports no regression for B against A and a
regression of requests_per_s for C against A, and is inconclusive (exit
3) when the gate refuses to compare sets whose host stamps differ. The
planted fault exists only here; a gated run never passes
--plant-delay-every. Run outputs are
kept in .bench_build/selftest/.
"""

import io
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gate  # noqa: E402

RUNS = 5
SECONDS = 20
PLANT_EVERY = 8


def run(out_dir, label, seed, plant_every):
    path = os.path.join(out_dir, "%s-%d.out" % (label, seed))
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "mixed_small", "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    if plant_every:
        cmd += ["--plant-delay-every", str(plant_every)]
    with open(path, "w") as f:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=f).returncode
    if rc != 0:
        sys.exit("selftest: run %s failed (exit %d, see %s)" % (label, rc, path))
    return path


def main():
    out_dir = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    sets = {"A": [], "B": [], "C": []}
    for seed in range(1, RUNS + 1):
        for label in "ABC":
            plant = PLANT_EVERY if label == "C" else 0
            sets[label].append(run(out_dir, label, seed, plant))

    clean, planted = io.StringIO(), io.StringIO()
    clean_status = gate.compare(sets["A"], sets["B"], out=clean)
    planted_status = gate.compare(sets["A"], sets["C"], out=planted)
    print("clean A vs clean B:\n" + clean.getvalue())
    print("clean A vs planted C:\n" + planted.getvalue())
    if 3 in (clean_status, planted_status):
        print("selftest INCONCLUSIVE: the sets' host stamps differ")
        return 3
    caught = any(" requests_per_s " in l and " regression " in l
                 for l in planted.getvalue().splitlines())
    ok = clean_status == 0 and caught
    print("selftest %s: clean pair %s, planted slowdown %s" % (
        "PASS" if ok else "FAIL",
        "no regression" if clean_status == 0 else "REPORTED A REGRESSION",
        "caught" if caught else "MISSED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

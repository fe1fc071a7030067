#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload run_large|mixed_small|mutate_durable \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. The first run configures and
builds perfbench/ (the repository's libraries, the cobra_server daemon and
the load generator) into .bench_build/; later runs rebuild incrementally.
Build output goes to stderr. Its last line on stdout is the JSON result,
and the exit status is nonzero when any answer was wrong. A traced run
(--trace 1) also keeps its spans in .bench_build/traces/. See
perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no cobra sources beside perfbench/, "
                 "nothing to build")
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["run_large", "mixed_small", "mutate_durable"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test only (perfbench/selftest.py): plant a known slowdown.
    ap.add_argument("--plant-delay-every", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    # Paths are relative to ROOT (the working directory) so the
    # unix socket path stays short wherever the checkout lives.
    rundir = os.path.join(".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(os.path.join(ROOT, rundir), ignore_errors=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "cobra", "examples",
                                    "cobra_server"),
           "--workdir", rundir]
    if args.plant_delay_every:
        cmd += ["--plant-delay-every", str(args.plant_delay_every)]
    try:
        rc = subprocess.run(cmd, cwd=ROOT).returncode
        trace = os.path.join(ROOT, rundir, "trace.json")
        if os.path.isfile(trace):
            os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
            shutil.copy(trace, os.path.join(
                BUILD, "traces",
                "%s-seed%d.json" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(os.path.join(ROOT, rundir), ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()

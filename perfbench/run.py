#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark executable is built with
dune in the release profile into the directory named by
CARGO_TARGET_DIR (default .bench_build), then run once, in its own
process, for the named workload. Its output is passed through; the last
line is the JSON result object.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's self-tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("flow-sb18", "css-suite", "eco-sb18")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project and lib/ here")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # the shared dune cache lives outside the checkout: keep it out
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--cache=disabled", "--profile", "release", target]
    # build chatter goes to stderr, so stdout ends with the result line
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "default", target)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.self_test:
        exe = build(build_dir, "perfbench/selftest.exe")
        sys.exit(subprocess.run([exe]).returncode)
    if args.workload is None:
        fail("--workload is required")
    exe = build(build_dir, "perfbench/main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("workload %s failed (exit %d)" % (args.workload, proc.returncode))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

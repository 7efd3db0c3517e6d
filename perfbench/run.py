#!/usr/bin/env python3
"""Builds and runs the NetCL end-to-end benchmark (see perfbench/README.md).

Run from the root of a full checkout:

    python3 perfbench/run.py --workload calc_min --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the src/ libraries it
links) into .bench_build/perfbench; later runs only re-check the build.
Build output goes to stderr. The benchmark binary's last stdout line, one
JSON object, is passed through unchanged as this script's last line. A
traced run (--trace 1) also leaves its spans in
.bench_build/perfbench/spans_<workload>_<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("calc_min", "agg_allreduce", "cache_zipf_rw")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
# The binary stops itself after 150 s; this is the backstop.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout, what):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} took longer than {timeout} s")
    if done.returncode != 0:
        fail(f"{what} failed with exit code {done.returncode}")


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("src/ not found next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 CONFIGURE_TIMEOUT_S, "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", build_dir, "--target", "netcl_e2e", "-j", jobs],
             BUILD_TIMEOUT_S, "build")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    build(build_dir)

    env = dict(os.environ)
    # Flight-recorder postmortems (written only on anomalies) stay in the
    # build tree.
    env["NETCL_FLIGHT_DIR"] = os.path.join(build_dir, "flight")
    os.makedirs(env["NETCL_FLIGHT_DIR"], exist_ok=True)
    cmd = [os.path.join(build_dir, "netcl_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        # The traced run's spans, as a Chrome trace (chrome://tracing).
        cmd += ["--trace-out",
                os.path.join(build_dir, f"spans_{args.workload}_{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} failed with exit code {done.returncode}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

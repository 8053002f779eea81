#!/usr/bin/env python3
"""Build and run the mcmi end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
library and the benchmark (Release) into .bench_build/e2ebench; later runs
reuse the build.  Each run first executes the benchmark's helper self-test,
then the workload.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it
("meta {...}") records the run's configuration.  Raw records, spans and
deterministic digests go to .e2ebench_out/; the digest files are keyed by a
content hash of the sources, so changed code starts fresh ones.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("tune_unseen", "solve_large", "serve_warm", "serve_churn")
# Serving workloads parallelise over service threads (2 workers + 1
# builder); each of those runs single-threaded OpenMP so the process never
# asks for more threads than the host has.
SERIAL_OPENMP = ("serve_warm", "serve_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """Content hash of the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit_id(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree-" + source_digest(root)[:16]


def build(root, build_dir, jobs):
    """Configure (once) and build; the build output goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "core", "types.hpp")):
        fail("library sources (src/) not found next to e2ebench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "e2ebench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    nproc = len(os.sched_getaffinity(0))
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    build(root, build_dir, nproc)

    selftest = subprocess.run([os.path.join(build_dir, "e2ebench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60)
    if selftest.returncode:
        fail("helper self-test failed")

    out_dir = os.path.join(root, ".e2ebench_out")
    os.makedirs(out_dir, exist_ok=True)
    raw = os.path.join(out_dir, "%s_s%d_t%d.json" %
                       (args.workload, args.seed, args.trace))
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1" if args.workload in SERIAL_OPENMP else str(nproc)
    cmd = [os.path.join(build_dir, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", raw, "--digests", out_dir,
           "--commit", commit_id(root), "--code", source_digest(root)[:16]]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(res.stderr)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode or not lines or not lines[-1].startswith("{"):
        fail("workload failed (exit %d)" % res.returncode)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of the database machine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload olap|ingest|crowd --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the machine's libraries from src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload and passes its output
through: "# name value unit" lines, then one JSON line with correct,
attempted, failed and the metrics. A traced run (--trace 1) also writes
its spans to $CARGO_TARGET_DIR/spans-<workload>.jsonl. The exit code is
the benchmark's: non-zero when the build fails or a check fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root if os.path.isabs(root) else os.path.join(REPO, root)


def build(build_dir):
    """Configures (once) and builds the benchmark; build output goes to
    stderr so stdout carries only the benchmark's own lines."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "perfbench", "perfbench_selftest"])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["olap", "ingest", "crowd"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every correctness check rejects "
                             "a wrong answer, then exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the machine's sources (src/) are not in " + REPO)

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                                check=False).returncode)

    work_dir = os.path.join(root, "work", "%s-%d" % (args.workload,
                                                     os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(root, "spans-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

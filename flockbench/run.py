#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Run from the repository root:

    python3 flockbench/run.py --workload scan_predict --seed 1 \
        --seconds 10 --trace 0

Workloads: scan_predict, serve_point (which ends with the ingest_mixed
phase of writes beside reads), or all. The benchmark is
configured and built (Release) under .bench_build/ at the first run and
rebuilt incrementally afterwards; build output goes to stderr. The last line
of standard output is the benchmark's JSON result. The exit code is the
benchmark's: 0 on success, 1 on an answer mismatch or a failure, 2 when a
configuration gate did not take effect.
"""
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "flockbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run(cmd, timeout, stdout=None):
    """Runs cmd to completion; kills it (and waits) on timeout or signal."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        signal.signal(signal.SIGTERM, previous)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return code
    return run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                "--target", "flockbench"], BUILD_TIMEOUT_S, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for base in ("src", "flockbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    code = build()
    if code != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    binary = os.path.join(BUILD_DIR, "flockbench")
    code = run([binary, *sys.argv[1:], "--commit", source_id()],
               RUN_TIMEOUT_S)
    return code if code >= 0 else 1  # killed by a signal


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the flexplore end-to-end benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

WORKLOAD is cold-lattice, cold-bind or edit-loop. Run it from anywhere
inside a flexplore checkout. It builds the `flexbench` package in this
directory (a cargo package of its own that depends on crates/ by path)
into $CARGO_TARGET_DIR, default `.bench_build` at the checkout root, runs
it, and prints the host record and the binary's report. The last line of
standard output is the JSON result; see src/main.rs for what it measures.

--self-test checks the benchmark itself: two traced runs with the same
seed print identical deterministic counters, a different seed generates
different specs, and every run rejects a deliberately perturbed front.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["cold-lattice", "cold-bind", "edit-loop"]
# Each run must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the benchmark binary from source; returns its path."""
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no flexplore sources next to {HERE.name}/ (expected crates/core)", 2)
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = HERE / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("cargo build of the benchmark failed")
    return target / "release" / "flexbench"


def host_record():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return f"host: nproc={nproc} rustc={rustc!r}"


def run(binary, args):
    """Runs the binary with a private work directory; returns (code, stdout)."""
    work = target_dir() / f"flexbench-work-{os.getpid()}"
    try:
        done = subprocess.run(
            [str(binary), *args, "--work-dir", str(work)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done.returncode, done.stdout


def line_with(stdout, prefix):
    return next((l for l in stdout.splitlines() if l.startswith(prefix)), None)


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        runs = {}
        for label, seed in [("a", 7), ("b", 7), ("c", 8)]:
            code, out = run(binary, ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"])
            if code != 0 or line_with(out, "self-test:") is None:
                print(f"{workload}: run {label} failed (exit {code})")
                ok = False
                break
            runs[label] = out
        else:
            same = line_with(runs["a"], "deterministic:") == line_with(runs["b"], "deterministic:")
            inputs = [line_with(runs[k], "inputs:").split(",")[1] for k in "ac"]
            print(f"{workload}: same-seed counters {'identical' if same else 'DIFFER'}; "
                  f"seeds 7 and 8 generate {'different' if inputs[0] != inputs[1] else 'IDENTICAL'} specs")
            ok = ok and same and inputs[0] != inputs[1]
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--self-test"]:
        sys.exit(self_test(binary))
    print(host_record(), flush=True)
    code, out = run(binary, args)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()

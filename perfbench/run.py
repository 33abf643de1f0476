#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` program and the repository's libraries from source
(CMake, into $CARGO_TARGET_DIR or .bench_build/), warms the benchmark's own
JIT artifact cache, then runs one workload. The program's last stdout line is
the JSON result; this script exits with the program's exit code. Everything
it writes stays under the build directory.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("gates_open", "small_jobs_journaled", "substrate_mix", "fault_campaign")
RUN_TIMEOUT_S = 170

# Environment overrides that would change what is measured (engine choice,
# kernel ISA, scheduler mode, JIT toolchain); the run pins their defaults.
PINNED_UNSET = ("GAIP_JIT", "GAIP_KERNEL", "GAIP_KERNEL_FULL_SETTLE", "GAIP_JIT_FLAGS",
                "GAIP_JIT_CXX", "GAIP_BENCH_OUT")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, env):
    cmake_dir = build_dir / "cmake"
    log = build_dir / "build.log"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")
    return cmake_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)

    env = {k: v for k, v in os.environ.items() if k not in PINNED_UNSET}
    env["TMPDIR"] = str(build_dir / "tmp")
    env["GAIP_JIT_CACHE"] = str(build_dir / "jit-cache")

    exe = build(root, build_dir, env)
    # A cold artifact compile costs seconds; it happens here, never inside
    # a measured run (perfbench fails a run that compiles).
    if subprocess.run([str(exe), "--warm-jit"], cwd=root, env=env).returncode:
        fail("JIT warm-up failed: the fault_campaign workload needs native JIT artifacts")

    # The daemon's socket lives under the out directory; a path relative to
    # the checkout keeps it inside the Unix-socket path limit.
    out_dir = os.path.relpath(build_dir / "run", root)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", out_dir]
    try:
        rc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()

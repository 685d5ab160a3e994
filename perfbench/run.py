#!/usr/bin/env python3
"""Build and run the deltamon end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload oltp_net --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench-obs-<on|off> (default .bench_build/), then runs
the benchmark binary with the same arguments. The binary's last stdout line
is the result JSON; build output goes to stderr. Extra flags:

    --obs off     build and run with -DDELTAMON_OBS=OFF
    --self-test   build and run the benchmark's own unit tests instead
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    under test when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(REPO_ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO_ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if os.environ.get("DELTAMON_GIT_SHA"):
        return os.environ["DELTAMON_GIT_SHA"]
    if not os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(obs, target):
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        REPO_ROOT, ".bench_build")
    build_dir = os.path.join(build_root, f"perfbench-obs-{obs}")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", f"-DDELTAMON_OBS={obs.upper()}"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--obs", choices=["on", "off"], default="on")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(f"deltamon sources not found under {REPO_ROOT}/src")
    if args.self_test:
        build_dir = build(args.obs, "perfbench_test")
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")])
                 .returncode)
    if not args.workload:
        fail("--workload is required")

    build_dir = build(args.obs, "deltamon_perfbench")
    cmd = [os.path.join(build_dir, "deltamon_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace-{args.workload}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

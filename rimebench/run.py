#!/usr/bin/env python3
"""Build and run the RIME stack benchmark.

    python3 rimebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rimebench/run.py --workload all  --seed N --seconds S --trace 0|1
    python3 rimebench/run.py --selftest

Run from the repository root.  The first call configures and builds
rimebench (Release) from the repository's sources into .bench_build/;
later calls rebuild incrementally.
Build output goes to .bench_build/build.log, so the last line of
standard output is the result JSON of the workload run.  RIME_*
environment overrides are removed: every workload runs the program
with its default settings.  Exit status: the workload's (1 on a
correctness failure), 2 when the sources are missing, 3 when the
build fails, 4 on a timeout.

Workloads: figures, bitlevel, serve-inproc, serve-read, serve-write (see
rimebench/METRICS.md).  "all" runs each in turn and exits nonzero if
any check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["figures", "bitlevel", "serve-inproc", "serve-read",
             "serve-write"]
RUN_TIMEOUT_S = 170


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_rev(root):
    """The git revision, or a digest of src/ when not a git checkout."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()[:12]
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("RIME_")}


def build(root, bdir, target):
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            r = subprocess.run(
                ["cmake", "-S", os.path.join(root, "rimebench"), "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT, env=clean_env())
            if r.returncode != 0:
                return False
        r = subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                            "--target", target],
                           stdout=log, stderr=subprocess.STDOUT,
                           env=clean_env())
    return r.returncode == 0


def run_workload(bdir, rev, workload, seed, seconds, trace):
    """Run one workload, echoing its output; returns (code, result)."""
    out_dir = os.path.join(bdir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "rimebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", out_dir, "--rev", rev]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=clean_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"rimebench: {workload} timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 4, None
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark helpers' tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    root = repo_root()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        print(f"rimebench: no RIME sources under {root}/src", file=sys.stderr)
        return 2
    bdir = os.path.join(root, ".bench_build")
    target = "rimebench_selftest" if args.selftest else "rimebench"
    if not build(root, bdir, target):
        print(f"rimebench: build failed; see {bdir}/build.log",
              file=sys.stderr)
        return 3
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "rimebench_selftest")],
                              env=clean_env()).returncode

    rev = source_rev(root)
    if args.workload != "all":
        code, _ = run_workload(bdir, rev, args.workload, args.seed,
                               args.seconds, args.trace)
        return code

    worst = 0
    summary = []
    for w in WORKLOADS:
        code, result = run_workload(bdir, rev, w, args.seed, args.seconds,
                                    args.trace)
        worst = worst or code
        summary.append((w, code, result))
    print("\n=== summary ===")
    for w, code, result in summary:
        if not result:
            print(f"{w:12s} exit {code}: no result")
            continue
        print(f"{w:12s} exit {code} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"    {name:40s} {m['value']:16.6g} {m['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())

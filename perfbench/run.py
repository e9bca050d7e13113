#!/usr/bin/env python3
"""Builds and runs the DSXplore-rs benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. It builds the shipped `dsx-serve` binary and
the benchmark program (`perfbench/`, a Cargo package of its own) in release
mode into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload,
and prints the program's report lines, a `host:` fingerprint line, and, as
the last line, the JSON result. With `--workload all` it runs every
workload in turn and the last line merges their results (metric names
prefixed by workload). A failed output check exits with status 1.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["train-mobilenet", "infer-mobilenet", "serve-tower-open"]
# Each run measures for --seconds and must end well inside 180 s.
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # Cargo's own output goes to stderr: stdout carries only results.
    done = subprocess.run(
        ["cargo", *args, "--release", "--offline", "-q"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    return done.returncode == 0


def build():
    return cargo(["build", "-p", "dsx-net", "--bin", "dsx-serve"]) and cargo(
        ["build", "--manifest-path", "perfbench/Cargo.toml"]
    )


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def loadavg():
    return " ".join(read("/proc/loadavg").split()[:3])


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository, so this stands in for a commit)."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f)
            for d, _, files in os.walk(base)
            for f in files
        )
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(load_before):
    flags = set()
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("flags"):
            flags = set(line.split(":", 1)[1].split())
            break
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip() if os.path.isdir(os.path.join(ROOT, ".git")) else "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_flags": sorted(f for f in flags if f in ("avx2", "fma", "avx512f", "avx512bw", "avx512vl")),
        "rustc": rustc,
        "profile": "release",
        "commit": commit,
        "source_digest": source_digest(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
    }


def run_one(workload, seed, seconds, trace):
    """Runs one workload; echoes its report lines; returns its result."""
    exe = os.path.join(target_dir(), "release", "dsx-perfbench")
    serve_bin = os.path.join(target_dir(), "release", "dsx-serve")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--serve-bin", serve_bin]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if done.returncode != 0 or not lines:
        log(f"{workload} exited with status {done.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload} ended without a JSON result: {lines[-1]!r}")
        return None
    return result


def main(argv):
    if argv == ["--self-test"]:
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
        return subprocess.run(
            ["cargo", "test", "--release", "--offline", "-q", "--manifest-path",
             "perfbench/Cargo.toml"], cwd=ROOT, env=env).returncode
    opts = {"--workload": None, "--seed": "1", "--seconds": "30", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            log(f"unknown flag {flag}")
            return 2
        opts[flag] = next(it, None)
    workload, trace = opts["--workload"], opts["--trace"]
    if workload not in WORKLOADS + ["all"] or trace not in ("0", "1"):
        log("usage: run.py --workload <%s|all> --seed N --seconds S --trace <0|1>"
            % "|".join(WORKLOADS))
        return 2
    try:
        seed, seconds = int(opts["--seed"]), int(opts["--seconds"])
    except (TypeError, ValueError):
        log("--seed and --seconds take whole numbers")
        return 2

    load_before = loadavg()
    if not build():
        log("build failed")
        return 1
    names = WORKLOADS if workload == "all" else [workload]
    results = {}
    for name in names:
        result = run_one(name, seed, seconds, trace)
        if result is None:
            return 1
        results[name] = result
    print("host: " + json.dumps(fingerprint(load_before), sort_keys=True))
    if workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[workload]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

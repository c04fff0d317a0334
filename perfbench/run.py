#!/usr/bin/env python3
"""Build and run flap_perfbench, the seeded, layered flap benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload docs --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (the flap library is
compiled from ../src) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs one workload. Its standard output ends with one JSON
line {"correct", "attempted", "failed", "metrics"}; the exit status is
non-zero when the build fails or any output disagrees with the oracle.

--self-test checks the benchmark itself: the same seed gives
byte-identical inputs and identical exact work counts in two separate
processes, another seed gives other inputs, and each workload prints
exactly the metrics BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("docs", "requests", "records")


def run_timeout(seconds):
    """A run measures for about `seconds` (a traced run adds a gate, a
    stage panel and three phases), so it gets twice that plus slack."""
    return 2 * float(seconds) + 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "Pipeline.h")):
        log(f"no flap sources under {ROOT}/src; nothing to benchmark")
        return None
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(bdir, "flap_perfbench")


def source_id():
    """The checkout need not be a git repository, so the source identity
    is a hash of every file the benchmark builds from (plus the git
    commit when there is one)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    ident = "tree-sha256:" + h.hexdigest()[:16]
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            ident += " git:" + head.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def run(exe, args, capture=False):
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [exe] + args + ["--workdir", work]
    timeout = run_timeout(args[args.index("--seconds") + 1])
    try:
        return subprocess.run(cmd, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"{' '.join(cmd)} did not finish in {timeout:g} s")
        return None


def last_json(proc):
    if proc is None or proc.returncode != 0:
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        a, b, c = (last_json(run(exe, ["--workload", w, "--seed", str(s),
                                       "--seconds", "1", "--counts"],
                                 capture=True))
                   for s in (5, 5, 6))
        expect(a is not None and a == b,
               f"{w}: same seed, identical inputs and exact counts "
               f"across processes")
        expect(a is not None and c is not None and
               a["inputs_hash"] != c["inputs_hash"],
               f"{w}: another seed, other inputs")
        for trace, names, secs in (("0", e2e, "2"), ("1", layer, "3")):
            r = last_json(run(exe, ["--workload", w, "--seed", "5",
                                    "--seconds", secs, "--trace", trace],
                              capture=True))
            ok = (r is not None and r["correct"] and r["failed"] == 0 and
                  set(r["metrics"]) == names)
            if ok and trace == "0":
                ok = all(m["value"] > 0 for m in r["metrics"].values())
            expect(ok, f"{w}: --trace {trace} passes the oracle and prints "
                       f"exactly the BENCHMARK.json metrics")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if a.self_test:
        return self_test(exe)

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace,
            "--commit", source_id()]
    if a.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, f"{a.workload}-{a.seed}.jsonl")]
    proc = run(exe, args)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())

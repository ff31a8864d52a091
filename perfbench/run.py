#!/usr/bin/env python3
"""Run one workload of the flow benchmark and print its result line.

    python3 perfbench/run.py --workload rv32_fig9 --seed 1 --seconds 10 --trace 0

Run from the root of the repository.  The first run configures and builds
perfbench/ (the repo's libraries plus the flowbench program) under
.bench_build/; later runs reuse that build.  Each workload runs in fresh
flowbench processes: several that only set up (their median is setup_s)
and one that measures.  The last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1.  README.md defines the workloads and the
metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Fresh processes that only set up; setup_s is their median.
SETUP_SAMPLES = 21
# Every flowbench process must end well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 150


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build flowbench; returns the binary's path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise RuntimeError(
            f"no flow sources: {ROOT}/src/CMakeLists.txt missing")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "flowbench"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "flowbench")


def clean_env():
    """The environment without the flow's FFET_* knobs, so every run sees
    the defaults (tracing, ledger and report sinks off; resource probe on)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FFET_")}


def flowbench(binary, args, tmp):
    """Run one flowbench process and return its JSON result line."""
    proc = subprocess.Popen([binary] + args + ["--tmp", tmp],
                            stdout=subprocess.PIPE, env=clean_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    finally:
        # Kill anything left in the process group (served workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"flowbench {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    os.makedirs(os.path.join(".bench_build", "tmp"), exist_ok=True)
    tmp = os.path.relpath(tempfile.mkdtemp(
        prefix="run-", dir=os.path.join(".bench_build", "tmp")))
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setup.append(flowbench(
                    binary, common + ["--mode", "setup"], tmp)["setup_s"])
        mode = ["--mode", "trace" if args.trace else "run"]
        if args.trace:
            traces = os.path.join(".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            mode += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
        res = flowbench(binary, common + mode, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = dict(res["metrics"])
    if setup:
        measured["setup_s"] = statistics.median(setup)
    log(f"{args.workload} seed={args.seed} info={json.dumps(res['info'])}")

    metrics = {}
    missing = []
    for m in wanted:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        log(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not missing,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"error: {e}")
        sys.exit(1)

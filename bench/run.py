"""sawlab benchmark: run one workload as a researcher does and check its outputs.

    python3 bench/run.py --workload exact --seed 1 --seconds 36 --trace 0

Each job is a fresh Python process that imports ``sawlab`` from the
checkout's ``src`` and runs the workload's operations once, one after
another (see workloads.py).  Jobs repeat, one at a time, until the next one
would overrun ``--seconds``; end-to-end metrics are medians over the jobs.
Set-up and operation times are scaled to a reference host speed by a probe
run before and after each (job.py), because the host's speed drifts.

``--trace 0`` runs untraced jobs and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics: layer metrics from the traced jobs' spans
(tracer.py), and ``trace.overhead_frac`` from the (untraced, traced) pairs.

Every operation's output is checked, and every job's artifact digests must
equal the first job's, because all jobs of a run use the same seed.  The
last line of standard output is the JSON result; the exit code is 1 when an
operation failed, 2 when the checkout holds no ``src/sawlab`` and 3 when a
metric of BENCHMARK.json went unmeasured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
JOB_TIMEOUT_S = 120

sys.path.insert(0, BENCH)
from job import REF_PROBE_S, probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run_job(request: dict) -> dict:
    """Run one job process to completion, killing its process group on timeout."""
    probe_before = probe()
    spawn_at = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "job.py"),
                             json.dumps(request)], cwd=ROOT,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return {"crashed": f"timed out after {JOB_TIMEOUT_S} s"}
    finally:
        # pool workers of a killed or crashed job must not outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        return {"crashed": f"exit code {proc.returncode}"}
    with open(request["result_path"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_setup_s"] = result["ready_at"] - spawn_at
    # scaled like an operation, by the probes just before the spawn and
    # just after the imports (the job's first probe)
    result["setup_s"] = result["wall_setup_s"] * REF_PROBE_S / (
        (probe_before + result["probe_s"][0]) / 2)
    return result


def _metadata(args, numpy_version) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "sawlab")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "small": args.small,
            "commit": commit, "source_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_jobs(args, run_dir: str):
    """Run jobs one at a time until the next would overrun ``--seconds``.

    Returns the untraced and traced job results, the failed operations, the
    number of operations attempted and the first job's artifact digests.
    """
    ops = WORKLOADS[args.workload]
    untraced, traced = [], []
    failures: dict[str, str] = {}
    attempted = 0
    digests = None
    start = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        # trace 1 alternates untraced and traced jobs, ending on a whole pair
        traced_job = args.trace == 1 and index % 2 == 1
        workdir = os.path.join(run_dir, f"job{index}")
        os.makedirs(workdir)
        job_start = time.monotonic()
        result = _run_job({
            "workload": args.workload, "seed": args.seed, "small": args.small,
            "traced": traced_job, "workdir": workdir,
            "run_id": f"{args.workload}-{args.seed}-{index}",
            "spans_path": os.path.join(run_dir, "spans.jsonl"),
            "result_path": os.path.join(run_dir, f"job{index}.json")})
        longest = max(longest, time.monotonic() - job_start)
        shutil.rmtree(workdir, ignore_errors=True)
        attempted += len(ops)
        if "crashed" in result:
            for op in ops:
                failures[f"job{index}.{op.name}"] = result["crashed"]
            break
        for name, err in result["errors"].items():
            failures[f"job{index}.{name}"] = err
        if digests is None:
            digests = result["digests"]
        for name, value in result["digests"].items():
            if digests.get(name, value) != value:
                failures[f"job{index}.{name}"] = "artifact digest differs from job 0"
        (traced if traced_job else untraced).append(result)
        index += 1
        elapsed = time.monotonic() - start
        pair_done = args.trace == 0 or index % 2 == 0
        if pair_done and elapsed + longest * (1 + args.trace) > args.seconds:
            return untraced, traced, failures, attempted, digests


def _layer_values(workload: str, untraced, traced) -> dict:
    """Per-layer medians over the traced jobs, and the tracing overhead."""
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    for name, ops in WORKLOADS.items():
        for op in ops:
            values[f"op.{name}.{op.name}_s"] = (
                statistics.median(r["op_s"][op.name] for r in traced)
                if name == workload else 0.0)
    # each traced job against the untraced job just before it, so that
    # slow drift of the host's speed cancels within a pair
    values["trace.overhead_frac"] = statistics.median(
        t["job_s"] / u["job_s"] for u, t in zip(untraced, traced)) - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="shrunk sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sawlab", "__init__.py")):
        print(f"no sawlab package under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _spec()

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    untraced, traced, failures, attempted, digests = _run_jobs(args, run_dir)
    failed = len(failures)

    values = {}
    if args.trace == 0 and untraced:
        values = {name: statistics.median(r[name] for r in untraced)
                  for name in ("job_s", "setup_s", "peak_rss_mb")}
    elif args.trace == 1 and traced:
        values = _layer_values(args.workload, untraced, traced)
        values["failed_frac"] = failed / attempted
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in spec[kind] if e["name"] in values}
    missing = {e["name"] for e in spec[kind]} - set(metrics)
    if missing and not failures:
        print(f"BENCHMARK.json names metrics this run did not measure: "
              f"{sorted(missing)}", file=sys.stderr)
        return 3

    done = untraced + traced
    meta = _metadata(args, done[0]["numpy"] if done else None)
    meta.update(
        jobs=len(done), untraced_job_s=[r["job_s"] for r in untraced],
        untraced_wall_job_s=[r["wall_job_s"] for r in untraced],
        untraced_setup_s=[r["setup_s"] for r in untraced],
        untraced_wall_setup_s=[r["wall_setup_s"] for r in untraced],
        traced_job_s=[r["job_s"] for r in traced],
        untraced_op_s={op.name: statistics.median(r["op_s"][op.name] for r in untraced)
                       for op in WORKLOADS[args.workload]} if untraced else {},
        digests=digests)
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "failures": failures, "metrics": metrics},
                  fh, indent=2)
    for name, err in failures.items():
        print(f"FAILED {name}: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

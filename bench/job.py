"""One job: a fresh process that imports sawlab and runs one workload once.

A job stands for one researcher session, so the lazy set-up a user pays on
every run (base enumerations, a fresh count table per command) is paid in
every job.  run.py starts it as

    python3 bench/job.py '<request JSON>'

and reads the result JSON the job writes to the path named in the request.
The request carries the workload, seed, working directory, whether to trace,
and where to append spans.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

# What the probe takes on a host at the reference speed.  Set-up and
# operation times are scaled by REF_PROBE_S / (probe time around them), so
# they read as seconds on that host (see "Host speed" in README.md).
REF_PROBE_S = 0.02
PROBE_STEPS = 45_000


def _import_sawlab():
    """Import the package from the checkout, never from elsewhere."""
    sys.path.insert(0, SRC)
    import sawlab
    import sawlab.cli  # noqa: F401  (the CLI is the first operation's entry)

    if os.path.dirname(os.path.dirname(os.path.abspath(sawlab.__file__))) != SRC:
        raise ImportError(f"sawlab imported from {sawlab.__file__}, not {SRC}")
    return sawlab


def _digest(job, name: str, output) -> str:
    """Hash of an operation's output and artifacts, without the volatile
    ``.meta.json`` sidecars and without the job's own directory name."""
    h = hashlib.sha256()
    text = output if isinstance(output, str) else repr(output)
    h.update(text.replace(job.outdir(name), "<out>").encode())
    outdir = job.outdir(name)
    if os.path.isdir(outdir):
        for fname in sorted(os.listdir(outdir)):
            if fname.endswith(".meta.json"):
                continue
            h.update(fname.encode())
            with open(os.path.join(outdir, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def probe() -> float:
    """Wall time of a fixed piece of work: the host's speed now.

    Half the work is lattice-walk-like pure Python (tuple arithmetic and set
    membership), half is numpy array work (cumulative sums and an
    all-pairs comparison of positions), because sawlab spends its time in
    both and the host's slow spells slow the two by different amounts.  The
    garbage collector is off while it runs, so its time does not grow with
    the objects the job holds (spans of a traced job, or whatever sawlab
    keeps alive).
    """
    import numpy as np

    # small arrays, so that probes add about 1 MB at most to peak_rss_mb
    steps = np.resize(np.arange(4, dtype=np.int64), (50, 1000))
    gc.disable()
    try:
        start = time.perf_counter()
        seen = set()
        x, y = 0, 0
        for i in range(PROBE_STEPS):
            step = (1, 0) if i % 3 else (0, 1)
            x, y = (x + step[0]) % 97, (y + step[1]) % 89
            if (x, y) not in seen:
                seen.add((x, y))
        for _ in range(10):
            walks = np.cumsum(steps, axis=1)
            int((walks[:, :, None] == walks[:, None, :8]).sum())
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(request: dict) -> dict:
    sawlab = _import_sawlab()
    import numpy

    import workloads
    ready_at = time.monotonic()

    tracer = None
    if request["traced"]:
        from tracer import Tracer

        tracer = Tracer(request["run_id"])
        tracer.install()

    ops = workloads.WORKLOADS[request["workload"]]
    job = workloads.Job(request["workdir"], request["seed"], request["small"], {})
    op_s, ref_op_s, errors = {}, {}, {}
    probe_s = [probe()]
    for op in ops:
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"op.{request['workload']}.{op.name}", "cli"):
                    job.outputs[op.name] = op.run(job)
            else:
                job.outputs[op.name] = op.run(job)
        except Exception:  # one failed operation must not stop the job
            errors[op.name] = traceback.format_exc(limit=3)
        op_s[op.name] = time.perf_counter() - start
        probe_s.append(probe())
        # the host's speed drifts by tens of percent within seconds; the
        # probes just before and after the operation estimate it
        ref_op_s[op.name] = op_s[op.name] * REF_PROBE_S / (
            (probe_s[-2] + probe_s[-1]) / 2)

    if tracer is not None:
        tracer.enabled = False
    digests = {}
    for op in ops:
        if op.name in errors:
            continue
        try:
            op.check(job, job.outputs[op.name])
        except Exception as exc:  # a failed check, or output it cannot parse
            errors[op.name] = f"check failed: {type(exc).__name__}: {exc}"
            continue
        digests[op.name] = _digest(job, op.name, job.outputs[op.name])

    result = {
        "ready_at": ready_at,
        "wall_job_s": sum(op_s.values()),
        "job_s": sum(ref_op_s.values()),
        "op_s": ref_op_s,
        "wall_op_s": op_s,
        "probe_s": probe_s,
        "errors": errors,
        "digests": digests,
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        / 1024.0,
        "numpy": numpy.__version__,
        "sawlab": sawlab.__version__,
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        tracer.write(request["spans_path"])
    return result


if __name__ == "__main__":
    req = json.loads(sys.argv[1])
    res = main(req)
    with open(req["result_path"], "w", encoding="utf-8") as fh:
        json.dump(res, fh)

"""The operations of each workload and the checks on their outputs.

An operation is one ``sawlab`` CLI command or one public API call, run in the
job process one after another: a closed loop with one client.  Every
operation writes into its own output directory, so its artifacts can be
digested; the seed goes to every command's ``--seed`` and every
``SamplerConfig``.

``sawlab`` is imported inside the operations, after the job has put the
checkout's ``src`` on the path, and its functions are looked up at call time
so that a traced job reaches the wrapped ones.  The runner imports this
module only for the operation names.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# OEIS A001411 and A001412: c_n on Z^2 and Z^3 for n = 0, 1, ...
C2 = (1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292,
      324932, 881500, 2374444)
C3 = (1, 6, 30, 150, 726, 3534, 16926, 81390, 387966, 1853886, 8809878)


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    """What the operations of one job share: seed, sizes and outputs."""

    workdir: str
    seed: int
    small: bool
    outputs: dict

    def outdir(self, op: str) -> str:
        return os.path.join(self.workdir, op)

    def files(self, op: str, suffix: str) -> list[str]:
        out = self.outdir(op)
        return sorted(os.path.join(out, f) for f in os.listdir(out)
                      if f.endswith(suffix))


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Job], object]
    check: Callable[[Job, object], None]


class CommandFailed(Exception):
    pass


def cli(name: str, argv: Callable[[Job], list[str]], check) -> Op:
    """A CLI command; its output is what it printed."""

    def run(job: Job) -> str:
        import contextlib
        import io

        import sawlab.cli

        buf = io.StringIO()
        full = argv(job) + ["--seed", str(job.seed), "--outdir", job.outdir(name)]
        with contextlib.redirect_stdout(buf):
            code = sawlab.cli.main(full)
        if code != 0:
            raise CommandFailed(f"exit code {code}: sawlab {' '.join(full)}")
        return buf.getvalue()

    return Op(name, run, check)


def _count_is(table, n, small_n):
    def check(job, out):
        expected = table[small_n if job.small else n]
        expect(int(out) == expected, f"printed {out.strip()}, expected {expected}")
    return check


def _size(job: Job, full, small):
    return str(small if job.small else full)


# -- exact -------------------------------------------------------------------


def _check_table(job, out):
    path = job.files("table_d2", ".csv")
    path = [p for p in path if "nonintersection" not in os.path.basename(p)][0]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    counts = [int(r[1]) for r in rows]
    expect(counts == list(C2[:len(counts)]) and len(counts) > 1,
           f"table counts {counts} differ from A001411")


def _check_workers(job, out):
    serial = job.outputs["count_d2"]
    expect(out == serial, f"--workers 2 printed {out!r}, serial {serial!r}")


def _cache_path(job):
    return os.path.join(job.outdir("twopoint_cold"), "cache.jsonl")


def _twopoint_argv(job):
    os.makedirs(job.outdir("twopoint_cold"), exist_ok=True)
    return ["twopoint", "-d", "3", "--point", "1,1,0", "-N", _size(job, 9, 5),
            "--mu", "4.68", "--cache", _cache_path(job)]


def _check_twopoint_cold(job, out):
    expect(float(out) > 0, f"two-point sum {out.strip()} is not positive")
    with open(_cache_path(job)) as fh:
        expect(sum(1 for _ in fh) > 0, "cold run wrote no cache lines")


def _check_twopoint_warm(job, out):
    cold = job.outputs["twopoint_cold"]
    expect(out == cold, f"warm run printed {out!r}, cold run {cold!r}")


def _check_fixedpoint(op):
    def check(job, out):
        [report] = [p for p in job.files(op, ".json") if not p.endswith(".meta.json")]
        with open(report) as fh:
            residual = json.load(fh)["residual"]
        expect(residual <= 1e-12, f"residual {residual} above tol")
        [vector] = job.files(op, ".csv")
        with open(vector, newline="") as fh:
            total = sum(float(r[2]) for r in list(csv.reader(fh))[1:])
        expect(abs(total - 1.0) <= 1e-9, f"fixed-point vector sums to {total}")
    return check


def _fixedpoint(name, d, n, small_n, horizon=None, small_horizon=None):
    def argv(job):
        out = ["fixedpoint", "-d", str(d), "-n", _size(job, n, small_n),
               "--tol", "1e-12", "--dump-vector"]
        if horizon:
            out += ["--marginal-horizon", _size(job, horizon, small_horizon)]
        return out
    return cli(name, argv, _check_fixedpoint(name))


EXACT = [
    cli("count_d2", lambda j: ["count", "-d", "2", "-n", _size(j, 14, 8)],
        _count_is(C2, 14, 8)),
    cli("count_d3", lambda j: ["count", "-d", "3", "-n", _size(j, 10, 5)],
        _count_is(C3, 10, 5)),
    cli("table_d2", lambda j: ["table", "-d", "2", "--n-max", _size(j, 14, 8)],
        _check_table),
    cli("two_sided", lambda j: ["count", "-d", "2", "-n", "0", "--two-sided",
                                _size(j, 6, 3), _size(j, 6, 3)],
        _count_is(C2, 12, 6)),
    cli("count_workers2", lambda j: ["count", "-d", "2", "-n", _size(j, 14, 8),
                                     "--workers", "2"], _check_workers),
    cli("twopoint_cold", _twopoint_argv, _check_twopoint_cold),
    cli("twopoint_warm", _twopoint_argv, _check_twopoint_warm),
    _fixedpoint("fixedpoint_d2", 2, 5, 3, horizon=12, small_horizon=6),
    _fixedpoint("fixedpoint_d4", 4, 3, 2),
]


# -- couple ------------------------------------------------------------------


def _check_decay(op, traces):
    def check(job, out):
        [decay] = job.files(op, ".csv")
        with open(decay, newline="") as fh:
            rows = list(csv.reader(fh))
        blank = rows.index([])
        expect(blank > 1, "decay table is empty")
        for r in rows[1:blank]:
            failures, trials, p_hat = int(r[2]), int(r[3]), float(r[4])
            expect(0 <= failures <= trials and 0.0 <= p_hat <= 1.0,
                   f"bad decay row {r}")
        logs = job.files(op, ".jsonl")
        if traces:
            with open(logs[0]) as fh:
                records = [json.loads(line) for line in fh]
            expect(len(records) == traces, f"{len(records)} trace logs, "
                   f"expected {traces}")
        else:
            expect(not logs, "trace logs written without --log-traces")
    return check


def _sample_sizes(job):
    return (50, 16) if job.small else (200, 64)


def _check_corpus(job, out):
    from sawlab.lattice import validate
    from sawlab.store import CorpusReader

    [path] = job.files("sample_d2", ".sawc")
    trials, n = _sample_sizes(job)
    with CorpusReader(path) as reader:
        walks = list(reader)
    expect(len(walks) == trials, f"corpus holds {len(walks)} walks, expected {trials}")
    for walk in walks:
        expect(walk.dimension == 2 and len(walk) == n, "corpus walk has wrong shape")
        validate(walk.steps, 2)


def _middles():
    from sawlab import TwoSidedPath, validate
    return (TwoSidedPath(validate([1], 2), validate([0], 2)),
            TwoSidedPath(validate([1], 2), validate([2], 2)))


def _two_sided_api(job):
    """Two-sided couplings in d=2, sides (16, 16), one stream per trial."""
    import sawlab

    m = 8 if job.small else 16
    trials = 20 if job.small else 150
    start1, start2 = _middles()
    schedule = sawlab.CouplingSchedule.geometric(1, m)
    cfg = sawlab.SamplerConfig(seed=job.seed)
    out = []
    for trial in range(trials):
        sampler = sawlab.SawSampler(2, cfg, extra_key=(trial,))
        trace = sawlab.run_two_sided_coupling(2, m, m, start1, start2, schedule,
                                              sampler=sampler)
        out.append(trace)
    return out


def _check_two_sided(job, traces):
    from sawlab.reference import _walk_vertices

    m = 8 if job.small else 16
    middle1, middle2 = _middles()
    for trace in traces:
        for walk, middle in ((trace.walk1, middle1), (trace.walk2, middle2)):
            neg, pos = walk.neg.steps, walk.pos.steps
            expect(len(neg) == m and len(pos) == m, "two-sided walk has wrong sides")
            expect(neg.startswith(middle.neg.steps) and
                   pos.startswith(middle.pos.steps),
                   "two-sided walk does not extend its middle")
            neg_v = _walk_vertices(2, tuple(neg))
            pos_v = _walk_vertices(2, tuple(pos))
            expect(neg_v is not None and pos_v is not None,
                   "a side is not self-avoiding")
            expect(set(neg_v) & set(pos_v) == {(0, 0)},
                   "the sides meet away from the origin")


COUPLE = [
    cli("couple_d5", lambda j: ["couple", "-d", "5", "--prefix1", "0",
                                "--prefix2", "2", "-N", _size(j, 24, 8),
                                "--trials", _size(j, 600, 40),
                                "--log-traces", "10"],
        _check_decay("couple_d5", 10)),
    cli("couple_d2", lambda j: ["couple", "-d", "2", "--prefix1", "0,2",
                                "--prefix2", "0,3", "-N", _size(j, 32, 10),
                                "--trials", _size(j, 120, 20)],
        _check_decay("couple_d2", 0)),
    cli("sample_d2", lambda j: ["sample", "-d", "2", "-n", str(_sample_sizes(j)[1]),
                                "--trials", str(_sample_sizes(j)[0])],
        _check_corpus),
    Op("two_sided_api", _two_sided_api, _check_two_sided),
]


# -- mc ----------------------------------------------------------------------


def _brute_mean_density(d: int, n: int, pattern: tuple[int, ...]) -> Fraction:
    from sawlab.reference import naive_saws

    k = len(pattern)
    walks = naive_saws(d, n)
    hits = sum(1 for w in walks for i in range(n - k + 1) if w[i:i + k] == pattern)
    return Fraction(hits, n * len(walks))


def _check_pattern(op, d):
    def check(job, out):
        [path] = [p for p in job.files(op, ".json") if not p.endswith(".meta.json")]
        with open(path) as fh:
            report = json.load(fh)
        expect(report["rows"], "pattern report has no rows")
        for row in report["rows"]:
            if row["mc"] is not None:
                mean = row["mc"]["mean"]
                expect(0.0 <= mean <= 1.0, f"n={row['n']}: MC mean {mean}")
            if row["exact_mean"] is not None:
                exact = Fraction(int(row["exact_mean"]["num"]),
                                 int(row["exact_mean"]["den"]))
                expect(0 <= exact <= 1, f"n={row['n']}: exact mean {exact}")
                if row["n"] <= 4:
                    brute = _brute_mean_density(d, row["n"], tuple(report["pattern"]))
                    expect(exact == brute, f"n={row['n']}: exact mean {exact}, "
                           f"brute force {brute}")
        prob = report["reference_prob"]
        if prob is not None:
            expect(0 <= Fraction(int(prob["num"]), int(prob["den"])) <= 1,
                   "reference probability outside [0, 1]")
    return check


def _estimators_api(job):
    import sawlab

    horizon, trials = (20, 200) if job.small else (100, 5000)
    return sawlab.scalar_estimators(5, horizon, trials,
                                    sawlab.SamplerConfig(seed=job.seed))


def _check_estimators(job, est):
    expect(0.0 <= est.avoid_fraction <= 1.0, f"avoid fraction {est.avoid_fraction}")
    expect(0.0 < est.mu_escape <= 10.0, f"escape estimate {est.mu_escape}")
    expect(est.msd_over_n > 0.0, f"msd/n {est.msd_over_n}")


MC = [
    cli("pattern_d2", lambda j: ["pattern", "-d", "2", "--pattern", "0,2",
                                 "--mc-lengths", "20,40" if j.small else "64,128",
                                 "--trials", _size(j, 1500, 50)],
        _check_pattern("pattern_d2", 2)),
    cli("pattern_d5", lambda j: ["pattern", "-d", "5", "--pattern", "0,2",
                                 "--exact-max", _size(j, 6, 4),
                                 "--mc-lengths", "10,20" if j.small else "50,200",
                                 "--reference-sides", _size(j, 3, 2),
                                 _size(j, 3, 2), "--trials", _size(j, 2000, 100)],
        _check_pattern("pattern_d5", 5)),
    Op("estimators_api", _estimators_api, _check_estimators),
]

WORKLOADS = {"exact": EXACT, "couple": COUPLE, "mc": MC}

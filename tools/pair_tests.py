#!/usr/bin/env python3
"""Time the two pair tests of a dimerization level that draws its halves:
sorting each pair's joined keys against the parity-matched cross compare
of ``sampling._halves_avoid``, per (half length, round rows, key dtype).

A level of n = 2 * n1 steps draws rounds of ``rows`` pairs of n1-step
halves.  Each test is timed as ``SawSampler._draw_batch`` runs it in a
round, from the drawn halves' keys to the accepted walks' keys:

    sort   join every pair into one scratch buffer, sort it in place and
           compare neighbours (``_pairs_distinct``), then join the
           accepted pairs from the intact halves (``_joined_keys``);
    cross  ``_halves_avoid`` on the halves' keys, then join the accepted
           pairs (``_joined_keys``).

The halves are real draws of the engine, in the key layout it hands the
level, and the accepted share is the level's.  Rounds past the engine's
cap of 500,000 vertex keys are skipped.  The table gives the best of
repeats of each test in microseconds and sort / cross (above 1, the
compare wins); the summary gives, per (d, n1, dtype), the fewest rows from
which the compare wins in every larger round swept, also per step of n1.
``_draw_batch`` takes the compare where n1 <= ``sampling._CROSS_HALF``
and the round has at least ``sampling._CROSS_ROWS`` * n1 rows; those
constants are read off this table, so after a numpy upgrade run it again
and move them.  The sweep takes about a minute:

    PYTHONPATH=src python3 tools/pair_tests.py

With ``--first-run`` it sweeps instead the first run of a coupling block,
the candidates ``sampling._first_accepted`` gives each row in its first
round when two walks wait on it: as many as ``_FIRST_RUN_KEYS`` vertex
keys hold, and at least one.  Each floor of keys is timed on two shapes,
one whole coupling each, alternating floors within a repeat:

    api    ``run_two_sided_coupling`` in d=2 with sides (16, 16) from the
           middles (-e1 | +e1) and (-e1 | +e2) on a geometric schedule, a
           batch of one on a fresh stream per trial (blocks of 15, 14, 12
           and 8 steps a side);
    d5     ``run_one_sided_couplings`` in d=5 with prefixes (+e1) and
           (+e2), horizon 24 and 600 trials, on a geometric schedule.

The table gives each shape's first run per block, its median and best
time per coupling in microseconds over the repeats, and the candidate
rounds of one run, counted in a pass of its own.  ``_FIRST_RUN_KEYS`` is
read off it: the fewest keys at which the api shape runs as fast as at any
floor swept, within the spread of a few sweeps, while d5 still starts at
one candidate.  It takes under a minute:

    PYTHONPATH=src python3 tools/pair_tests.py --first-run
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from sawlab import (CouplingSchedule, SamplerConfig, SawSampler, TwoSidedPath,
                    run_one_sided_couplings, run_two_sided_coupling, validate)
from sawlab import coupling, sampling
from sawlab.sampling import (_KEY_DTYPES, _halves_avoid, _joined_keys, _packing,
                             _pairs_distinct)

DIMENSIONS = (2, 5)
HALVES = (3, 6, 9, 13, 16, 20, 25, 32, 40, 50)
ROWS = (40, 100, 250, 500, 1000, 2000, 4000, 8000)
ROUND_KEYS = 500_000  # the engine's cap on a round's vertex keys
REPEAT_S = 0.05  # time spent repeating each test, at least three runs


def _accepted(test):
    def run(first, second):
        kept = np.flatnonzero(test(first, second))
        return _joined_keys(first, second, kept, kept)
    return run


_sorted = _accepted(_pairs_distinct)
_crossed = _accepted(_halves_avoid)


def _best_us(test, first, second) -> float:
    best = float("inf")
    spent = 0.0
    runs = 0
    while runs < 3 or spent < REPEAT_S:
        start = time.perf_counter()
        test(first, second)
        took = time.perf_counter() - start
        best = min(best, took)
        spent += took
        runs += 1
    return best * 1e6


def pair_sweep() -> None:
    print(f"{'d':>2} {'n1':>3} {'dtype':>5} {'rows':>6} {'accept':>6} "
          f"{'sort_us':>9} {'cross_us':>9} {'sort/cross':>10}")
    wins = {}
    for d in DIMENSIONS:
        sampler = SawSampler(d, SamplerConfig(seed=1))
        for n1 in HALVES:
            for dtype in _KEY_DTYPES:
                if 4 * n1 + 1 > _packing(d, dtype)[0]:
                    continue  # the packing does not cover the level's walks
                ratios = []
                for rows in ROWS:
                    if rows * (2 * n1 + 1) > ROUND_KEYS:
                        continue
                    first = sampler._draw_batch(n1, rows, dtype)
                    second = sampler._draw_batch(n1, rows, dtype)
                    accept = len(_crossed(first, second)) / rows
                    sort = _best_us(_sorted, first, second)
                    cross = _best_us(_crossed, first, second)
                    ratios.append((rows, sort / cross))
                    print(f"{d:>2} {n1:>3} {dtype.name:>5} {rows:>6} {accept:>6.3f} "
                          f"{sort:>9.1f} {cross:>9.1f} {sort / cross:>10.2f}",
                          flush=True)
                losing = [rows for rows, ratio in ratios if ratio < 1]
                from_rows = [rows for rows, _ in ratios if rows > max(losing, default=0)]
                wins[d, n1, dtype.name] = from_rows[0] if from_rows else None
    print("\nthe compare wins from (rows, rows / n1); - where it never does")
    for (d, n1, dtype), rows in wins.items():
        print(f"{d:>2} {n1:>3} {dtype:>5} "
              + (f"{rows:>6} {rows / n1:>6.0f}" if rows else f"{'-':>6}"))


FLOORS = (0, 128, 256, 384, 512, 768, 1024, 1536, 2048, 4096)
FIRST_RUN_REPEATS = 15
API_TRIALS = 150


def _api() -> None:
    middles = (TwoSidedPath(validate([1], 2), validate([0], 2)),
               TwoSidedPath(validate([1], 2), validate([2], 2)))
    schedule = CouplingSchedule.geometric(1, 16)
    cfg = SamplerConfig(seed=1)
    for trial in range(API_TRIALS):
        run_two_sided_coupling(2, 16, 16, *middles, schedule,
                               sampler=SawSampler(2, cfg, extra_key=(trial,)))


def _d5() -> None:
    run_one_sided_couplings(5, validate([0], 5), validate([2], 5),
                            CouplingSchedule.geometric(1, 24), 24, 600,
                            SamplerConfig(seed=1))


# shape: (run, couplings per run, (rows, vertex keys per candidate) per block)
SHAPES = {
    "api": (_api, API_TRIALS, [(1, 2 * (16 - a) + 2) for a in (1, 2, 4, 8)]),
    "d5": (_d5, 600, [(600, 24 - a + 1) for a in (1, 2, 4, 8, 16)]),
}


def _rounds(run) -> int:
    """Candidate rounds of the coupling blocks in one call of ``run``: each
    round tests its candidates against both walks in one escape test."""
    escapes, count = coupling._escapes_batch, [0]

    def counted(*args):
        count[0] += 1
        return escapes(*args)

    coupling._escapes_batch = counted
    try:
        run()
    finally:
        coupling._escapes_batch = escapes
    return count[0]


def first_run_sweep() -> None:
    print(f"{'shape':>5} {'floor':>5} {'first runs':>16} {'median_us':>9} "
          f"{'best_us':>8} {'rounds':>6}")
    default = sampling._FIRST_RUN_KEYS
    try:
        for name, (run, couplings, blocks) in SHAPES.items():
            run()  # warm the base tables and level counts
            times = {floor: [] for floor in FLOORS}
            for _ in range(FIRST_RUN_REPEATS):
                for floor in FLOORS:
                    sampling._FIRST_RUN_KEYS = floor
                    start = time.perf_counter()
                    run()
                    times[floor].append((time.perf_counter() - start) / couplings * 1e6)
            for floor in FLOORS:
                sampling._FIRST_RUN_KEYS = floor
                runs = ",".join(str(max(1, floor // (rows * width)))
                                for rows, width in blocks)
                print(f"{name:>5} {floor:>5} {runs:>16} "
                      f"{statistics.median(times[floor]):>9.1f} "
                      f"{min(times[floor]):>8.1f} {_rounds(run):>6}", flush=True)
    finally:
        sampling._FIRST_RUN_KEYS = default


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-run", action="store_true",
                        help="sweep a coupling block's first run instead")
    args = parser.parse_args()
    print(f"numpy {np.__version__}")
    first_run_sweep() if args.first_run else pair_sweep()


if __name__ == "__main__":
    main()

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
"""

from __future__ import annotations

import time

import numpy as np

from sawlab import SamplerConfig, SawSampler
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


def main() -> None:
    print(f"numpy {np.__version__}")
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


if __name__ == "__main__":
    main()

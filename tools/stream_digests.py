#!/usr/bin/env python3
"""Print one SHA-256 per seeded output of the samplers, the couplings, the
escape-matrix fixed point and the Monte Carlo estimators, and per exact
count (one-sided, under a prefix and two-sided, with keys of every width
the count kernel takes), endpoint histogram, prefix histogram, exact mean
pattern-density grid, fixed-point-against-marginal comparison and base
table of the samplers.

Two source trees draw the same streams exactly when this script prints the
same lines under both.  It imports ``sawlab`` from ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/stream_digests.py > new.txt
    PYTHONPATH=/other/checkout/src python3 tools/stream_digests.py > old.txt
    diff old.txt new.txt

Each line is ``<digest>  <output>``; the run takes a few seconds.  With
``--check FILE`` nothing is printed but the lines that differ from FILE
(lines starting with ``#`` there are comments): each is named as changed,
missing or extra, and the script exits 1 if there is any.

    PYTHONPATH=src python3 tools/stream_digests.py --check tests/stream_digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from sawlab import (
    CountTable,
    CouplingSchedule,
    Path,
    SamplerConfig,
    SawSampler,
    TwoSidedPath,
    build_escape_matrix,
    compare_to_marginal,
    count_extensions,
    count_saws,
    count_two_sided,
    endpoint_histogram,
    escape_power_estimate,
    estimate_decoupling_stats,
    exact_mean_density_grid,
    perron_fixed_point,
    prefix_histogram,
    run_two_sided_coupling,
    scalar_estimators,
    validate,
)
from sawlab.sampling import _base_arrays, _key_dtype

SEEDS = (0, 1, 2)
_LINES: dict[str, str] = {}  # output -> digest, in the order emitted


def _encode(part) -> bytes:
    if isinstance(part, np.ndarray):
        head = f"{part.dtype.str}{part.shape}".encode()
        return head + np.ascontiguousarray(part).tobytes()
    if isinstance(part, Path):
        return b"path" + bytes([part.dimension]) + part.steps
    if isinstance(part, TwoSidedPath):
        return b"two" + _encode(part.neg) + b"|" + _encode(part.pos)
    if isinstance(part, (list, tuple)):
        return b"[" + b",".join(_encode(p) for p in part) + b"]"
    return repr(part).encode()


def emit(label: str, *parts) -> None:
    h = hashlib.sha256()
    for part in parts:
        data = _encode(part)
        h.update(len(data).to_bytes(8, "little") + data)
    assert label not in _LINES, label
    _LINES[label] = h.hexdigest()


def uniform_batches(seed: int) -> None:
    for d, n, count in ((2, 8, 2000), (2, 31, 500), (2, 128, 200),
                        (5, 5, 2000), (5, 50, 500), (5, 200, 1000)):
        sampler = SawSampler(d, SamplerConfig(seed=seed))
        codes = sampler.uniform_batch(n, count)
        stats = sampler.last_batch_stats
        # a second batch on the same stream checks what the first consumed
        emit(f"uniform_batch d={d} n={n} count={count} seed={seed}",
             codes, stats.attempts, stats.accepted,
             sampler.uniform_batch(n, 3))


def bottom_levels(seed: int) -> None:
    # lowest dimerization levels tested by occupancy masks (d=2 with a
    # 441-bit box, d=3 with base 3) and, at d=3's default base, whose box
    # of radius 5 is too wide for masks, by the cross compare of the
    # halves' keys in large rounds (from 100 pairs per step of the first
    # half) and by sorting joined keys in small ones
    for d, n, count, base in ((2, 80, 500, 10), (3, 40, 500, 3),
                              (3, 40, 500, None)):
        sampler = SawSampler(d, SamplerConfig(seed=seed, base_length=base))
        codes = sampler.uniform_batch(n, count)
        stats = sampler.last_batch_stats
        emit(f"uniform_batch d={d} n={n} count={count} base={base} seed={seed}",
             codes, stats.attempts, stats.accepted,
             sorted(sampler._level_counts.items()),
             sampler.uniform_batch(n, 3))


def per_draw(seed: int) -> None:
    for d in (2, 5):
        sampler = SawSampler(d, SamplerConfig(seed=seed))
        emit(f"uniform d={d} n=0..24 seed={seed}",
             [sampler.uniform(n) for n in range(25)])
        prefixes = [validate(p, d) for p in ([], [0], [0, 2], [0, 2, 1, 1])]
        emit(f"escaping d={d} seed={seed}",
             [sampler.escaping(n, p) for p in prefixes for n in range(0, 20, 3)])
        emit(f"prefix_conditioned d={d} seed={seed}",
             [sampler.prefix_conditioned(n, p)
              for p in prefixes for n in range(len(p), 22, 3)])
        walks = []
        for m, n in ((0, 0), (1, 1), (3, 7), (12, 12), (20, 4)):
            walks += [sampler.two_sided(m, n), sampler.last_two_sided_attempts]
        emit(f"two_sided d={d} seed={seed}", walks)
        middle = TwoSidedPath(validate([1], d), validate([0, 2], d))
        walks = []
        for m, n in ((1, 2), (5, 5), (16, 9)):
            walks += [sampler.two_sided(m, n, middle),
                      sampler.last_two_sided_attempts]
        emit(f"two_sided middle d={d} seed={seed}", walks)
        # unequal arms only, on a fresh stream: arms of unequal lengths
        # never share a draw
        sampler = SawSampler(d, SamplerConfig(seed=seed))
        walks = []
        for m, n, mid in ((0, 5, None), (3, 7, None), (20, 4, None),
                          (1, 4, middle), (16, 9, middle)):
            walks += [sampler.two_sided(m, n, mid),
                      sampler.last_two_sided_attempts]
        emit(f"two_sided unequal d={d} seed={seed}", walks)


def couplings(seed: int) -> None:
    for d, p1, p2, horizon in ((2, [0, 2], [0, 3], 16), (5, [0], [2], 24)):
        z1, z2 = validate(p1, d), validate(p2, d)
        stats = estimate_decoupling_stats(
            d, z1, z2, CouplingSchedule.geometric(len(p1), horizon), horizon,
            200, SamplerConfig(seed=seed))
        batch = stats.batch
        emit(f"estimate_decoupling_stats d={d} horizon={horizon} seed={seed}",
             batch.codes1, batch.codes2, batch.success, batch.resamples,
             [vars(row) for row in stats.decay + stats.tails])
    # at unequal sides the arms' draws never have one length, so they
    # never share a draw
    for d, middles, sides in ((2, ([1], [0], [1], [2]), (16, 16)),
                              (2, ([1], [0], [1], [2]), (16, 9)),
                              (5, ([1], [0], [3], [4]), (12, 20))):
        start1 = TwoSidedPath(validate(middles[0], d), validate(middles[1], d))
        start2 = TwoSidedPath(validate(middles[2], d), validate(middles[3], d))
        sampler = SawSampler(d, SamplerConfig(seed=seed))
        schedule = CouplingSchedule.geometric(1, max(sides))
        traces = [run_two_sided_coupling(d, *sides, start1, start2, schedule,
                                         sampler=sampler) for _ in range(6)]
        emit(f"run_two_sided_coupling d={d} sides={sides} seed={seed}",
             [(t.walk1, t.walk2, t.record_dicts()) for t in traces],
             sampler.uniform(12))


def fixed_points() -> None:
    for d, n in ((2, 1), (2, 3), (2, 5), (3, 3), (4, 3), (5, 2)):
        for trim in (True, False):
            matrix = build_escape_matrix(d, n, trim=trim)
            parts = [matrix.rows, matrix.kept, matrix.trimmed]
            if matrix.trimmed or matrix.rows.any(axis=1).all():
                result = perron_fixed_point(matrix)
                parts += [result.measure.values, result.eigenvalue,
                          result.residual, result.iterations,
                          result.primitivity_power]
            emit(f"build_escape_matrix+perron_fixed_point d={d} n={n} "
                 f"trim={trim}", *parts)


def exact_counts() -> None:
    for d, n in ((2, 14), (3, 10), (5, 7)):
        table = CountTable(d)
        count_saws(d, n, table=table)
        emit(f"count_saws d={d} n=0..{n}",
             [table.get("plain", k) for k in range(n + 1)])
    # wide keys (int32 at d=8, int64, Python ints at d=20 n=5): the n = 4
    # counts stop at the split, the n = 5 ones count below it
    for d, n in ((8, 5), (16, 4), (16, 5), (20, 4), (20, 5)):
        table = CountTable(d)
        count_saws(d, n, table=table)
        emit(f"count_saws d={d} n=0..{n}",
             [table.get("plain", k) for k in range(n + 1)])
    for d, n in ((2, 12), (3, 9), (5, 6)):
        hist = endpoint_histogram(d, n, table=CountTable(d))
        emit(f"endpoint_histogram d={d} n={n}", sorted(hist.items()))
    for d, n, prefixes in ((2, 13, ([0], [0, 2], [3, 0, 0, 2, 2, 1])),
                           (3, 9, ([0], [0, 2, 4])),
                           (5, 6, ([0, 2], [9, 1, 5]))):
        emit(f"count_extensions d={d} n={n}",
             [count_extensions(d, n, validate(p, d), table=CountTable(d))
              for p in prefixes])
    for length, free in ((66, 3), (66, 5), (32767, 3), (32767, 5)):
        # long straight prefixes: int16 keys at 66 steps, int64 at 32767
        emit(f"count_extensions d=2 straight={length} n={length + free}",
             count_extensions(2, length + free, Path(2, bytes(length)),
                              table=CountTable(2)))
    for d, m, n in ((2, 6, 6), (3, 4, 4), (5, 3, 3)):
        # the empty middle with either side first, and an empty side
        emit(f"count_two_sided d={d} m={m} n={n}",
             [count_two_sided(d, a, b, table=CountTable(d))
              for a, b in ((m, n), (m - 1, n + 1), (0, m + n), (m + n, 0))])
        middle = TwoSidedPath(validate([1], d), validate([0, 2], d))
        emit(f"count_two_sided middle d={d} m={m} n={n}",
             count_two_sided(d, m, n, middle, table=CountTable(d)))


def marginals() -> None:
    for d, m, k in ((2, 12, 5), (3, 7, 2), (5, 6, 3)):
        hist = prefix_histogram(d, m, k, table=CountTable(d))
        emit(f"prefix_histogram d={d} m={m} k={k}", sorted(hist.items()))
    for d, n, horizon in ((2, 5, 12), (5, 2, 6)):
        result = perron_fixed_point(build_escape_matrix(d, n))
        comparison = compare_to_marginal(result, horizon, table=CountTable(d))
        emit(f"compare_to_marginal d={d} n={n} horizon={horizon}",
             [vars(row) for row in comparison.rows], comparison.tv_distance)


def pattern_grids() -> None:
    trap = [3, 0, 0, 2, 2, 1, 3]  # a d=2 walk whose head has no free neighbour
    for d, n_max, pattern in ((1, 8, [0]), (1, 8, [0, 0]), (2, 9, [0]),
                              (2, 10, [0, 2]), (2, 10, [0, 0, 0]), (2, 9, trap),
                              (3, 7, [0, 2, 1]), (4, 6, [0, 2, 4]), (5, 4, [0]),
                              (5, 6, [0, 2]), (5, 6, [0, 0]), (5, 7, [1, 1, 3])):
        table = CountTable(d)
        grid = exact_mean_density_grid(d, n_max, validate(pattern, d),
                                       table=table)
        emit(f"exact_mean_density_grid d={d} n_max={n_max} pattern={pattern}",
             sorted(grid.items()), [table.get("plain", n) for n in grid])


def estimators(seed: int) -> None:
    for d, horizon, trials in ((2, 40, 600), (5, 60, 600)):
        est = scalar_estimators(d, horizon, trials, SamplerConfig(seed=seed),
                                mu_ratio_length=4)
        emit(f"scalar_estimators d={d} horizon={horizon} seed={seed}", vars(est))
    for d, horizon, k in ((2, 30, 3), (5, 40, 4)):
        emit(f"escape_power_estimate d={d} horizon={horizon} k={k} seed={seed}",
             escape_power_estimate(d, horizon, k, 1500, SamplerConfig(seed=seed)))


def base_tables() -> None:
    for d in range(1, 6):
        for n in range(SamplerConfig().resolve_base_length(d) + 1):
            emit(f"_base_arrays d={d} n={n}",
                 *_base_arrays(d, n, _key_dtype(d, n)))


def emit_all() -> None:
    for seed in SEEDS:
        uniform_batches(seed)
        bottom_levels(seed)
        per_draw(seed)
        couplings(seed)
        estimators(seed)
    fixed_points()
    exact_counts()
    marginals()
    pattern_grids()
    base_tables()


def differences(golden: str) -> list[str]:
    """One line per output whose digest differs from the ``golden`` text's:
    changed, missing (in ``golden`` only) or extra (emitted only)."""
    expected = {}
    for line in golden.splitlines():
        if line.strip() and not line.startswith("#"):
            digest, label = line.split("  ", 1)
            expected[label] = digest
    out = [f"changed: {label} ({expected[label]} -> {digest})"
           for label, digest in _LINES.items()
           if label in expected and expected[label] != digest]
    out += [f"missing: {label}" for label in expected if label not in _LINES]
    out += [f"extra: {label}" for label in _LINES if label not in expected]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the digests in FILE; print each "
                             "differing line and exit 1 if there is any")
    args = parser.parse_args(argv)
    emit_all()
    if args.check is None:
        for label, digest in _LINES.items():
            print(f"{digest}  {label}")
        return 0
    with open(args.check, encoding="utf-8") as fh:
        diff = differences(fh.read())
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

"""Pattern-density statistics and scalar growth-rate estimators.

Exact mean densities come from one pass of the count kernel
(``counting._count_frontier``) over the first-turn-reduced tree.  A
turning walk w there stands for its images g w under the first-turn maps,
and occ(g w, zeta) = occ(w, g^-1 zeta), so each window of w adds the
number of maps whose preimage of the pattern it is.  Each row of the
kernel's frontier carries the base-2d id of its last k codes and its
running occurrence count, and the counts are tallied per depth.  The 2d
straight walks are added in closed form.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .counting import (CountTable, _budget, _count_frontier, _moves,
                       _Found, _walk, count_saws, count_two_sided,
                       default_table)
from .errors import BudgetExceededError, NotSelfAvoidingError
from .lattice import Path, TwoSidedPath, _first_turn_symmetries, validate
from .sampling import (SamplerConfig, SawSampler, _coords_from_keys,
                       _escapes_batch, _key_dtype)


def exact_mean_density(dimension: int, n: int, pattern: Path, *,
                       table: CountTable | None = None) -> Fraction:
    """Exact E[pattern density over the uniform n-step walk]."""
    return exact_mean_density_grid(dimension, n, pattern, table=table)[n]


def exact_mean_density_grid(dimension: int, n_max: int, pattern: Path, *,
                            table: CountTable | None = None
                            ) -> dict[int, Fraction]:
    """Exact mean densities for every n in [max(k, 1), n_max]; one pass
    over the first-turn-reduced tree."""
    k = len(pattern)
    if k < 1:
        raise ValueError("pattern must have at least one step")
    if k > n_max:
        raise ValueError("pattern longer than the largest requested length")
    if pattern.dimension != dimension:
        raise ValueError("pattern dimension mismatch")
    table = table or default_table(dimension)
    maps = _first_turn_symmetries(dimension)
    # counts[n] and totals[n]: reduced turning walks of length n and their
    # occurrences; d=1 has none
    counts = totals = [0] * (n_max + 1)
    if maps:
        q = 2 * dimension
        if q ** k > 1 << 63:
            raise ValueError(f"a pattern of {k} steps has window ids past 64 "
                             "bits; its exact pass could not finish anyway")
        # the base-q id of each preimage g^-1 zeta, newest code last: the
        # windows of a reduced walk that add one occurrence per map
        images = Counter(sum(g.code_table.index(c) * q ** (k - 1 - i)
                             for i, c in enumerate(pattern.steps)) for g in maps)
        ids, weights = np.array(sorted(images.items()), dtype=np.int64).T
        totals = np.zeros((2, n_max + 1), dtype=np.int64)
        tally = _count_frontier(_moves(dimension, 2 * n_max + 1), (0,),
                                np.zeros((1, 1), dtype=np.uint8), n_max,
                                _budget(), run=True,
                                windows=(ids, weights, k, totals))
        counts, totals = tally[1].tolist(), totals[1].tolist()
    # the number of maps, not of distinct images: each map is a walk
    orbit = len(maps)
    # a pattern of equal codes fits n-k+1 times in one straight walk
    straight = len(set(pattern.steps)) == 1
    out = {}
    for n in range(k, n_max + 1):
        c_n = orbit * counts[n] + 2 * dimension
        if table.get("plain", n) is None:
            table.put("plain", n, None, c_n)
        out[n] = Fraction(totals[n] + straight * (n - k + 1), n * c_n)
    return out


@dataclass
class DensityStats:
    n: int
    trials: int
    mean: float
    variance: float
    ci_low: float
    ci_high: float
    # the sampler's (accepted, attempted) pairs per dimerization level
    level_counts: dict[int, tuple[int, int]] = field(default_factory=dict)


def mc_density_stats(dimension: int, n: int, pattern: Path, trials: int,
                     cfg: SamplerConfig | None = None, *,
                     confidence_z: float = 1.959963984540054) -> DensityStats:
    """Sample mean/variance of the pattern density over seeded uniform draws."""
    if trials < 2:
        raise ValueError("need at least two trials")
    k = len(pattern)
    if k < 1:
        raise ValueError("pattern must have at least one step")
    if k > n:
        raise ValueError("pattern longer than the walk")
    if pattern.dimension != dimension:
        raise ValueError("pattern dimension mismatch")
    sampler = SawSampler(dimension, cfg)
    codes = sampler.uniform_batch(n, trials)
    target = np.frombuffer(pattern.steps, dtype=np.uint8)
    hits = np.zeros(trials, dtype=np.int32)
    for i in range(n - k + 1):
        window_ok = np.ones(trials, dtype=bool)
        for j in range(k):
            window_ok &= codes[:, i + j] == target[j]
        hits += window_ok
    density = hits / n
    mean = float(density.mean())
    variance = float(density.var(ddof=1))
    half = confidence_z * math.sqrt(variance / trials)
    return DensityStats(n, trials, mean, variance, mean - half, mean + half,
                        {m: tuple(c) for m, c in sampler._level_counts.items()})


def two_sided_prefix_prob(dimension: int, m: int, n: int, pattern: Path, *,
                          table: CountTable | None = None,
                          workers: int = 1) -> Fraction:
    """P(two-sided walk with sides (m, n) starts with the pattern on its
    positive side), as an exact count ratio."""
    table = table or default_table(dimension)
    xi = TwoSidedPath(Path(dimension), pattern.re_anchored())
    hits = count_two_sided(dimension, m, n, xi, table=table, workers=workers)
    total = count_saws(dimension, m + n, table=table, workers=workers)
    return Fraction(hits, total)


@dataclass
class ProperPatternResult:
    """Outcome of the bounded proper-internal-pattern search.

    ``nodes_visited`` is the number of vertices the search added to its
    walks, the node budget's unit; it is 0 when the tripled pattern is
    itself the witness.
    """

    status: str  # "yes" | "inconclusive"
    witness: Path | None = None
    nodes_visited: int = 0

    @property
    def is_proper(self) -> bool:
        return self.status == "yes"


def is_proper_internal_pattern(dimension: int, pattern: Path, *,
                               max_length: int | None = None,
                               max_nodes: int = 500_000) -> ProperPatternResult:
    """Search for a walk containing the pattern at least three times.

    Semi-decidable as bounded here: ``yes`` comes with a concrete witness,
    otherwise the result is inconclusive (budget exhausted), never ``no``.
    """
    k = len(pattern)
    if k < 1:
        raise ValueError("pattern must have at least one step")
    budget_length = max_length if max_length is not None else 3 * k + 8
    # Cheap candidate first: three copies laid end to end.
    try:
        tripled = validate(pattern.steps * 3, dimension)
    except NotSelfAvoidingError:
        tripled = None
    if tripled is not None and len(tripled) <= budget_length:
        return ProperPatternResult("yes", tripled)

    moves = _moves(dimension, 2 * budget_length + 1).tolist()
    target = list(pattern.steps)
    occ = [0] * (budget_length + 1)  # occurrences along the current walk
    codes: list[int] = []
    budget = _budget(max_nodes)

    def visit(nxt: int) -> bool:
        level = len(codes)
        occ[level] = occ[level - 1] + (codes[-k:] == target)
        if occ[level] >= 3:
            raise _Found
        return occ[level] + (budget_length - level) >= 3

    try:
        if budget_length > 0:
            _walk(0, budget_length, {0}, moves, budget, codes, visit, visit)
    except _Found:
        return ProperPatternResult("yes", Path(dimension, bytes(codes)),
                                   budget[1] - budget[0])
    except BudgetExceededError:
        pass
    return ProperPatternResult("inconclusive", None, budget[1] - budget[0])


@dataclass
class ScalarEstimates:
    """Monte Carlo growth-rate diagnostics from finite-proxy walks."""

    dimension: int
    horizon: int
    trials: int
    mu_escape: float
    mu_ratio: float
    msd_over_n: float
    avoid_fraction: float


def scalar_estimators(dimension: int, horizon: int, trials: int,
                      cfg: SamplerConfig | None = None, *,
                      table: CountTable | None = None,
                      mu_ratio_length: int | None = None,
                      chunk_rows: int = 8192) -> ScalarEstimates:
    """Three estimators: the connective constant via the escape identity
    (2d times the chance a walk started next to the origin avoids it), the
    ratio of the two largest cached exact counts, and the diffusive-scale
    mean-square displacement."""
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be positive")
    table = table or default_table(dimension)
    sampler = SawSampler(dimension, cfg)
    dtype = _key_dtype(dimension, horizon)  # refuses walks keys cannot hold
    avoided = 0
    msd_sum = 0.0
    remaining = trials
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        keys = sampler._draw_batch(horizon, rows, dtype)
        # -e1 has the key -1 in every packing
        avoided += rows - int(np.count_nonzero((keys == -1).any(axis=1)))
        ends = _coords_from_keys(dimension, keys[:, -1])
        msd_sum += float((ends * ends).sum())
        remaining -= rows

    if mu_ratio_length is not None:
        n_star = mu_ratio_length
    else:
        n_star = table.largest_plain()
        if n_star is None or n_star < 2 or table.get("plain", n_star - 1) is None:
            n_star = min(7, max(2, horizon))
    c_hi = count_saws(dimension, n_star, table=table)
    c_lo = count_saws(dimension, n_star - 1, table=table)
    avoid_fraction = avoided / trials
    return ScalarEstimates(
        dimension=dimension,
        horizon=horizon,
        trials=trials,
        mu_escape=2 * dimension * avoid_fraction,
        mu_ratio=c_hi / c_lo,
        msd_over_n=msd_sum / trials / horizon,
        avoid_fraction=avoid_fraction,
    )


def escape_power_estimate(dimension: int, horizon: int, k: int, trials: int,
                          cfg: SamplerConfig | None = None, *,
                          table: CountTable | None = None,
                          chunk_rows: int = 8192) -> float:
    """Estimate of mu^k via c_k times the chance that an independent k-walk
    and a long walk share no vertex besides the origin."""
    if k < 1 or k > horizon:
        raise ValueError("k must be in [1, horizon]")
    table = table or default_table(dimension)
    sampler = SawSampler(dimension, cfg)
    # both walks start at the origin, so their extent is the horizon (k is
    # at most it); refuses walks keys cannot hold
    dtype = _key_dtype(dimension, horizon)
    disjoint = 0
    remaining = trials
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        disjoint += int(np.count_nonzero(_escapes_batch(
            [sampler._draw_batch(horizon, rows, dtype),
             sampler._draw_batch(k, rows, dtype)])))
        remaining -= rows
    c_k = count_saws(dimension, k, table=table)
    return c_k * disjoint / trials


@dataclass
class DensityReportRow:
    n: int
    exact_mean: Fraction | None
    mc: DensityStats | None


@dataclass
class DensityReport:
    """Density-law summary for one pattern: exact means where enumerable,
    Monte Carlo statistics, and the finite two-sided reference probability."""

    dimension: int
    pattern_codes: bytes
    rows: list[DensityReportRow] = field(default_factory=list)
    reference_sides: tuple[int, int] | None = None
    reference_prob: Fraction | None = None

    def to_json_dict(self) -> dict:
        def frac(f):
            return None if f is None else {"num": str(f.numerator),
                                           "den": str(f.denominator)}
        return {
            "d": self.dimension,
            "pattern": list(self.pattern_codes),
            "reference_sides": self.reference_sides,
            "reference_prob": frac(self.reference_prob),
            "rows": [
                {
                    "n": r.n,
                    "exact_mean": frac(r.exact_mean),
                    "mc": None if r.mc is None else {
                        "trials": r.mc.trials,
                        "mean": r.mc.mean,
                        "variance": r.mc.variance,
                        "ci_low": r.mc.ci_low,
                        "ci_high": r.mc.ci_high,
                    },
                }
                for r in self.rows
            ],
        }

    def to_csv_rows(self) -> list[list]:
        header = ["n", "exact_mean_num", "exact_mean_den", "mc_mean",
                  "mc_var", "ci_lo", "ci_hi"]
        out = [header]
        for r in self.rows:
            num = r.exact_mean.numerator if r.exact_mean is not None else ""
            den = r.exact_mean.denominator if r.exact_mean is not None else ""
            if r.mc is None:
                out.append([r.n, num, den, "", "", "", ""])
            else:
                out.append([r.n, num, den, r.mc.mean, r.mc.variance,
                            r.mc.ci_low, r.mc.ci_high])
        return out


def build_density_report(dimension: int, pattern: Path, exact_lengths,
                         mc_lengths, trials: int,
                         cfg: SamplerConfig | None = None, *,
                         reference_sides: tuple[int, int] | None = None,
                         table: CountTable | None = None) -> DensityReport:
    table = table or default_table(dimension)
    report = DensityReport(dimension, pattern.steps)
    exact_lengths = sorted(set(exact_lengths))
    mc_lengths = sorted(set(mc_lengths))
    grid: dict[int, Fraction] = {}
    if exact_lengths:
        grid = exact_mean_density_grid(dimension, max(exact_lengths), pattern,
                                       table=table)
    for n in sorted(set(exact_lengths) | set(mc_lengths)):
        exact = grid.get(n) if n in exact_lengths else None
        mc = (mc_density_stats(dimension, n, pattern, trials, cfg)
              if n in mc_lengths else None)
        report.rows.append(DensityReportRow(n, exact, mc))
    if reference_sides is not None:
        m, n = reference_sides
        report.reference_sides = reference_sides
        report.reference_prob = two_sided_prefix_prob(dimension, m, n, pattern,
                                                      table=table)
    return report

"""Exact-identity verification suite.

Every check here is deterministic and exact (integer or rational
arithmetic, or residuals against pinned tolerances); the statistical
acceptance tests live in the test suite.  Each check compares the
optimized code path against an independent route: the brute-force
reference oracles, a second enumeration strategy, or a closed form.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from . import reference
from .counting import (CountTable, count_extensions, count_saws,
                       count_two_sided, default_table, endpoint_histogram,
                       enumerate_paths, prefix_histogram)
from .lattice import (Path, concat, direction_vectors, escapes,
                      lattice_symmetries, pattern_density, validate)
from .errors import NotSelfAvoidingError
from .patterns import exact_mean_density_grid
from .sampling import _base_arrays, _escapes_batch, _key_dtype
from .spectral import build_escape_matrix, perron_fixed_point


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return f"{status} - {self.name}" + (f": {self.detail}" if self.detail else "")


def _naive_cap(dimension: int, requested: int) -> int:
    """Largest length whose (2d)^n walk filter stays cheap."""
    cap = 0
    budget = 500_000
    total = 1
    while total * 2 * dimension <= budget:
        total *= 2 * dimension
        cap += 1
    return min(requested, cap)


def _equivalence_length_cap(dimension: int, requested: int) -> int:
    """Largest length whose all-pairs escape check stays around 10^6 pairs."""
    walks = 1
    cap = 0
    for n in range(1, requested + 1):
        walks += count_saws(dimension, n)
        if walks * walks > 4_000_000:
            break
        cap = n
    return cap


def check_closed_forms(dimension: int, table: CountTable) -> CheckResult:
    d2 = 2 * dimension
    expected = [1, d2, d2 * (d2 - 1), d2 * (d2 - 1) ** 2]
    got = [count_saws(dimension, n, table=table) for n in range(4)]
    return CheckResult(
        f"closed-form counts d={dimension} n<=3",
        got == expected,
        f"{got} vs {expected}",
    )


def check_counts_vs_naive(dimension: int, n_max: int,
                          table: CountTable) -> CheckResult:
    cap = _naive_cap(dimension, n_max)
    bad = []
    for n in range(cap + 1):
        fast = count_saws(dimension, n, table=table)
        slow = reference.naive_count(dimension, n)
        if fast != slow:
            bad.append((n, fast, slow))
    return CheckResult(
        f"DFS counts equal naive filter d={dimension} n<={cap}",
        not bad,
        str(bad) if bad else f"{cap + 1} lengths agree",
    )


def check_endpoint_sum(dimension: int, n_max: int,
                       table: CountTable) -> CheckResult:
    bad = []
    for n in range(n_max + 1):
        hist = endpoint_histogram(dimension, n, table=table)
        if sum(hist.values()) != count_saws(dimension, n, table=table):
            bad.append(n)
    return CheckResult(
        f"sum over endpoints equals c_n d={dimension} n<={n_max}",
        not bad,
        str(bad) if bad else "",
    )


def check_prefix_sum(dimension: int, n_max: int,
                     table: CountTable) -> CheckResult:
    bad = []
    for n in range(1, n_max + 1):
        for k in range(1, min(3, n) + 1):
            hist = prefix_histogram(dimension, n, k, table=table)
            if sum(hist.values()) != count_saws(dimension, n, table=table):
                bad.append((n, k))
    return CheckResult(
        f"sum over k-prefixes equals c_n d={dimension} n<={n_max}",
        not bad,
        str(bad) if bad else "",
    )


def _walks_from(dimension: int, m_max: int, first: int) -> dict[int, list[bytes]]:
    """Every m-step walk whose first code is ``first``, for m = 1..m_max,
    each list in lexicographic order.

    Deliberately tuple-based and origin-rooted, independent of the packed
    searches it is compared against.  The DFS tries codes in increasing
    order and files each walk when it reaches it, so the walks that start
    with a prefix are one contiguous block of each list.
    """
    deltas = direction_vectors(dimension)
    out: dict[int, list[bytes]] = {m: [] for m in range(1, m_max + 1)}
    codes = bytearray([first])

    def rec(pos, seen):
        out[len(codes)].append(bytes(codes))
        if len(codes) == m_max:
            return
        for code, delta in enumerate(deltas):
            nxt = tuple(a + b for a, b in zip(pos, delta))
            if nxt in seen:
                continue
            seen.add(nxt)
            codes.append(code)
            rec(nxt, seen)
            codes.pop()
            seen.discard(nxt)

    tip = deltas[first]
    rec(tip, {(0,) * dimension, tip})
    return out


def check_dmp_two_ways(dimension: int, m_max: int, prefix_max: int,
                       table: CountTable, *,
                       validate_cap: int = 20000) -> CheckResult:
    """Conditional suffix law two ways, and c_m(zeta) as the escaper count.

    Route one forces the prefix from the origin (the walks of
    ``_walks_from`` that start with zeta); route two enumerates escapers
    from the prefix tip with the prefix pre-blocked (``enumerate_paths``),
    and must give the same walks in the same order.  Both laws are uniform,
    so they coincide iff the supports do and the atom masses agree as
    exact rationals; ``count_extensions`` must equal the support's size at
    every (zeta, m).  Small supports are additionally re-validated step by
    step.
    """
    k_max = min(prefix_max, m_max)
    bad = []
    n_checked = 0
    for first in range(2 * dimension if k_max > 0 else 0):
        walks = _walks_from(dimension, m_max, first)
        for k in range(1, k_max + 1):
            for codes in enumerate_paths(dimension, k,
                                         prefix=Path(dimension, bytes([first]))):
                zeta = Path(dimension, codes)
                for m in range(k, m_max + 1):
                    n_checked += 1
                    lo = bisect_left(walks[m], codes)
                    hi = bisect_left(walks[m], codes + bytes([2 * dimension]), lo)
                    block = walks[m][lo:hi]
                    escaper = enumerate_paths(dimension, m, prefix=zeta)
                    count = count_extensions(dimension, m, zeta, table=table)
                    if escaper != block:
                        bad.append(f"support at {tuple(codes)} m={m}")
                    elif count != len(block):
                        bad.append(f"count {count} != {len(block)} at {tuple(codes)} m={m}")
                    elif block and Fraction(1, count) != Fraction(1, len(escaper)):
                        bad.append(f"mass at {tuple(codes)} m={m}")
                    elif len(escaper) <= validate_cap:
                        for full in escaper:
                            validate(full, dimension)
    return CheckResult(
        f"conditional suffix law and prefix counts two ways d={dimension} "
        f"m<={m_max} k<={prefix_max}",
        not bad,
        f"{n_checked} (prefix, m) pairs" + (": " + "; ".join(bad[:3]) if bad else ""),
    )


def check_two_sided_bijection(dimension: int, n_max: int,
                              table: CountTable) -> CheckResult:
    # both counts walk a first-turn-reduced tree on the count kernel, whose
    # straight row takes only +e1 and +e2, so the brute-force pairs are
    # compared too wherever they are cheap
    bad = []
    checked = brute = 0
    for m in range(0, min(3, n_max) + 1):
        for n in range(m, min(3, n_max - m) + 1):
            two = count_two_sided(dimension, m, n, table=table)
            flat = count_saws(dimension, m + n, table=table)
            checked += 1
            if two != flat:
                bad.append((m, n, two, flat))
            if (2 * dimension) ** (m + n) <= 4096:
                brute += 1
                naive = reference.naive_count_two_sided(dimension, m, n)
                if two != naive:
                    bad.append((m, n, two, "naive", naive))
    return CheckResult(
        f"two-sided counts match folded one-sided counts d={dimension}",
        not bad,
        str(bad) if bad else f"{checked} (m, n) pairs, {brute} also by brute force",
    )


def check_nonintersection(dimension: int, n_max: int,
                          table: CountTable) -> CheckResult:
    rows = []
    ok = True
    for m in range(1, n_max // 2 + 1):
        ratio = Fraction(count_saws(dimension, 2 * m, table=table),
                         count_saws(dimension, m, table=table) ** 2)
        rows.append(f"m={m}:{float(ratio):.4f}")
        if dimension >= 5 and not Fraction(1, 2) < ratio <= 1:
            ok = False
    return CheckResult(
        f"non-intersection ratios c_2m/c_m^2 d={dimension}",
        ok,
        " ".join(rows),
    )


def check_submultiplicativity(dimension: int, n_max: int,
                              table: CountTable) -> CheckResult:
    bad = []
    counts = {n: count_saws(dimension, n, table=table) for n in range(n_max + 1)}
    for a, b in combinations_with_replacement(range(n_max + 1), 2):
        if a + b <= n_max and counts[a + b] > counts[a] * counts[b]:
            bad.append((a, b))
    return CheckResult(
        f"submultiplicativity d={dimension} n<={n_max}",
        not bad,
        str(bad) if bad else "",
    )


def check_escape_concat_equivalence(dimension: int, length_max: int) -> CheckResult:
    """escapes(w2, w1) iff concat(w1, w2) succeeds, iff the packed-key test
    ``sampling._escapes_batch`` passes, and, for walks of one length n, iff
    entry (w1, w2) of ``build_escape_matrix(dimension, n, trim=False)``
    is set, exhaustively."""
    by_length = [[Path(dimension, codes) for codes in enumerate_paths(dimension, n)]
                 for n in range(length_max + 1)]
    # a head and a tail make up to 2 * length_max steps; the base tables
    # list SAW_n in the enumeration's order
    dtype = _key_dtype(dimension, 2 * length_max)
    keys = [_base_arrays(dimension, n, dtype)[1] for n in range(length_max + 1)]
    pairs = bad = 0
    for m, (heads, head_keys) in enumerate(zip(by_length, keys)):
        matrix = build_escape_matrix(dimension, m, trim=False)
        where = {codes: i for i, codes in enumerate(matrix.paths)}
        for n, (tails, tail_keys) in enumerate(zip(by_length, keys)):
            pairs += len(heads) * len(tails)
            for w1, head in zip(heads, head_keys):
                fast = _escapes_batch(
                    [np.broadcast_to(head, (len(tails), head.size))],
                    [tail_keys]).tolist()
                matrix_row = fast  # the matrix holds same-length pairs only
                if m == n:
                    matrix_row = matrix.rows[
                        where[w1.steps], [where[w2.steps] for w2 in tails]].tolist()
                for w2, esc_fast, esc_matrix in zip(tails, fast, matrix_row):
                    esc = escapes(w2, w1)
                    try:
                        concat(w1, w2)
                        joined = True
                    except NotSelfAvoidingError:
                        joined = False
                    if not esc == joined == esc_fast == esc_matrix:
                        bad += 1
    return CheckResult(
        f"escape/concat equivalence d={dimension} lengths<={length_max}",
        bad == 0,
        f"{pairs} pairs",
    )


def check_fixed_points(dimension: int, n_values, table: CountTable, *,
                       residual_tol: float = 1e-10,
                       agreement_tol: float = 1e-8) -> CheckResult:
    problems = []
    for n in n_values:
        matrix = build_escape_matrix(dimension, n)
        result = perron_fixed_point(matrix, tol=1e-12, seed=17)
        if result.residual > residual_tol:
            problems.append(f"n={n} residual {result.residual:.2e}")
        if result.starts_spread > agreement_tol:
            problems.append(f"n={n} spread {result.starts_spread:.2e}")
        if n == 1:
            uniform = 1.0 / (2 * dimension)
            if abs(result.eigenvalue - (2 * dimension - 1)) > 1e-9:
                problems.append(f"Z_1 = {result.eigenvalue}")
            if np.abs(result.measure.values - uniform).max() > 1e-9:
                problems.append("P_1 not uniform")
        # symmetry invariance over the full group
        index = {codes: i for i, codes in enumerate(matrix.paths)}
        full = result.full_vector()
        worst = 0.0
        for g in lattice_symmetries(dimension):
            t = g.code_table
            for codes, i in index.items():
                j = index[bytes(t[c] for c in codes)]
                worst = max(worst, abs(full[i] - full[j]))
        if worst > agreement_tol:
            problems.append(f"n={n} symmetry deviation {worst:.2e}")
    return CheckResult(
        f"fixed points d={dimension} n in {list(n_values)}",
        not problems,
        "; ".join(problems) if problems else "residual/uniqueness/symmetry ok",
    )


def check_pattern_means(dimension: int, n_max: int,
                        table: CountTable) -> CheckResult:
    """Single-step mean is exactly 1/(2d); survey equals enumeration mean."""
    step = validate([0], dimension)
    grid = exact_mean_density_grid(dimension, n_max, step, table=table)
    problems = []
    for n, mean in grid.items():
        if mean != Fraction(1, 2 * dimension):
            problems.append(f"n={n}: {mean}")
    cross_max = _naive_cap(dimension, n_max)
    zeta = validate([0, 2], dimension) if dimension >= 2 else step
    grid2 = exact_mean_density_grid(dimension, max(cross_max, len(zeta)),
                                    zeta, table=table)
    for n in range(len(zeta), cross_max + 1):
        total = Fraction(0)
        paths = enumerate_paths(dimension, n)
        for codes in paths:
            total += pattern_density(Path(dimension, codes), zeta)
        if grid2[n] != total / len(paths):
            problems.append(f"two-route mismatch at n={n}")
    return CheckResult(
        f"exact pattern means d={dimension} n<={n_max}",
        not problems,
        "; ".join(problems) if problems else "",
    )


def run_verify(dimension: int, n_max: int, *,
               table: CountTable | None = None) -> list[CheckResult]:
    """The full exact-identity suite at the given scale."""
    if n_max < 1:
        raise ValueError(f"the largest length must be at least 1, not {n_max}")
    table = table or default_table(dimension)
    prefix_max = min(3, n_max)
    fp_lengths = [n for n in range(1, min(n_max, 5) + 1)
                  if count_saws(dimension, n, table=table) <= 2000]
    checks = [
        check_closed_forms(dimension, table),
        check_counts_vs_naive(dimension, n_max, table),
        check_endpoint_sum(dimension, min(n_max, 6), table),
        check_prefix_sum(dimension, min(n_max, 6), table),
        check_dmp_two_ways(dimension, min(n_max, 6), prefix_max, table),
        check_two_sided_bijection(dimension, min(n_max, 6), table),
        check_nonintersection(dimension, n_max, table),
        check_submultiplicativity(dimension, n_max, table),
        check_escape_concat_equivalence(
            dimension, _equivalence_length_cap(dimension, min(4, n_max))),
        check_fixed_points(dimension, fp_lengths, table),
        check_pattern_means(dimension, min(n_max, 7), table),
    ]
    return checks

"""Acceptance criteria, one test per criterion, one printed line each.

Exact identities are checked in integer/rational arithmetic; every
statistical check runs on a fixed seed.  The Monte Carlo tolerances are
pinned here, straight from the criteria, not calibrated after the fact.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from sawlab import reference
from sawlab.counting import (
    count_saws,
    default_table,
    enumerate_paths,
)
from sawlab.coupling import (
    CouplingSchedule,
    run_one_sided_couplings,
    wilson_interval,
)
from sawlab.lattice import Path, escapes, lattice_symmetries, validate
from sawlab.patterns import (
    exact_mean_density_grid,
    scalar_estimators,
    two_sided_prefix_prob,
)
from sawlab.sampling import SamplerConfig, SawSampler
from sawlab.spectral import build_escape_matrix, perron_fixed_point
from sawlab.verify import check_dmp_two_ways

SEED = 20240615


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def d5_table():
    table = default_table(5)
    for n in range(9):
        count_saws(5, n, table=table)
    return table


def test_criterion_01_exact_small_counts(d5_table):
    problems = []
    for d in (2, 3, 4, 5):
        q = 2 * d
        expected = [1, q, q * (q - 1), q * (q - 1) ** 2]
        got = [count_saws(d, n) for n in range(4)]
        if got != expected:
            problems.append(f"closed forms d={d}: {got} != {expected}")
    for n in range(9):
        if count_saws(2, n) != reference.naive_count(2, n):
            problems.append(f"naive mismatch d=2 n={n}")
    for n in range(6):
        if count_saws(5, n) != reference.naive_count(5, n):
            problems.append(f"naive mismatch d=5 n={n}")
    report("01 exact small counts", not problems,
           "; ".join(problems) or "closed forms d in {2,3,4,5}; naive oracle "
           "equality d=2 n<=8 and d=5 n<=5")


def test_criterion_02_03_finite_dmp_and_prefix_identity(d5_table):
    """Two-way conditional suffix law (criterion 2) and the prefix-count
    identity (criterion 3) over d=5, m <= 7, every prefix with k <= 3."""
    result = check_dmp_two_ways(5, 7, 3, d5_table, validate_cap=0)
    report("02 finite domain Markov property",
           result.passed and result.detail.startswith("4660 (prefix, m) pairs"),
           f"{result.detail}, suffix laws identical as exact rationals")
    report("03 prefix identity", result.passed,
           "c_m(prefix) equals escaper count on the same grid")


def test_criterion_04_nonintersection_ratio(d5_table):
    rows = []
    ok = True
    for m in (1, 2, 3, 4):
        ratio = Fraction(count_saws(5, 2 * m), count_saws(5, m) ** 2)
        rows.append(f"m={m}: {float(ratio):.6f}")
        if not Fraction(1, 2) < ratio <= 1:
            ok = False
    report("04 non-intersection ratio in (0.5, 1]", ok, "; ".join(rows))


def test_criterion_05_fixed_point(d5_table):
    problems = []
    for d, lengths in ((5, (1, 2, 3)), (2, (1, 2, 3, 4, 5))):
        for n in lengths:
            matrix = build_escape_matrix(d, n)
            result = perron_fixed_point(matrix, tol=1e-12, seed=SEED)
            if result.residual > 1e-10:
                problems.append(f"d={d} n={n} residual {result.residual:.1e}")
            if result.starts_spread > 1e-8:
                problems.append(f"d={d} n={n} spread {result.starts_spread:.1e}")
            if n == 1:
                if np.abs(result.measure.values - 1 / (2 * d)).max() > 1e-10:
                    problems.append(f"d={d} P_1 not uniform")
                if abs(result.eigenvalue - (2 * d - 1)) > 1e-10:
                    problems.append(f"d={d} Z_1 = {result.eigenvalue}")
            index = {codes: i for i, codes in enumerate(matrix.paths)}
            full = result.full_vector()
            worst = 0.0
            for g in lattice_symmetries(d):
                ct = g.code_table
                for codes, i in index.items():
                    j = index[bytes(ct[c] for c in codes)]
                    dev = abs(full[i] - full[j])
                    if dev > worst:
                        worst = dev
            if worst > 1e-8:
                problems.append(f"d={d} n={n} symmetry dev {worst:.1e}")
    report("05 fixed point", not problems,
           "; ".join(problems) or "residual<=1e-10, P_1 uniform, Z_1=2d-1, "
           "3 starts within 1e-8, invariant under all signed permutations")


def test_criterion_06_sampler_exactness(d5_table):
    d, n, draws = 5, 6, 1_000_000
    sampler = SawSampler(d, SamplerConfig(seed=SEED))
    codes = sampler.uniform_batch(n, draws)
    powers = 10 ** np.arange(n, dtype=np.int64)
    packed = codes.astype(np.int64) @ powers
    valid = np.sort(np.array(
        [int(np.frombuffer(c, np.uint8).astype(np.int64) @ powers)
         for c in enumerate_paths(d, n)], dtype=np.int64))
    counts = np.bincount(packed, minlength=10 ** n)
    stray = counts.sum() - counts[valid].sum()
    expected = draws / valid.size
    statistic = float(((counts[valid] - expected) ** 2 / expected).sum())
    dof = valid.size - 1
    critical = stats.chi2.isf(1e-3, dof)

    p = count_saws(d, 6) / count_saws(d, 3) ** 2
    st = sampler.last_batch_stats
    sigma = math.sqrt(p * (1 - p) / st.attempts)
    acc_ok = abs(st.acceptance - p) <= 4 * sigma

    ok = stray == 0 and statistic <= critical and acc_ok
    report("06 sampler exactness", ok,
           f"chi2 {statistic:.0f} vs critical {critical:.0f} over "
           f"{valid.size} walks, stray draws {stray}, acceptance "
           f"{st.acceptance:.5f} vs exact {p:.5f} (4 sigma = {4 * sigma:.5f})")


def _empirical_tv_floor(support: int, draws: int) -> float:
    """Exact expected plug-in TV of a perfect uniform sampler."""
    p = 1.0 / support
    j = np.arange(0, 200)
    pmf = stats.binom.pmf(j, draws, p)
    mad = float((np.abs(j / draws - p) * pmf).sum())
    return 0.5 * support * mad


def test_criterion_07_coupling_marginals(d5_table):
    d, horizon, trials = 5, 6, 100_000
    z1, z2 = validate([0], d), validate([2], d)
    cfg = SamplerConfig(seed=SEED)

    # (a) marginal law of output-1 under the default geometric schedule
    schedule = CouplingSchedule.geometric(1, horizon)
    support = enumerate_paths(d, horizon, prefix=z1)
    index = {codes: i for i, codes in enumerate(support)}
    counts = np.zeros(len(support))
    batch = run_one_sided_couplings(d, z1, z2, schedule, horizon, trials,
                                    sampler=SawSampler(d, cfg, extra_key=(1,)))
    for row in batch.codes1:
        counts[index[row.tobytes()]] += 1
    expected = trials / len(support)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    critical = stats.chi2.isf(1e-3, len(support) - 1)
    plugin_tv = 0.5 * float(np.abs(counts / trials - 1 / len(support)).sum())
    floor = _empirical_tv_floor(len(support), trials)
    debiased_tv = max(0.0, plugin_tv - floor)
    marginal_ok = statistic <= critical and debiased_tv <= 0.02

    # (b) iteration-1 success frequency vs exact enumeration (one block)
    both = either = 0
    for codes in enumerate_paths(d, horizon - 1):
        proxy = Path(d, codes)
        e1, e2 = escapes(proxy, z1), escapes(proxy, z2)
        both += e1 and e2
        either += e1 or e2
    exact = both / either
    one_block = CouplingSchedule(1, (horizon,))
    batch = run_one_sided_couplings(d, z1, z2, one_block, horizon, trials,
                                    sampler=SawSampler(d, cfg, extra_key=(2,)))
    successes = int(batch.success[:, 0].sum())
    sigma = math.sqrt(exact * (1 - exact) / trials)
    success_ok = abs(successes / trials - exact) <= 3 * sigma

    # (c) identical prefixes never fail
    batch = run_one_sided_couplings(d, z1, z1, schedule, horizon, trials,
                                    sampler=SawSampler(d, cfg, extra_key=(3,)))
    failures = int(np.count_nonzero(~batch.success.all(axis=1)))
    identical_ok = failures == 0

    ok = marginal_ok and success_ok and identical_ok
    report("07 coupling is a coupling", ok,
           f"marginal chi2 {statistic:.0f} vs {critical:.0f}; plug-in TV "
           f"{plugin_tv:.4f} (perfect-sampler floor {floor:.4f}), debiased "
           f"TV {debiased_tv:.4f} <= 0.02; success {successes / trials:.5f} "
           f"vs exact {exact:.5f} (3 sigma = {3 * sigma:.5f}); identical-"
           f"prefix failures {failures}")


def test_criterion_08_decoupling_decay(d5_table):
    d, horizon, trials = 5, 24, 10_000
    z1, z2 = validate([0], d), validate([2], d)
    schedule = CouplingSchedule.geometric(1, horizon, base=2.0)
    cfg = SamplerConfig(seed=SEED)
    n_blocks = len(schedule.blocks(horizon))
    batch = run_one_sided_couplings(d, z1, z2, schedule, horizon, trials, cfg)
    failures = [int(f) for f in (~batch.success).sum(axis=0)]
    intervals = [wilson_interval(f, trials) for f in failures]
    rows = [f"l={i + 1}: {f / trials:.4f} [{lo:.4f},{hi:.4f}]"
            for i, (f, (lo, hi)) in enumerate(zip(failures, intervals))]
    ok = True
    for i in range(min(3, n_blocks - 1)):  # l = 1..4 adjacent pairs
        lo_next = intervals[i + 1][0]
        hi_prev = intervals[i][1]
        if lo_next > hi_prev:  # significant increase
            ok = False
    report("08 decoupling decay nonincreasing (l=1..4)", ok, "; ".join(rows[:4]))


def test_criterion_09_pattern_lln(d5_table):
    problems = []
    # exact single-step mean = 1/(2d) for every enumerable n
    for d, n_max in ((5, 8), (2, 8)):
        grid = exact_mean_density_grid(d, n_max, validate([0], d))
        for n, value in grid.items():
            if value != Fraction(1, 2 * d):
                problems.append(f"d={d} n={n}: {value}")
    # two-step pattern: means converge monotonically toward the two-sided
    # reference across the printed grid (no rate asserted)
    zeta = validate([0, 2], 5)
    grid = exact_mean_density_grid(5, 8, zeta, table=d5_table)
    ref = two_sided_prefix_prob(5, 4, 4, zeta, table=d5_table)
    gaps = [abs(grid[n] - ref) for n in range(4, 9)]
    if not all(b <= a for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gaps not monotone: {[float(g) for g in gaps]}")

    # MC variance decay: var at n=200 strictly below var at n=50,
    # one-sided test at alpha=0.01 via the asymptotic variance of s^2
    trials = 10_000
    target = np.frombuffer(zeta.steps, dtype=np.uint8)

    def density_sample(n, stream):
        sampler = SawSampler(5, SamplerConfig(seed=SEED, stream_id=stream))
        codes = sampler.uniform_batch(n, trials)
        hits = np.zeros(trials, dtype=np.int32)
        for i in range(n - 1):
            hits += (codes[:, i] == target[0]) & (codes[:, i + 1] == target[1])
        return hits / n

    dens50 = density_sample(50, 1)
    dens200 = density_sample(200, 2)
    s2_50 = float(dens50.var(ddof=1))
    s2_200 = float(dens200.var(ddof=1))
    var_s2 = []
    for dens, s2 in ((dens50, s2_50), (dens200, s2_200)):
        m4 = float(((dens - dens.mean()) ** 4).mean())
        var_s2.append((m4 - s2 ** 2) / trials)
    z_stat = (s2_50 - s2_200) / math.sqrt(sum(var_s2))
    if not (s2_200 < s2_50 and z_stat > stats.norm.isf(0.01)):
        problems.append(f"variance decay not significant: z={z_stat:.2f}")
    report("09 pattern law of large numbers", not problems,
           "; ".join(problems) or
           f"step mean exact 1/(2d); gaps {[f'{float(g):.2e}' for g in gaps]} "
           f"monotone to reference {float(ref):.6f}; var {s2_50:.2e} at n=50 "
           f"> var {s2_200:.2e} at n=200 (z={z_stat:.1f})")


def test_criterion_10_mu_consistency(d5_table):
    est = scalar_estimators(5, 200, 100_000, SamplerConfig(seed=SEED),
                            table=d5_table, mu_ratio_length=8)
    rel = abs(est.mu_escape - est.mu_ratio) / est.mu_ratio
    report("10 connective-constant consistency", rel < 0.05,
           f"mu_escape {est.mu_escape:.5f} vs mu_ratio {est.mu_ratio:.5f} "
           f"(relative gap {rel:.4f} < 0.05); msd/n {est.msd_over_n:.3f}")

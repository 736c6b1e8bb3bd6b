"""Pattern statistics: exact means, MC stats, proper patterns, estimators."""

from fractions import Fraction

import numpy as np
import pytest

from sawlab import reference
from sawlab.counting import (CountTable, count_extensions, count_saws,
                             enumerate_paths)
from sawlab.lattice import Path, lattice_symmetries, pattern_density, validate
from sawlab.patterns import (
    build_density_report,
    escape_power_estimate,
    exact_mean_density,
    exact_mean_density_grid,
    is_proper_internal_pattern,
    mc_density_stats,
    scalar_estimators,
    two_sided_prefix_prob,
)
from sawlab.sampling import SamplerConfig, SawSampler

TRAP = validate([3, 0, 0, 2, 2, 1, 3], 2)


def test_single_step_mean_is_inverse_degree():
    for d in (1, 2, 3, 5):
        step = validate([0], d)
        for n in (1, 2, 5, 7):
            assert exact_mean_density(d, n, step) == Fraction(1, 2 * d)


def test_exact_mean_matches_full_enumeration():
    d = 2
    zeta = validate([0, 2], d)
    for n in (2, 3, 5, 7):
        paths = enumerate_paths(d, n)
        total = sum((pattern_density(Path(d, codes), zeta) for codes in paths),
                    Fraction(0))
        assert exact_mean_density(d, n, zeta) == total / len(paths)


@pytest.mark.parametrize("d, n_max, patterns", [
    (1, 8, [(0,), (1, 1)]),
    (2, 8, [(0,), (0, 0, 0), (0, 2), tuple(TRAP.steps)]),
    (3, 6, [(0,), (0, 2), (0, 2, 1)]),
    (4, 5, [(0, 2), (0, 2, 4)]),
    (5, 5, [(0,), (0, 0), (0, 2), (1, 1, 3), (0, 2, 4, 1, 6)]),
])
def test_reduced_pattern_pass_matches_brute_force(d, n_max, patterns):
    # straight patterns, turns, a third axis, first steps other than +e1
    # and a window as long as the walks (k = n_max) against every walk of
    # (2d)^n filtered; the pass also caches c_n, which
    # catches an orbit size taken as the number of distinct images
    walks = {n: reference.naive_saws(d, n) for n in range(1, n_max + 1)}
    for zeta in patterns:
        k = len(zeta)
        table = CountTable(d)
        grid = exact_mean_density_grid(d, n_max, validate(zeta, d), table=table)
        expected = {}
        for n in range(k, n_max + 1):
            hits = sum(w[i:i + k] == zeta for w in walks[n]
                       for i in range(n - k + 1))
            expected[n] = Fraction(hits, n * len(walks[n]))
            assert table.get("plain", n) == len(walks[n])
        assert grid == expected


def test_exact_pass_refuses_window_ids_past_64_bits():
    # 4^32 window ids: the pass over 32-step walks in d=2 could not finish
    with pytest.raises(ValueError, match="past 64 bits"):
        exact_mean_density_grid(2, 32, validate([0] * 32, 2))
    # d=1 has no turning walks, so no windows are tallied at any length
    assert exact_mean_density_grid(1, 70, validate([0] * 70, 1))[70] == Fraction(
        1, 140)


def test_exact_mean_symmetry():
    d = 2
    zeta = validate([0, 2], d)
    for g in lattice_symmetries(d):
        image = g.apply_path(zeta).re_anchored()
        assert exact_mean_density(d, 5, image) == exact_mean_density(d, 5, zeta)


def test_trapped_pattern_mean_small_and_shrinking():
    # a trapped pattern can only occur where the walk ends; its exact mean
    # at fixed n is the boundary-occurrence mass and shrinks with n
    d = 2
    k = len(TRAP)
    grid = exact_mean_density_grid(d, k + 3, TRAP)
    values = [grid[n] for n in range(k, k + 4)]
    assert all(v >= 0 for v in values)
    assert values[-1] < values[0]
    assert float(values[0]) < 0.01


def test_grid_agrees_with_single_calls():
    d = 3
    zeta = validate([0, 2], d)
    grid = exact_mean_density_grid(d, 5, zeta)
    for n in (2, 4, 5):
        assert grid[n] == exact_mean_density(d, n, zeta)


def test_mc_mean_within_4_sigma_of_exact():
    d, n, trials = 5, 6, 20_000
    zeta = validate([0, 2], d)
    exact = float(exact_mean_density(d, n, zeta))
    st = mc_density_stats(d, n, zeta, trials, SamplerConfig(seed=11))
    sigma = (st.variance / trials) ** 0.5
    assert abs(st.mean - exact) <= 4 * sigma
    assert st.ci_low <= st.mean <= st.ci_high
    assert st.variance >= 0


def test_mc_single_step_mean():
    st = mc_density_stats(5, 30, validate([0], 5), 5000, SamplerConfig(seed=13))
    sigma = (st.variance / st.trials) ** 0.5
    assert abs(st.mean - 0.1) <= 4 * sigma


def test_mc_refuses_what_the_exact_route_refuses():
    for pattern, dimension, message in ((Path(2), 2, "at least one step"),
                                        (validate([4, 0], 3), 2,
                                         "dimension mismatch")):
        for call in (lambda: exact_mean_density_grid(dimension, 10, pattern),
                     lambda: mc_density_stats(dimension, 10, pattern, 10,
                                              SamplerConfig(seed=1))):
            with pytest.raises(ValueError, match=message):
                call()


def test_two_sided_prefix_prob_symmetry_and_one_sided_reduction():
    d = 5
    step = validate([0], d)
    for m, n in ((0, 3), (2, 2), (3, 4)):
        if n >= 1:
            assert two_sided_prefix_prob(d, m, n, step) == Fraction(1, 2 * d)
    # m=0 reduces to the one-sided prefix probability c_n(zeta)/c_n
    zeta = validate([0, 2], d)
    assert two_sided_prefix_prob(d, 0, 4, zeta) == Fraction(
        count_extensions(d, 4, zeta), count_saws(d, 4))


def test_two_sided_prefix_prob_monotone_information():
    # successive two-sided probabilities change by shrinking amounts as
    # both sides grow (trend only, no rate asserted)
    zeta = validate([0, 2], 5)
    values = [two_sided_prefix_prob(5, m, m + 1, zeta) for m in (1, 2, 3)]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    assert all(b <= a for a, b in zip(diffs, diffs[1:]))


def test_proper_pattern_straight_lines():
    for d in (2, 5):
        r = is_proper_internal_pattern(d, validate([0], d))
        assert r.is_proper
        occurrences = sum(
            1 for i in range(len(r.witness))
            if r.witness.steps[i:i + 1] == b"\x00")
        assert occurrences >= 3
    r3 = is_proper_internal_pattern(2, validate([0, 0, 0], 2))
    assert r3.is_proper and len(r3.witness) <= 17


def test_proper_pattern_witness_contains_three_occurrences():
    zeta = validate([0, 2], 2)
    r = is_proper_internal_pattern(2, zeta)
    assert r.is_proper
    target = zeta.steps
    hits = sum(1 for i in range(len(r.witness) - 1)
               if r.witness.steps[i:i + 2] == target)
    assert hits >= 3
    validate(r.witness.steps, 2)


def test_trapped_pattern_inconclusive_within_budget():
    r = is_proper_internal_pattern(2, TRAP, max_nodes=30_000)
    assert r.status == "inconclusive"
    assert r.witness is None


def test_scalar_estimators_ballistic_d1():
    est = scalar_estimators(1, 40, 500, SamplerConfig(seed=17),
                            mu_ratio_length=4)
    # d=1 walks are straight rays: displacement N, msd/N = N exactly
    assert est.msd_over_n == pytest.approx(40.0)
    assert est.mu_ratio == pytest.approx(1.0)


def test_scalar_estimators_consistency_d5():
    est = scalar_estimators(5, 60, 20_000, SamplerConfig(seed=19),
                            mu_ratio_length=6)
    assert abs(est.mu_escape - est.mu_ratio) / est.mu_ratio < 0.05
    assert 1.0 < est.msd_over_n < 2.0  # diffusive scale, not ballistic
    assert est.avoid_fraction == pytest.approx(est.mu_escape / 10)


def test_escape_power_estimate_second_order():
    est = scalar_estimators(5, 60, 20_000, SamplerConfig(seed=23),
                            mu_ratio_length=6)
    power = escape_power_estimate(5, 60, 2, 20_000, SamplerConfig(seed=23))
    assert abs(power - est.mu_ratio ** 2) / est.mu_ratio ** 2 < 0.05


def test_escape_power_disjoint_count_matches_broadcast(coords_from_codes):
    """The sorted-key test counts the same disjoint pairs as comparing
    every vertex pair of the two walks' coordinates."""
    d, horizon, k, trials, chunk_rows = 2, 25, 4, 700, 256
    power = escape_power_estimate(d, horizon, k, trials, SamplerConfig(seed=71),
                                  chunk_rows=chunk_rows)
    sampler = SawSampler(d, SamplerConfig(seed=71))
    disjoint = 0
    for start in range(0, trials, chunk_rows):
        rows = min(chunk_rows, trials - start)
        long = coords_from_codes(d, sampler.uniform_batch(horizon, rows))
        short = coords_from_codes(d, sampler.uniform_batch(k, rows))
        same = (long[:, 1:, None, :] == short[:, None, 1:, :]).all(axis=3)
        disjoint += int(rows - same.any(axis=(1, 2)).sum())
    assert 0 < disjoint < trials  # both outcomes occur
    assert power == count_saws(d, k) * disjoint / trials


@pytest.mark.parametrize("d, horizon", [(2, 30), (5, 50)])
def test_scalar_estimators_match_coordinates(coords_from_codes, d, horizon):
    """The -e1 visits and endpoints read off the packed keys (int16 keys in
    d=2, int64 in d=5) are those of the walks' coordinates."""
    trials, chunk_rows = 700, 256
    est = scalar_estimators(d, horizon, trials, SamplerConfig(seed=73),
                            chunk_rows=chunk_rows, mu_ratio_length=4)
    sampler = SawSampler(d, SamplerConfig(seed=73))
    minus_e1 = -np.eye(d, dtype=np.int64)[0]
    avoided = square = 0
    for start in range(0, trials, chunk_rows):
        coords = coords_from_codes(
            d, sampler.uniform_batch(horizon, min(chunk_rows, trials - start)))
        avoided += int((~(coords == minus_e1).all(axis=2).any(axis=1)).sum())
        square += int((coords[:, -1] ** 2).sum())
    assert 0 < avoided < trials  # both outcomes occur
    assert est.avoid_fraction == avoided / trials
    assert est.msd_over_n == square / trials / horizon


def test_density_report_round_trip():
    d = 2
    zeta = validate([0, 2], d)
    report = build_density_report(d, zeta, exact_lengths=[2, 4, 6],
                                  mc_lengths=[6, 10], trials=2000,
                                  cfg=SamplerConfig(seed=29),
                                  reference_sides=(3, 3))
    payload = report.to_json_dict()
    assert payload["d"] == d and payload["pattern"] == [0, 2]
    assert payload["reference_prob"] is not None
    rows = report.to_csv_rows()
    assert rows[0] == ["n", "exact_mean_num", "exact_mean_den", "mc_mean",
                       "mc_var", "ci_lo", "ci_hi"]
    by_n = {r.n: r for r in report.rows}
    assert by_n[2].exact_mean is not None and by_n[2].mc is None
    assert by_n[6].exact_mean is not None and by_n[6].mc is not None
    assert by_n[10].exact_mean is None and by_n[10].mc is not None
    ref = report.reference_prob
    assert ref == two_sided_prefix_prob(d, 3, 3, zeta)


def test_proper_pattern_budget_counts_added_vertices():
    r = is_proper_internal_pattern(2, TRAP, max_nodes=100)
    assert r.status == "inconclusive"
    assert r.nodes_visited == 101  # the vertex that ran past the budget
    found = is_proper_internal_pattern(2, validate([0, 2, 1], 2))
    assert found.is_proper and 0 < found.nodes_visited <= 500_000

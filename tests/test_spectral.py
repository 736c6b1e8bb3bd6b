"""Escape matrix, operator application, fixed points, marginal comparison."""

import numpy as np
import pytest

from sawlab import counting, reference, spectral
from sawlab.counting import CountTable, count_saws
from sawlab.errors import BudgetExceededError, ZeroTotalMassError
from sawlab.lattice import lattice_symmetries
from sawlab.spectral import (
    MeasureVector,
    apply_escape_operator,
    build_escape_matrix,
    compare_to_marginal,
    perron_fixed_point,
)


def test_matrix_n1_row_counts():
    m = build_escape_matrix(5, 1)
    assert m.rows.shape == (10, 10)
    assert (m.rows.sum(axis=1) == 9).all()  # only the reversal fails
    assert (m.rows.sum(axis=0) == 9).all()


def test_straight_line_diagonal_entry():
    for d, n in ((2, 3), (3, 2)):
        m = build_escape_matrix(d, n)
        straight = bytes([0] * n)
        i = m.paths.index(straight)
        assert m.rows[i, i]  # a straight head always extends by itself


@pytest.mark.parametrize("d, n", [(1, 4), (2, 0), (2, 3), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_matrix_rows_match_naive_oracle_in_any_blocks(d, n, monkeypatch):
    m = build_escape_matrix(d, n, trim=False)
    expected = np.array([[reference.naive_escapes(d, tuple(tail), tuple(head))
                          for tail in m.paths] for head in m.paths])
    assert (m.rows == expected).all()
    assert m.rows.sum() == count_saws(d, 2 * n)  # every head-tail pair is a walk
    block = 11  # divides none of these sizes: the last block is short
    if m.size > block:
        assert m.size % block
        monkeypatch.setattr(spectral, "_SLICE_KEYS", block * m.size)
        assert (build_escape_matrix(d, n, trim=False).rows == expected).all()


def test_matrix_budget():
    with pytest.raises(BudgetExceededError):
        build_escape_matrix(2, 6, max_paths=100)


def test_apply_operator_uniform_and_point_mass():
    m = build_escape_matrix(5, 1)
    uniform = MeasureVector(np.full(10, 0.1))
    out = apply_escape_operator(m, uniform)
    assert np.allclose(out.values, 0.1)  # regular matrix keeps uniform
    assert out.eigenvalue == pytest.approx(9.0)

    point = np.zeros(10)
    point[3] = 1.0
    out = apply_escape_operator(m, MeasureVector(point))
    column = m.rows[:, 3].astype(float)
    assert np.allclose(out.values, column / column.sum())


def test_apply_operator_oracle_matvec_d2_n2():
    m = build_escape_matrix(2, 2, trim=False)
    assert m.full_size == 12
    uniform = MeasureVector(np.full(12, 1 / 12))
    out = apply_escape_operator(m, uniform)
    # oracle: row sums of the naive pairwise escape relation
    sums = np.array([
        sum(reference.naive_escapes(2, tuple(t), tuple(h)) for t in m.paths)
        for h in m.paths
    ], dtype=float)
    assert np.allclose(out.values, sums / sums.sum())


def test_zero_total_mass():
    m = build_escape_matrix(2, 1)
    bad = MeasureVector(np.zeros(4))
    with pytest.raises(ZeroTotalMassError):
        apply_escape_operator(m, bad)


def test_fixed_point_n1_uniform():
    for d in (2, 5):
        result = perron_fixed_point(build_escape_matrix(d, 1))
        assert np.allclose(result.measure.values, 1 / (2 * d), atol=1e-12)
        assert result.eigenvalue == pytest.approx(2 * d - 1, abs=1e-10)
        assert result.residual <= 1e-12
        assert result.primitivity_power is not None


def test_fixed_point_matches_dense_eigensolver():
    m = build_escape_matrix(2, 3)
    result = perron_fixed_point(m, seed=5)
    w, v = np.linalg.eig(m.rows.astype(float))
    lead = np.argmax(w.real)
    vec = np.abs(v[:, lead].real)
    vec /= vec.sum()
    assert np.abs(vec - result.measure.values).max() < 1e-9
    assert result.eigenvalue == pytest.approx(w[lead].real, abs=1e-9)


def test_fixed_point_symmetry_invariance():
    m = build_escape_matrix(2, 4)
    result = perron_fixed_point(m)
    full = result.full_vector()
    index = {codes: i for i, codes in enumerate(m.paths)}
    for g in lattice_symmetries(2):
        t = g.code_table
        for codes, i in index.items():
            j = index[bytes(t[c] for c in codes)]
            assert abs(full[i] - full[j]) < 1e-10


def test_trimming_keeps_live_rows_and_columns():
    # d=2, n=7 contains trapped heads, so trimming must fire
    m = build_escape_matrix(2, 7, trim=True)
    assert m.trimmed
    assert m.size < m.full_size
    assert m.rows.any(axis=1).all() and m.rows.any(axis=0).all()
    # every kept path can still be escaped and can escape something
    result = perron_fixed_point(m)
    assert (result.measure.values > 0).all()


def test_eigenvalue_bounds():
    for d, n in ((2, 3), (2, 5), (5, 2)):
        result = perron_fixed_point(build_escape_matrix(d, n))
        assert 0 < result.eigenvalue <= count_saws(d, n)


def test_compare_to_marginal_n1_uniform():
    result = perron_fixed_point(build_escape_matrix(2, 1))
    for horizon in (1, 4, 6):
        cmp = compare_to_marginal(result, horizon)
        assert cmp.tv_distance == pytest.approx(0.0, abs=1e-12)


def test_compare_to_marginal_at_own_length_positive_for_n2():
    # at horizon n the marginal is uniform on SAW_n, which the fixed point
    # does not equal for n >= 2
    result = perron_fixed_point(build_escape_matrix(2, 2))
    cmp = compare_to_marginal(result, 2)
    assert cmp.tv_distance > 1e-4
    exact = compare_to_marginal(result, 6)
    assert len(exact.rows) == result.matrix.full_size
    assert exact.tv_distance == pytest.approx(
        0.5 * sum(abs(r.delta) for r in exact.rows))


def test_compare_to_marginal_runs_one_engine_pass(monkeypatch):
    # c_m is the sum of the prefix histogram, so no second count runs
    result = perron_fixed_point(build_escape_matrix(2, 3))
    calls = []
    engine = counting._run_engine

    def counted(*args, **kwargs):
        calls.append(args[3])
        return engine(*args, **kwargs)

    monkeypatch.setattr(counting, "_run_engine", counted)
    table = CountTable(2)
    cmp = compare_to_marginal(result, 9, table=table)
    assert len(calls) == 1
    assert sum(r.marginal for r in cmp.rows) == pytest.approx(1.0)
    assert table.get("plain", 9) is None  # the sum is not cached


def test_report_dict_schema():
    result = perron_fixed_point(build_escape_matrix(2, 2))
    report = result.report_dict(top=3)
    assert set(report) == {"d", "n", "size", "trimmed_size", "Z", "residual",
                           "iters", "primitivity_k", "top_paths"}
    assert len(report["top_paths"]) == 3
    assert all(set(t) == {"steps", "prob"} for t in report["top_paths"])

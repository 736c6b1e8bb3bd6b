"""Exact enumeration: oracle equality, identities, budgets, checkpoints."""

import json
import os
import shutil
from fractions import Fraction

import pytest

from sawlab import counting, reference
from sawlab.counting import (
    CountTable,
    asymptotic_table,
    count_ending_at,
    count_extensions,
    count_saws,
    count_two_sided,
    endpoint_histogram,
    enumerate_paths,
    has_extension,
    prefix_histogram,
    truncated_two_point,
)
from sawlab.errors import BudgetExceededError, CheckpointIgnoredWarning
from sawlab.lattice import (
    Path,
    TwoSidedPath,
    lattice_symmetries,
    validate,
)

TRAP = [3, 0, 0, 2, 2, 1, 3]  # d=2 walk whose head has no free neighbour
# OEIS A001411: c_n on Z^2 for n = 0, 1, ...
A001411 = (1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932)


def test_count_examples():
    assert count_saws(5, 0) == 1
    assert count_saws(5, 3) == 810  # 2d (2d-1)^2: parity forbids early returns
    assert count_saws(2, 4) == reference.naive_count(2, 4)


def test_counts_match_naive_oracle_d2():
    for n in range(8):
        assert count_saws(2, n) == reference.naive_count(2, n)


def test_counts_match_naive_oracle_d3():
    for n in range(5):
        assert count_saws(3, n) == reference.naive_count(3, n)


def test_count_ending_at_examples():
    e1 = (1, 0, 0, 0, 0)
    assert count_ending_at(5, 1, e1) == 1
    # parity / reach give zero without search
    assert count_ending_at(5, 2, e1) == 0
    assert count_ending_at(5, 1, (3, 0, 0, 0, 0)) == 0
    assert count_ending_at(2, 3, (2, 1)) == reference.naive_count_ending_at(2, 3, (2, 1))


def test_endpoint_histogram_consistency():
    for n in (2, 4, 5):
        hist = endpoint_histogram(2, n)
        assert sum(hist.values()) == count_saws(2, n)
        assert all(v > 0 for v in hist.values())


def test_endpoint_counts_symmetric():
    hist = endpoint_histogram(2, 5)
    for g in lattice_symmetries(2):
        for point, value in hist.items():
            assert hist[g.apply_point(point)] == value


def test_count_extensions_examples():
    z = validate([0], 5)
    assert count_extensions(5, 2, z) == 9
    assert count_extensions(5, 1, z) == 1  # the prefix itself
    prefix = validate([0, 2], 2)
    assert count_extensions(2, 4, prefix) == reference.naive_count_with_prefix(2, 4, (0, 2))
    trapped = validate(TRAP, 2)
    assert count_extensions(2, len(TRAP) + 3, trapped) == 0


def test_prefix_sum_identity():
    for n in (3, 5):
        for k in (1, 2, 3):
            hist = prefix_histogram(2, n, k)
            assert sum(hist.values()) == count_saws(2, n)
            # conditioning can only shrink counts
            assert all(v <= count_saws(2, n) for v in hist.values())


def test_prefix_count_equals_escaper_enumeration():
    for codes in enumerate_paths(2, 2):
        zeta = Path(2, codes)
        assert count_extensions(2, 5, zeta) == len(enumerate_paths(2, 5, prefix=zeta))


def test_count_two_sided_examples():
    assert count_two_sided(5, 1, 1) == 90  # folds out to SAW_2
    assert count_two_sided(2, 2, 3) == count_saws(2, 5)
    xi_full = TwoSidedPath(validate([1], 2), validate([0], 2))
    assert count_two_sided(2, 1, 1, xi_full) == 1
    xi = TwoSidedPath(Path(2), validate([0], 2))
    assert count_two_sided(2, 2, 2, xi) == reference.naive_count_two_sided(
        2, 2, 2, pos_prefix=(0,))


def test_count_two_sided_rejects_oversized_condition():
    xi = TwoSidedPath(Path(2), validate([0, 0], 2))
    with pytest.raises(ValueError):
        count_two_sided(2, 3, 1, xi)


def test_has_extension_trap_and_open():
    trapped = validate(TRAP, 2)
    assert has_extension(2, 1, trapped) is False
    assert has_extension(2, 0, trapped) is True
    assert has_extension(2, 40, validate([0, 2], 2)) is True


def test_has_extension_is_memoized(monkeypatch):
    calls = []
    walk = counting._walk

    def counted(*args):
        calls.append(1)
        return walk(*args)

    counting._has_extension.cache_clear()
    monkeypatch.setattr(counting, "_walk", counted)
    assert has_extension(2, 9, validate([0, 2, 1], 2)) is True
    first = len(calls)
    assert first > 0
    # an equal but distinct prefix, anchored elsewhere, reuses the answer
    assert has_extension(2, 9, Path(2, bytes([0, 2, 1]), (4, 4))) is True
    assert len(calls) == first


def test_truncated_two_point_examples():
    # no short returns: only the n=0 term contributes below n=4 in d>=2
    assert truncated_two_point(2, (0, 0), 3, 2.5) == 1.0
    assert truncated_two_point(5, (1, 0, 0, 0, 0), 1, 3.7) == pytest.approx(1 / 3.7)
    # naive oracle for the diagonal point
    mu = 2.0
    expected = sum(
        reference.naive_count_ending_at(2, n, (1, 1)) * mu ** -n for n in range(5)
    )
    assert truncated_two_point(2, (1, 1), 4, mu) == pytest.approx(expected)
    # monotone in the truncation length
    values = [truncated_two_point(2, (1, 1), N, 2.0) for N in range(2, 7)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_asymptotic_table_values():
    table = asymptotic_table(5, 4)
    ratios = {r.n: r.ratio for r in table.rows}
    assert ratios[2] == Fraction(90, 10)
    nonint = dict(table.nonintersection)
    assert nonint[1] == Fraction(90, 100)
    d2 = asymptotic_table(2, 8)
    naive = {n: reference.naive_count(2, n) for n in range(9)}
    for row in d2.rows:
        assert row.count == naive[row.n]
        if row.n >= 1:
            assert row.ratio == Fraction(naive[row.n], naive[row.n - 1])
            assert row.root == pytest.approx(naive[row.n] ** (1 / row.n))
    for m, value in d2.nonintersection:
        assert value == Fraction(naive[2 * m], naive[m] ** 2)
        assert 0 < value <= 1


def test_submultiplicativity_on_cached_counts():
    counts = {n: count_saws(2, n) for n in range(9)}
    for a in range(9):
        for b in range(9 - a):
            assert counts[a + b] <= counts[a] * counts[b]


def test_enumeration_canonical_order_and_prefix():
    paths = enumerate_paths(2, 3)
    assert len(paths) == count_saws(2, 3)
    assert paths == sorted(paths)
    zeta = validate([0, 2], 2)
    with_prefix = enumerate_paths(2, 5, prefix=zeta)
    assert len(with_prefix) == count_extensions(2, 5, zeta)
    assert all(p[:2] == bytes([0, 2]) for p in with_prefix)


def test_parallel_counts_match_serial():
    serial = CountTable(2)
    parallel = CountTable(2)
    assert (count_saws(2, 7, table=serial, workers=1)
            == count_saws(2, 7, table=parallel, workers=2))
    zeta = validate([0, 2], 2)
    assert (count_extensions(2, 7, zeta, table=serial, workers=1)
            == count_extensions(2, 7, zeta, table=parallel, workers=2))
    assert (count_two_sided(2, 3, 3, table=serial, workers=2)
            == count_saws(2, 6, table=serial))
    xi = TwoSidedPath(validate([1], 2), validate([0], 2))
    assert (count_two_sided(2, 3, 3, xi, table=parallel, workers=2)
            == reference.naive_count_two_sided(2, 3, 3, neg_prefix=(1,),
                                               pos_prefix=(0,)))


def test_budget_exceeded_raises():
    with pytest.raises(BudgetExceededError):
        count_saws(2, 10, table=CountTable(2), node_budget=50)


def test_checkpoint_resume(tmp_path):
    ckpt = str(tmp_path / "count.ckpt")
    table = CountTable(2)
    with pytest.raises(BudgetExceededError) as err:
        count_saws(2, 9, table=table, node_budget=300, checkpoint_path=ckpt)
    assert err.value.checkpoint_path == ckpt
    assert os.path.exists(ckpt)
    # resume with a full budget; the result must match a fresh count
    value = count_saws(2, 9, table=CountTable(2), checkpoint_path=ckpt)
    assert value == count_saws(2, 9, table=CountTable(2))
    assert not os.path.exists(ckpt)  # removed after success


def test_count_table_cache_hits():
    table = CountTable(2)
    first = count_saws(2, 6, table=table)
    assert table.get("plain", 6) == first
    assert table.largest_plain() == 6
    # conditioned counts never exceed the plain count
    zeta = validate([0], 2)
    assert count_extensions(2, 6, zeta, table=table) <= first


def test_count_saws_caches_every_shorter_count():
    table = CountTable(2)
    assert count_saws(2, 12, table=table) == A001411[12]
    for k in range(13):
        assert table.get("plain", k) == A001411[k]


def test_asymptotic_table_counts_in_one_pass(monkeypatch):
    calls = []
    engine = counting._run_engine

    def counted(*args, **kwargs):
        calls.append(args[3])
        return engine(*args, **kwargs)

    monkeypatch.setattr(counting, "_run_engine", counted)
    result = asymptotic_table(2, 10, table=CountTable(2))
    assert len(calls) == 1
    assert [row.count for row in result.rows] == list(A001411[:11])


def test_node_budget_is_global(tmp_path):
    # after the first step the search adds c_k / 2d vertices for each length k
    nodes = sum(A001411[2:10]) // 4
    for workers in (1, 2):
        assert count_saws(2, 9, table=CountTable(2), workers=workers,
                          node_budget=nodes) == A001411[9]
        with pytest.raises(BudgetExceededError) as err:
            count_saws(2, 9, table=CountTable(2), workers=workers,
                       node_budget=nodes - 1)
        assert err.value.budget == nodes - 1
        assert err.value.nodes > nodes - 1
    ckpt = str(tmp_path / "count.ckpt")
    with pytest.raises(BudgetExceededError):
        count_saws(2, 9, table=CountTable(2), node_budget=nodes // 2,
                   checkpoint_path=ckpt)
    with open(ckpt, encoding="utf-8") as fh:
        assert json.load(fh)["done"]  # some tasks finished before the stop
    shutil.copy(ckpt, ckpt + ".copy")
    with pytest.raises(BudgetExceededError):
        count_saws(2, 9, table=CountTable(2), node_budget=nodes - 1,
                   checkpoint_path=ckpt)
    for path, workers in ((ckpt, 1), (ckpt + ".copy", 2)):
        assert count_saws(2, 9, table=CountTable(2), workers=workers,
                          node_budget=nodes, checkpoint_path=path) == A001411[9]


@pytest.mark.parametrize("workers", [1, 2])
def test_node_budget_bounds_the_work(workers):
    nodes = sum(A001411[2:13]) // 4
    budget = nodes // 5
    with pytest.raises(BudgetExceededError) as err:
        count_saws(2, 12, table=CountTable(2), workers=workers,
                   node_budget=budget)
    # every node charged is work done; each task in flight gets at most the
    # nodes left when it starts and stops one level (2d nodes) past them
    assert budget < err.value.nodes <= workers * (budget + 4)


def test_checkpoint_warns_when_ignored(tmp_path):
    ckpt = str(tmp_path / "count.ckpt")
    with open(ckpt, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with pytest.warns(CheckpointIgnoredWarning):
        assert count_saws(2, 8, table=CountTable(2),
                          checkpoint_path=ckpt) == A001411[8]
    with pytest.raises(BudgetExceededError):
        count_saws(2, 9, table=CountTable(2), node_budget=300,
                   checkpoint_path=ckpt)
    with pytest.warns(CheckpointIgnoredWarning, match="another count"):
        assert count_saws(2, 8, table=CountTable(2),
                          checkpoint_path=ckpt) == A001411[8]

"""Exact enumeration: oracle equality, identities, budgets, checkpoints."""

import hashlib
import json
import os
import shutil
from fractions import Fraction

import numpy as np
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
from sawlab.errors import (BudgetExceededError, CheckpointIgnoredWarning,
                           NotSelfAvoidingError)
from sawlab.lattice import (
    Path,
    TwoSidedPath,
    lattice_symmetries,
    validate,
)
from sawlab.store import CountCache

TRAP = [3, 0, 0, 2, 2, 1, 3]  # d=2 walk whose head has no free neighbour
# OEIS A001411: c_n on Z^2 for n = 0, 1, ...
A001411 = (1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932)
# c_n on Z^d for d = 1 (two walks of each length n >= 1) and for d = 3, 4, 5:
# OEIS A001412, A010575 and A010576
C_N = {1: (1,) + (2,) * 12,
       2: A001411,
       3: (1, 6, 30, 150, 726, 3534, 16926, 81390, 387966, 1853886, 8809878),
       4: (1, 8, 56, 392, 2696, 18584, 127160, 871256),
       5: (1, 10, 90, 810, 7210, 64250, 570330)}


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


def _naive_endpoints(dimension, n):
    """Brute-force endpoint tally over every walk the oracle accepts."""
    hist = {}
    for codes in reference.naive_saws(dimension, n):
        end = reference._walk_vertices(dimension, codes)[-1]
        hist[end] = hist.get(end, 0) + 1
    return hist


@pytest.mark.parametrize("dimension, n_max", [(1, 6), (2, 8), (3, 6), (4, 5)])
def test_reduced_pass_matches_oracle(dimension, n_max):
    # the straight walk, the turn to +e2 and, from d=3 on, the axis swap of
    # the turn map; d=1 has no turn
    for n in range(n_max + 1):
        naive = _naive_endpoints(dimension, n)
        assert count_saws(dimension, n, table=CountTable(dimension)) == sum(
            naive.values())
        hist = endpoint_histogram(dimension, n, table=CountTable(dimension))
        assert hist == naive, (dimension, n)
        if (2 * dimension) ** n <= 1024:
            for point, value in hist.items():
                assert value == reference.naive_count_ending_at(
                    dimension, n, point), (dimension, n, point)


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


def test_count_two_sided_refuses_a_middle_no_walk_extends():
    table = CountTable(2)
    for neg, pos in (([0], [0]), ([2], [0, 2, 1]), ([0, 1], [])):
        xi = TwoSidedPath(Path(2, bytes(neg)), Path(2, bytes(pos)))
        # refused before the table is read: a value held there is not used
        table.put("two_sided", 6, (3, 3, bytes(neg), bytes(pos)), 50)
        with pytest.raises(NotSelfAvoidingError):
            count_two_sided(2, 3, 3, xi, table=table)


@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
def test_reduced_two_sided_matches_oracle(dimension):
    # an empty middle walks the longer side's reduced tree: m = 0 and m = 1
    # swap the sides, and a one-step negative side (m = 1, n <= 1) has no
    # turn
    counts = C_N[dimension]
    for total in range(len(counts)):
        for m, n in {(0, total), (1, total - 1), (total, 0),
                     (total // 2, total - total // 2)}:
            if n < 0:
                continue
            value = count_two_sided(dimension, m, n,
                                    table=CountTable(dimension))
            if (2 * dimension) ** total <= 4096:
                assert value == reference.naive_count_two_sided(
                    dimension, m, n), (dimension, m, n)
            assert value == counts[total], (dimension, m, n)


def test_reduced_two_sided_on_a_pool():
    for dimension, m, n in ((2, 5, 5), (2, 0, 9), (3, 1, 6), (5, 3, 2)):
        assert (count_two_sided(dimension, m, n, table=CountTable(dimension),
                                workers=2)
                == count_two_sided(dimension, m, n,
                                   table=CountTable(dimension))
                == C_N[dimension][m + n])


def test_checkpoint_of_the_unreduced_two_sided_layout_is_ignored(tmp_path):
    # a checkpoint written while empty-middle counts walked the whole tree:
    # its task indices name other negative sides, so it must not be loaded
    key = (5, 5, b"", b"")
    old = hashlib.sha256(
        repr((3, 2, "two_sided", 5, 5, key)).encode()).hexdigest()[:16]
    ckpt = str(tmp_path / "two.ckpt")
    with open(ckpt, "w", encoding="utf-8") as fh:
        json.dump({"signature": old,
                   "done": {str(i): {"counts": [0, 0, 0, 0, 0, 1],
                                     "nodes": 5} for i in range(4)}}, fh)
    with pytest.warns(CheckpointIgnoredWarning, match="another count"):
        assert count_two_sided(2, 5, 5, table=CountTable(2),
                               checkpoint_path=ckpt) == A001411[10]


def _serial_charge(monkeypatch, count):
    """The nodes one serial run of ``count()`` charges."""
    charged = []
    engine = counting._run_engine

    def recorded(*args, **kwargs):
        counts, nodes = engine(*args, **kwargs)
        charged.append(nodes)
        return counts, nodes

    with monkeypatch.context() as patch:
        patch.setattr(counting, "_run_engine", recorded)
        count()
    [nodes] = charged
    return nodes


def test_reduced_two_sided_walks_the_longer_side(monkeypatch):
    # a one-step negative side has no turn to fix, so (1, n) is counted as
    # (n, 1) and charges its nodes
    for m, n in ((1, 9), (0, 9), (3, 6)):
        assert (_serial_charge(monkeypatch, lambda: count_two_sided(
                    2, m, n, table=CountTable(2)))
                == _serial_charge(monkeypatch, lambda: count_two_sided(
                    2, n, m, table=CountTable(2))))


def test_reduced_two_sided_budget_is_global(tmp_path, monkeypatch):
    def count(**kwargs):
        return count_two_sided(2, 5, 5, table=CountTable(2), **kwargs)

    nodes = _serial_charge(monkeypatch, count)
    for workers in (1, 2):
        assert count(workers=workers, node_budget=nodes) == A001411[10]
        with pytest.raises(BudgetExceededError) as err:
            count(workers=workers, node_budget=nodes - 1)
        assert err.value.budget == nodes - 1
        assert err.value.nodes > nodes - 1
    ckpt = str(tmp_path / "two.ckpt")
    with pytest.raises(BudgetExceededError):
        count(node_budget=nodes // 2, checkpoint_path=ckpt)
    with open(ckpt, encoding="utf-8") as fh:
        assert json.load(fh)["done"]  # some tasks finished before the stop
    shutil.copy(ckpt, ckpt + ".copy")
    with pytest.raises(BudgetExceededError):
        count(node_budget=nodes - 1, checkpoint_path=ckpt)
    for path, workers in ((ckpt, 1), (ckpt + ".copy", 2)):
        assert count(workers=workers, node_budget=nodes,
                     checkpoint_path=path) == A001411[10]


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


def test_warm_cache_two_point_runs_no_endpoint_pass(tmp_path, monkeypatch):
    path = str(tmp_path / "counts.jsonl")
    cold = truncated_two_point(2, (0, 0), 8, 2.6,
                               table=CountTable(2, CountCache(path)))
    passes = []
    histogram = counting.endpoint_histogram

    def counted(*args, **kwargs):
        passes.append(args[1])
        return histogram(*args, **kwargs)

    monkeypatch.setattr(counting, "endpoint_histogram", counted)
    warm = CountTable(2, CountCache(path))
    assert truncated_two_point(2, (0, 0), 8, 2.6, table=warm) == cold == 1.0
    assert passes == []
    # the zeros the cold run derived are stored, reached or not
    assert [warm.get("end", n, (0, 0)) for n in range(9)] == [1] + [0] * 8


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


@pytest.mark.parametrize("dimension, n_max", [(1, 6), (2, 7), (3, 5), (4, 4)])
def test_enumeration_is_the_filtered_oracle(dimension, n_max):
    # with and without a prefix, in the oracle's lexicographic order
    for n in range(n_max + 1):
        walks = [bytes(w) for w in reference.naive_saws(dimension, n)]
        assert enumerate_paths(dimension, n) == walks
        for k in range(min(n, 2) + 1):
            for head in enumerate_paths(dimension, k):
                assert enumerate_paths(dimension, n, prefix=Path(
                    dimension, head)) == [w for w in walks
                                          if w[:k] == head], (n, head)


def test_enumeration_leaves_the_base_tables_alone():
    from sawlab.sampling import SamplerConfig, _base_arrays, _key_dtype
    _base_arrays(2, 3, _key_dtype(2, 3))
    before = _base_arrays.cache_info().currsize
    length = SamplerConfig().resolve_base_length(2) + 2
    assert len(enumerate_paths(2, length)) == A001411[length]
    assert len(enumerate_paths(2, length, prefix=validate([0, 2], 2))) > 0
    assert _base_arrays.cache_info().currsize == before


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
    assert (count_saws(3, 9, table=CountTable(3))
            == count_saws(3, 9, table=CountTable(3), workers=2))
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


def _reduced_nodes(n):
    """Vertices of the reduced d=2 tree below the fixed first step: for each
    length 2 <= k <= n, the straight walk and the (c_k/4 - 1)/2 walks whose
    first turn is to +e2."""
    return sum((c // 4 - 1) // 2 + 1 for c in A001411[2:n + 1])


def test_node_budget_is_global(tmp_path):
    nodes = _reduced_nodes(9)  # 3,200
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


def test_prefix_histogram_matches_oracle():
    # k = m and the short walks whose split reaches the full depth included
    for dimension, m_max in ((1, 6), (2, 6), (3, 4), (4, 4)):
        for m in range(1, m_max + 1):
            for k in range(1, m + 1):
                hist = prefix_histogram(dimension, m, k,
                                        table=CountTable(dimension))
                assert sorted(hist) == [bytes(p) for p in
                                        reference.naive_saws(dimension, k)]
                for codes, value in hist.items():
                    assert value == reference.naive_count_with_prefix(
                        dimension, m, tuple(codes)), (dimension, m, codes)


@pytest.mark.parametrize("workers", [1, 2])
def test_prefix_histogram_matches_count_extensions(workers):
    for dimension, m, k in ((5, 6, 2), (2, 10, 5)):
        hist = prefix_histogram(dimension, m, k, table=CountTable(dimension),
                                workers=workers)
        table = CountTable(dimension)
        assert hist == {codes: count_extensions(dimension, m,
                                                Path(dimension, codes),
                                                table=table)
                        for codes in enumerate_paths(dimension, k)}


def test_prefix_histogram_runs_one_engine_pass(monkeypatch):
    calls = []
    engine = counting._run_engine

    def counted(*args, **kwargs):
        calls.append(args[3])
        return engine(*args, **kwargs)

    monkeypatch.setattr(counting, "_run_engine", counted)
    table = CountTable(2)
    hist = prefix_histogram(2, 9, 3, table=table)
    assert len(calls) == 1 and len(hist) == 36
    assert prefix_histogram(2, 9, 3, table=table) == hist
    assert len(calls) == 1  # every prefix is in the table now


def test_prefix_histogram_shares_one_budget():
    nodes = _reduced_nodes(9)  # charged as count_saws(2, 9) is
    for workers in (1, 2):
        hist = prefix_histogram(2, 9, 2, table=CountTable(2), workers=workers,
                                node_budget=nodes)
        assert len(hist) == 12 and sum(hist.values()) == A001411[9]
        for budget in (3000, nodes - 1):
            with pytest.raises(BudgetExceededError) as err:
                prefix_histogram(2, 9, 2, table=CountTable(2), workers=workers,
                                 node_budget=budget)
            assert err.value.budget == budget
            assert err.value.nodes > budget


def test_prefix_histogram_opens_one_pool(monkeypatch):
    # the engine imports the pool where it opens one, so patch its home
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    serial = prefix_histogram(2, 9, 3, table=CountTable(2))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    assert prefix_histogram(2, 9, 3, table=CountTable(2), workers=2) == serial
    assert len(pools) == 1


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


def test_checkpoint_of_the_unreduced_layout_is_ignored(tmp_path):
    # a checkpoint written before the first-turn reduction: its task indices
    # name other prefixes, so it must not be loaded
    old = hashlib.sha256(repr((3, 2, "plain", 9)).encode()).hexdigest()[:16]
    ckpt = str(tmp_path / "count.ckpt")
    with open(ckpt, "w", encoding="utf-8") as fh:
        json.dump({"signature": old,
                   "done": {str(i): {"counts": [0, 0, 0, 1, 2, 4, 9, 21, 49],
                                     "nodes": 86} for i in range(4)}}, fh)
    with pytest.warns(CheckpointIgnoredWarning, match="another count"):
        assert count_saws(2, 9, table=CountTable(2),
                          checkpoint_path=ckpt) == A001411[9]


@pytest.mark.parametrize("kind", ["plain", "two_sided"])
def test_checkpoint_of_the_spine_layout_is_ignored(tmp_path, kind):
    # a checkpoint written while reduced passes cut their tasks off a
    # straight run walked apart (its turns first, each at its own level):
    # its task indices name other walks of the frontier, so it must not be
    # loaded
    parts = ((2, "plain", 9, 0) if kind == "plain"
             else (2, "two_sided", 5, 5, (5, 5, b"", b"")))
    old = hashlib.sha256(
        repr((3, *parts, "first-turn")).encode()).hexdigest()[:16]
    ckpt = str(tmp_path / "count.ckpt")
    size = 9 if kind == "plain" else 6
    with open(ckpt, "w", encoding="utf-8") as fh:
        json.dump({"signature": old,
                   "done": {str(i): {"counts": [0] * (size - 1) + [1],
                                     "nodes": 5} for i in range(4)}}, fh)
    with pytest.warns(CheckpointIgnoredWarning, match="another count"):
        value = (count_saws(2, 9, table=CountTable(2), checkpoint_path=ckpt)
                 if kind == "plain" else
                 count_two_sided(2, 5, 5, table=CountTable(2),
                                 checkpoint_path=ckpt))
    assert value == A001411[9 if kind == "plain" else 10]


def _record_entry_gaps(monkeypatch) -> set:
    """depth - level of every task handed to ``_count_frontier``."""
    gaps, kernel = set(), counting._count_frontier

    def recorded(deltas, walk, tasks, depth, *rest, **kwargs):
        gaps.update(depth - len(codes) for codes in tasks)
        return kernel(deltas, walk, tasks, depth, *rest, **kwargs)

    monkeypatch.setattr(counting, "_count_frontier", recorded)
    return gaps


def test_count_depths_at_every_gap_matches_oracle(monkeypatch):
    # tasks one level (counted, never built), two levels and three levels
    # above the kernel's depth
    gaps = _record_entry_gaps(monkeypatch)
    for codes, n_range in (((0,), range(5, 8)), ((0, 2), range(6, 9))):
        for n in n_range:
            assert count_extensions(
                2, n, Path(2, bytes(codes)), table=CountTable(2)
            ) == reference.naive_count_with_prefix(2, n, codes), (codes, n)
    assert gaps == {1, 2, 3}

    gaps.clear()
    for dimension, n in ((2, 5), (2, 6), (2, 7), (3, 5)):
        hist = endpoint_histogram(dimension, n, table=CountTable(dimension))
        assert hist == _naive_endpoints(dimension, n), (dimension, n)
    assert {1, 2, 3} <= gaps

    gaps.clear()
    for m in (5, 6, 7):
        hist = prefix_histogram(2, m, 2, table=CountTable(2))
        for codes, value in hist.items():
            assert value == reference.naive_count_with_prefix(
                2, m, tuple(codes)), (m, codes)
    assert gaps == {1, 2, 3}


def _kernel_below_one_step(monkeypatch) -> set:
    """Cut counts into tasks after one step, so that ``_count_frontier``
    counts walks too short for the usual split; returns the task gaps."""
    monkeypatch.setattr(counting, "_SPLIT_DEPTH", 1)
    return _record_entry_gaps(monkeypatch)


@pytest.mark.parametrize("dimension, dtype", [
    (5, np.int16), (8, np.int32), (16, np.int64), (20, np.int64),
    (21, object)])
def test_frontier_keys_of_every_width(monkeypatch, dimension, dtype):
    # 4-step walks take base 9: keys within +-(9^d - 1)/2, so int16 holds
    # d <= 5, int32 d <= 10 and int64 d <= 20
    assert counting._moves(dimension, 9).dtype == dtype
    gaps = _kernel_below_one_step(monkeypatch)
    q = 2 * dimension  # every 4-step walk is self-avoiding but the squares
    assert (count_saws(dimension, 4, table=CountTable(dimension))
            == q * (q - 1) ** 3 - q * (q - 2))
    assert gaps == {2}


@pytest.mark.parametrize("length, dtype", [(66, np.int16), (125, np.int32),
                                           (32764, np.int32), (32767, np.int64)])
def test_frontier_below_a_long_prefix(monkeypatch, length, dtype):
    # three steps past a straight run reach back no further than three
    # steps, so they escape it as they escape the straight (0, 0, 0); in
    # d=2 base 2n+1 takes int16 up to n = 127 and int32 up to n = 32767
    n = length + 3
    assert counting._moves(2, 2 * n + 1).dtype == dtype
    gaps = _kernel_below_one_step(monkeypatch)
    assert (count_extensions(2, n, Path(2, bytes(length)), table=CountTable(2))
            == reference.naive_count_with_prefix(2, 6, (0, 0, 0)))
    assert gaps == {2}


def test_sliced_frontier_matches_whole_and_oracles(monkeypatch):
    middle = TwoSidedPath(validate([1], 2), validate([0, 2], 2))

    def results():
        return ([count_saws(d, n, table=CountTable(d))
                 for d, n in ((2, 10), (3, 7))],
                endpoint_histogram(2, 8, table=CountTable(2)),
                prefix_histogram(2, 8, 3, table=CountTable(2)),
                [count_two_sided(2, m, n, table=CountTable(2))
                 for m, n in ((3, 3), (0, 6), (1, 5), (6, 4))],
                count_two_sided(2, 3, 3, middle, table=CountTable(2)))

    whole = results()
    monkeypatch.setattr(counting, "_SLICE_KEYS", 8)  # one row per slice
    assert results() == whole
    plain, ends, prefixes, two_sided, with_middle = whole
    assert plain == [A001411[10], C_N[3][7]]
    walks = reference.naive_saws(2, 8)
    assert ends == _naive_endpoints(2, 8)
    tally = {}
    for codes in walks:
        tally[bytes(codes[:3])] = tally.get(bytes(codes[:3]), 0) + 1
    assert prefixes == tally
    assert two_sided[:3] == [reference.naive_count_two_sided(2, m, n)
                             for m, n in ((3, 3), (0, 6), (1, 5))]
    assert two_sided[3] == A001411[10]
    assert with_middle == reference.naive_count_two_sided(
        2, 3, 3, neg_prefix=(1,), pos_prefix=(0, 2))


def test_endpoint_histogram_charges_the_reduced_tree():
    nodes = _reduced_nodes(9)  # the tree count_saws(2, 9) walks
    hist = endpoint_histogram(2, 9, table=CountTable(2), node_budget=nodes)
    assert sum(hist.values()) == A001411[9]
    with pytest.raises(BudgetExceededError) as err:
        endpoint_histogram(2, 9, table=CountTable(2), node_budget=nodes - 1)
    assert err.value.budget == nodes - 1
    assert err.value.nodes > nodes - 1

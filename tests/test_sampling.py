"""Sampler exactness, reproducibility, acceptance-rate identity, budgets."""

import time

import numpy as np
import pytest
from scipy import stats

from sawlab.counting import _moves, count_saws, enumerate_paths
from sawlab.errors import (
    ImpossiblePrefixError,
    NoEscaperExistsError,
    NotSelfAvoidingError,
    RejectionBudgetExceededError,
)
from sawlab.lattice import Path, TwoSidedPath, escapes, validate, validate_two_sided
from sawlab.sampling import (
    SamplerConfig,
    SawSampler,
    _base_arrays,
    _base_codes,
    _codes_from_keys,
    _decoder,
    _KEY_DTYPES,
    _escapes_batch,
    _first_accepted,
    _halves_avoid,
    _joined_keys,
    _junction_avoids,
    _key_dtype,
    _keys_from_codes,
    _occupancy,
    _packing,
    _pairs_distinct,
    _rows_distinct,
)

TRAP = validate([3, 0, 0, 2, 2, 1, 3], 2)


def chi_square_uniform(counts: np.ndarray, draws: int, alpha: float = 1e-3) -> bool:
    expected = draws / counts.size
    statistic = float(((counts - expected) ** 2 / expected).sum())
    return statistic <= stats.chi2.isf(alpha, counts.size - 1)


def test_zero_and_single_step_draws():
    sampler = SawSampler(5, SamplerConfig(seed=1))
    assert len(sampler.uniform(0)) == 0
    counts = np.zeros(10)
    for _ in range(20000):
        counts[sampler.uniform(1).steps[0]] += 1
    assert chi_square_uniform(counts, 20000)


@pytest.mark.parametrize("d, n", [(2, 40), (5, 50)])
def test_empty_batch_draws_nothing(d, n):
    # above the base length, where a batch is built by dimerization
    sampler = SawSampler(d, SamplerConfig(seed=4))
    untouched = SawSampler(d, SamplerConfig(seed=4))
    empty = sampler.uniform_batch(n, 0)
    assert empty.shape == (0, n) and empty.dtype == np.uint8
    assert np.array_equal(sampler.uniform_batch(n, 5),
                          untouched.uniform_batch(n, 5))


def test_reproducibility_same_seed_same_stream():
    a = SawSampler(3, SamplerConfig(seed=7, stream_id=2))
    b = SawSampler(3, SamplerConfig(seed=7, stream_id=2))
    assert [a.uniform(9).steps for _ in range(20)] == \
           [b.uniform(9).steps for _ in range(20)]
    c = SawSampler(3, SamplerConfig(seed=7, stream_id=3))
    assert c.uniform(9).steps != a.uniform(9).steps or \
           c.uniform(9).steps != a.uniform(9).steps


def test_extra_key_streams_are_independent_of_call_order():
    cfg = SamplerConfig(seed=11)
    direct = SawSampler(2, cfg, extra_key=(5,)).uniform(8).steps
    # drawing from other streams first must not disturb stream 5
    for trial in (0, 1, 2):
        SawSampler(2, cfg, extra_key=(trial,)).uniform(8)
    again = SawSampler(2, cfg, extra_key=(5,)).uniform(8).steps
    assert direct == again


def test_per_draw_uniformity_chi_square():
    d, n, draws = 2, 5, 60_000
    sampler = SawSampler(d, SamplerConfig(seed=3, base_length=3))
    index = {codes: i for i, codes in enumerate(enumerate_paths(d, n))}
    counts = np.zeros(len(index))
    for _ in range(draws):
        counts[index[sampler.uniform(n).steps]] += 1
    assert chi_square_uniform(counts, draws)


def test_batch_uniformity_and_acceptance_identity():
    d, n, draws = 2, 6, 200_000
    sampler = SawSampler(d, SamplerConfig(seed=5, base_length=3))
    codes = sampler.uniform_batch(n, draws)
    assert codes.shape == (draws, n)
    packed = codes.astype(np.int64) @ (4 ** np.arange(n, dtype=np.int64))
    valid = [int(np.frombuffer(c, np.uint8).astype(np.int64)
                 @ (4 ** np.arange(n, dtype=np.int64)))
             for c in enumerate_paths(d, n)]
    obs = np.bincount(packed, minlength=4 ** n)
    assert obs.sum() == draws
    assert obs[np.setdiff1d(np.arange(4 ** n), valid)].sum() == 0
    assert chi_square_uniform(obs[valid], draws)

    # measured top-level acceptance within 4 sigma of c_6 / c_3^2
    p = count_saws(d, 6) / count_saws(d, 3) ** 2
    st = sampler.last_batch_stats
    sigma = (p * (1 - p) / st.attempts) ** 0.5
    assert abs(st.acceptance - p) <= 4 * sigma


@pytest.mark.parametrize("count, batches, rounds", [
    (4, 5000, "pilot"), (1000, 30, "sized"), (200_000, 1, "capped"),
])
def test_round_sizing_keeps_the_batch_law(monkeypatch, count, batches, rounds):
    # cold samplers with base_length 3, so SAW_6 is one dimerized level: a
    # batch of 4 mostly ends in its pilot round of 12 pairs, one of 1,000
    # takes sized rounds after its pilot of 264, and one of 200,000 runs
    # rounds capped at 500,000 vertex keys (71,428 pairs of 7 keys)
    d, n = 2, 6
    chunks = []
    draw = SawSampler._base_rows

    def spied(self, table, size):
        if table.shape[1] == 3:
            chunks[-1].append(size)
        return draw(self, table, size)

    monkeypatch.setattr(SawSampler, "_base_rows", spied)
    index = {codes: i for i, codes in enumerate(enumerate_paths(d, n))}
    counts = np.zeros(len(index))
    attempts = accepted = 0
    for seed in range(batches):
        chunks.append([])
        sampler = SawSampler(d, SamplerConfig(seed=seed, base_length=3))
        for row in sampler.uniform_batch(n, count):
            counts[index[row.tobytes()]] += 1
        attempts += sampler.last_batch_stats.attempts
        accepted += sampler.last_batch_stats.accepted
    # a round draws the row indexes of both halves of 3 in one call
    sizes = [[size // 2 for size in drawn] for drawn in chunks]
    assert [rnd[0] for rnd in sizes] == [min(count, 256) + 8] * batches
    rounds_run = np.array([len(rnd) for rnd in sizes])
    if rounds == "pilot":
        assert (rounds_run == 1).mean() > 0.9
    elif rounds == "sized":
        # the margin covers the round's own shortfall, not the pilot's
        # error in the rate, so some batches need a third round
        assert (rounds_run >= 2).all() and (rounds_run == 2).mean() > 0.5
        assert (rounds_run > 2).any()
    else:
        assert max(sizes[0]) == 500_000 // (n + 1)
    assert chi_square_uniform(counts, count * batches)

    # pooled top-level acceptance within 4 sigma of c_6 / c_3^2
    p = count_saws(d, 6) / count_saws(d, 3) ** 2
    sigma = (p * (1 - p) / attempts) ** 0.5
    assert abs(accepted / attempts - p) <= 4 * sigma


@pytest.mark.parametrize("d, n, count, most", [
    (5, 100, 5000, 600_000), (2, 128, 1500, 1_907_286),
])
def test_cold_batch_draws_few_base_rows(monkeypatch, d, n, count, most):
    # base-table rows a cold seeded batch draws at every level; sizing the
    # first rounds from a cold guess of 0.6 drew 1,420,734 and 1,907,286
    rows = [0]
    draw = SawSampler._base_rows

    def counted(self, table, size):
        rows[0] += size
        return draw(self, table, size)

    monkeypatch.setattr(SawSampler, "_base_rows", counted)
    assert SawSampler(d, SamplerConfig(seed=1)).uniform_batch(n, count).shape \
        == (count, n)
    assert rows[0] <= most


def test_batch_matches_per_draw_law():
    # same seed does not give same draws across APIs, but both must be
    # uniform; compare their frequencies against each other coarsely
    d, n, draws = 2, 4, 50_000
    sampler = SawSampler(d, SamplerConfig(seed=9, base_length=2))
    index = {codes: i for i, codes in enumerate(enumerate_paths(d, n))}
    a = np.zeros(len(index))
    for _ in range(draws):
        a[index[sampler.uniform(n).steps]] += 1
    b = np.zeros(len(index))
    for row in sampler.uniform_batch(n, draws):
        b[index[row.tobytes()]] += 1
    assert chi_square_uniform(a, draws) and chi_square_uniform(b, draws)


def test_two_sided_law_and_acceptance():
    d, m, n = 5, 1, 1
    sampler = SawSampler(d, SamplerConfig(seed=13))
    counts = {}
    draws = 30_000
    for _ in range(draws):
        ts = sampler.two_sided(m, n)
        key = (ts.neg.steps, ts.pos.steps)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 90  # bijection with SAW_2
    assert chi_square_uniform(np.array(list(counts.values())), draws)


def test_per_draw_is_a_batch_of_one():
    # one engine: per-draw calls and one-row batches read the same stream
    for d, n in ((2, 8), (2, 31), (5, 23)):
        a = SawSampler(d, SamplerConfig(seed=53))
        b = SawSampler(d, SamplerConfig(seed=53))
        for _ in range(20):
            assert a.uniform(n).steps == b.uniform_batch(n, 1)[0].tobytes()


def test_base_index_draw_equals_one_row_draw():
    # uniform's base-case shortcut relies on this Philox identity
    for size in (10, 90, 810, 2172, 5916, 7210, 64250):
        a = SawSampler(2, SamplerConfig(seed=59)).rng
        b = SawSampler(2, SamplerConfig(seed=59)).rng
        for _ in range(50):
            assert int(a.integers(size)) == int(b.integers(size, size=1)[0])


@pytest.mark.parametrize("d", range(1, 7))
def test_keys_from_codes_is_the_coordinate_packing(coords_from_codes, d):
    rng = np.random.default_rng(61 + d)
    for n in (0, 1, 7, 40):
        codes = rng.integers(0, 2 * d, size=(50, n), dtype=np.uint8)
        dtype = _key_dtype(d, n)  # the narrowest packing holding n steps
        want = coords_from_codes(d, codes) @ _packing(d, dtype)[1]
        got = _keys_from_codes(d, codes, dtype)
        assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("d, n, count", [
    (2, 5, 400), (2, 8, 400), (2, 37, 400), (2, 3, 1), (2, 37, 1),
    (5, 4, 400), (5, 5, 400), (5, 31, 400), (5, 2, 1), (5, 31, 1),
])
def test_draw_batch_keys_match_its_codes(d, n, count):
    # base-table draws (n <= base_length), dimerized ones and batches of one:
    # the keys are those of self-avoiding walks
    sampler = SawSampler(d, SamplerConfig(seed=67))
    dtype = _key_dtype(d, n)
    for _ in range(3):
        keys = sampler._draw_batch(n, count, dtype)
        assert keys.shape == (count, n + 1) and keys.dtype == dtype
        _assert_walks(d, keys)


def _assert_walks(d, keys):
    # the decoded codes are self-avoiding walks, and their keys are ``keys``
    codes = _codes_from_keys(d, keys)
    assert codes.shape == (len(keys), keys.shape[1] - 1)
    assert np.array_equal(_keys_from_codes(d, codes, keys.dtype), keys)
    for row in codes:
        validate(row.tolist(), d)
    return codes


@pytest.mark.parametrize("d", range(1, 9))
def test_codes_from_keys_inverts_keys_from_codes(d):
    # every packing of d = 1..8: random base-table walks that fit its
    # extent, and a straight run along every +-e_a that ends at the extent
    # limit (a run is at most 300 steps, moved out to end there)
    rng = np.random.default_rng(107 + d)
    for dtype in _KEY_DTYPES:
        assert _decoder(d, dtype)[2].size <= 2 ** 9
        base, _, moves = _packing(d, dtype)
        top = (base - 1) // 2
        table = _base_codes(d, min(top, 3))
        codes = table[rng.integers(len(table), size=200)]
        assert np.array_equal(_codes_from_keys(d, _keys_from_codes(d, codes, dtype)),
                              codes)
        run = min(top, 300)
        codes = np.arange(2 * d, dtype=np.uint8)[:, None].repeat(run, axis=1)
        keys = _keys_from_codes(d, codes, dtype) + ((top - run) * moves)[:, None]
        assert (keys[:, -1] == top * moves).all()
        assert np.array_equal(_codes_from_keys(d, keys), codes)


@pytest.mark.parametrize("d, n, count", [
    (2, 5, 40), (2, 37, 40), (2, 37, 1), (5, 4, 1), (5, 31, 40), (5, 31, 1),
])
def test_spare_draws_are_walks_with_their_keys(d, n, count):
    # a dimerized draw keeps every walk its last round accepted; a
    # base-table draw returns exactly the count
    sampler = SawSampler(d, SamplerConfig(seed=71))
    dtype = _key_dtype(d, n)
    for _ in range(3):
        keys = sampler._draw_batch(n, count, dtype, spare=True)
        if n <= sampler.base_length:
            assert len(keys) == count
        assert len(keys) >= count and keys.shape[1] == n + 1
        _assert_walks(d, keys)


def _mask_and_sort_verdicts(d, n1, n2, i1, i2):
    # the occupancy-mask verdict and the sort of the joined keys, pair by
    # pair, for halves i1 of SAW_n1 and i2 of SAW_n2 in base-table order
    masks = _junction_avoids(_occupancy(d, n1, n1, True),
                             _occupancy(d, n2, n1, False), i1, i2)
    dtype = _key_dtype(d, n1 + n2)
    k1, k2 = _base_arrays(d, n1, dtype)[1], _base_arrays(d, n2, dtype)[1]
    return masks, _pairs_distinct(k1[i1], k2[i2])


@pytest.mark.parametrize("d, n1", [(2, n) for n in range(1, 6)] + [(3, 1), (3, 2)])
@pytest.mark.parametrize("shorter", [1, 0])
def test_occupancy_masks_match_the_sort_test_on_all_pairs(d, n1, shorter):
    n2 = n1 - shorter
    rows1, rows2 = (_base_codes(d, n).shape[0] for n in (n1, n2))
    i1, i2 = np.divmod(np.arange(rows1 * rows2), rows2)
    masks, sort = _mask_and_sort_verdicts(d, n1, n2, i1, i2)
    assert np.array_equal(masks, sort)


@pytest.mark.parametrize("n1, n2", [(8, 8), (8, 7), (10, 10), (10, 9)])
def test_occupancy_masks_match_the_sort_test_on_random_pairs(n1, n2):
    # d=2 at the default base (5 words) and at base 10 (a 441-bit box)
    rng = np.random.default_rng(n1 * 100 + n2)
    i1 = rng.integers(_base_codes(2, n1).shape[0], size=100_000)
    i2 = rng.integers(_base_codes(2, n2).shape[0], size=100_000)
    masks, sort = _mask_and_sort_verdicts(2, n1, n2, i1, i2)
    assert np.array_equal(masks, sort)
    assert 0.3 < masks.mean() < 0.7
    # a round of few pairs takes the other branch of the mask test
    few, _ = _mask_and_sort_verdicts(2, n1, n2, i1[:1000], i2[:1000])
    assert np.array_equal(few, sort[:1000])


@pytest.mark.parametrize("d, n, radius", [(1, 4, 4), (2, 8, 8), (2, 7, 8),
                                          (2, 10, 10), (3, 3, 3), (3, 2, 3)])
def test_occupancy_masks_hold_each_walk_once(d, n, radius):
    # one bit per vertex, read-only, as many words as the box needs
    words = -(-(2 * radius + 1) ** d // 64)
    for before in (True, False):
        masks = _occupancy(d, n, radius, before)
        assert masks.shape == (words, _base_codes(d, n).shape[0])
        assert not masks.flags.writeable
        assert (np.bitwise_count(masks).sum(axis=0) == n).all()


def test_a_draw_builds_key_tables_of_its_own_dtype_only(monkeypatch):
    # the occupancy masks need the base codes, not a table of keys
    import sawlab.sampling as sampling

    built = []
    base_arrays = sampling._base_arrays

    def recorded(d, n, dtype=None):
        built.append(np.dtype(dtype))
        return base_arrays(d, n, dtype)

    monkeypatch.setattr(sampling, "_base_arrays", recorded)
    base_arrays.cache_clear()
    _occupancy.cache_clear()
    SawSampler(2).uniform_batch(128, 100)
    assert built and set(built) == {np.dtype(np.int32)}


@pytest.mark.parametrize("d, base, masked", [
    (1, 255, True), (1, 256, False), (2, None, True), (2, 10, True),
    (3, 3, True), (3, None, False), (4, 1, True), (4, 2, False), (5, None, False),
])
def test_lowest_levels_use_masks_where_the_box_fits(monkeypatch, d, base, masked):
    # the box of radius base_length fits 8 words, or no level uses masks
    calls = []
    monkeypatch.setattr("sawlab.sampling._junction_avoids",
                        lambda *args: calls.append(1) or _junction_avoids(*args))
    sampler = SawSampler(d, SamplerConfig(seed=3, base_length=base))
    n = 2 * sampler.base_length
    keys = sampler._draw_batch(n, 20, _key_dtype(d, n))
    assert bool(calls) == masked
    _assert_walks(d, keys)


def _cross_and_sort_verdicts(d, c1, c2, dtype):
    # the cross-compare verdict and the sort of the joined keys, pair by
    # pair, for first halves c1 and second halves c2 (step codes, row by
    # row); the compare reads either key layout alike (checked on the first
    # 5,000 pairs), the sort leaves the halves intact, and the accepted
    # pairs' transposed join equals the keys of the joined codes
    k1, k2 = _keys_from_codes(d, c1, dtype), _keys_from_codes(d, c2, dtype)
    keys = _keys_from_codes(d, np.concatenate([c1, c2], axis=1), dtype)
    sort = _pairs_distinct(k1, k2)
    assert np.array_equal(sort, _rows_distinct(keys.copy()))
    assert np.array_equal(k1, _keys_from_codes(d, c1, dtype))
    assert np.array_equal(k2, _keys_from_codes(d, c2, dtype))
    cross = _halves_avoid(k1, k2)
    kept = np.flatnonzero(cross)
    joined = _joined_keys(k1, k2, kept, kept)
    assert joined.dtype == dtype and np.array_equal(joined, keys[kept])
    f1, f2 = np.asfortranarray(k1[:5000]), np.asfortranarray(k2[:5000])
    assert np.array_equal(_halves_avoid(f1, f2), cross[:5000])
    few = kept[kept < 5000]
    assert np.array_equal(_joined_keys(f1, f2, few, few), keys[few])
    return cross, sort


@pytest.mark.parametrize("d, n1", [(1, n) for n in range(1, 5)]
                         + [(2, n) for n in range(1, 6)]
                         + [(3, n) for n in range(1, 5)]
                         + [(4, n) for n in range(1, 4)] + [(5, n) for n in range(1, 4)])
@pytest.mark.parametrize("shorter", [1, 0])
def test_cross_compare_matches_the_sort_test_on_all_pairs(d, n1, shorter):
    # every pair of walks of SAW_n1 and SAW_n2, n2 = n1 or n1 - 1 (n2 = 0
    # at n1 = 1), under the narrowest packing of the joined walk
    n2 = n1 - shorter
    c1, c2 = _base_codes(d, n1), _base_codes(d, n2)
    i1, i2 = np.divmod(np.arange(len(c1) * len(c2)), len(c2))
    cross, sort = _cross_and_sort_verdicts(d, c1[i1], c2[i2], _key_dtype(d, n1 + n2))
    assert np.array_equal(cross, sort)
    assert sort.all() == (n1 + n2 < 2)  # a reversal needs two steps


@pytest.mark.parametrize("d, base, rows, crossed", [
    (5, None, 5000, True), (5, None, 40, False), (5, None, 1, False),
    (2, None, 5000, False), (2, 4, 5000, True),
])
def test_levels_cross_compare_short_halves_in_large_rounds(monkeypatch, d, base,
                                                           rows, crossed):
    # d=5 n=12 (6 + 6 over 3 + 3) compares from 100 * n1 pairs a round; a
    # round of 40 pairs or fewer sorts, and a masked level (d=2 at the
    # default base, 8 + 8) takes no compare
    calls = []
    monkeypatch.setattr("sawlab.sampling._halves_avoid",
                        lambda first, second: calls.append(first.shape)
                        or _halves_avoid(first, second))
    sampler = SawSampler(d, SamplerConfig(seed=5, base_length=base))
    n = 12 if d == 5 else 16
    keys = sampler._draw_batch(n, rows, _key_dtype(d, n))
    assert bool(calls) == crossed
    assert all(r >= 100 * (w - 1) for r, w in calls)
    if crossed:
        assert (n + 1) // 2 in [w - 1 for _, w in calls]
    _assert_walks(d, keys)


@pytest.mark.parametrize("d, n, count, base", [
    (5, 200, 1500, None), (5, 50, 3000, None), (2, 128, 1500, None),
    (2, 64, 2000, 4), (3, 40, 500, None), (5, 30, 1, 1),
])
def test_pair_test_routing_keeps_every_stream(monkeypatch, d, n, count, base):
    # compare never, compare wherever a level draws its halves (down to
    # rounds of one pair), and the sweep's rule: the same draws
    import sawlab.sampling as sampling

    def run(half, rows):
        monkeypatch.setattr(sampling, "_CROSS_HALF", half)
        monkeypatch.setattr(sampling, "_CROSS_ROWS", rows)
        sampler = SawSampler(d, SamplerConfig(seed=13, base_length=base))
        codes = sampler.uniform_batch(n, count)
        spare = sampler._draw_batch(n // 2, count, _key_dtype(d, n), spare=True)
        stats = sampler.last_batch_stats
        return (codes.tobytes(), stats.attempts, stats.accepted,
                sorted(sampler._level_counts.items()), spare.tobytes())

    rule = (sampling._CROSS_HALF, sampling._CROSS_ROWS)
    assert run(0, 0) == run(10 ** 6, 0) == run(*rule)


@pytest.mark.parametrize("d", range(1, 6))
def test_base_arrays_are_the_enumeration(d):
    base_length = SamplerConfig().resolve_base_length(d)
    for n in range(base_length + 1):
        codes, keys = _base_arrays(d, n, _key_dtype(d, n))
        assert [row.tobytes() for row in codes] == enumerate_paths(d, n)
        assert np.array_equal(keys, _keys_from_codes(d, codes, _key_dtype(d, n)))
        assert not codes.flags.writeable and not keys.flags.writeable
        # every packing reads the one code table of (d, n)
        assert _base_arrays(d, n, _KEY_DTYPES[-1])[0] is codes


def _first_step_is_zero(rows, tails):
    # step code 0 moves the packed key by +1 (radix[0])
    return tails[0][:, 1] == 1


@pytest.mark.parametrize("budget, d, lengths", [
    (1, 2, (4,)), (5, 2, (4,)), (8, 2, (4,)),
    (1, 5, (12, 2)), (5, 5, (12, 2)), (8, 5, (12, 2)),
    (5, 2, (20, 3)), (8, 2, (20, 3)), (1, 2, (20, 3)),
])
def test_candidate_runs_respect_the_rejection_budget(budget, d, lengths):
    rows = 60
    given = np.zeros(rows, dtype=np.int64)

    def counted(accept):
        def inner(pending, tails):
            np.add.at(given, pending, 1)
            return accept(pending, tails)
        return inner

    dtype = _key_dtype(d, max(lengths))
    sampler = SawSampler(d, SamplerConfig(seed=budget, max_rejections=budget))
    with pytest.raises(RejectionBudgetExceededError) as err:
        _first_accepted(sampler, lengths, rows,
                        counted(lambda p, t: np.zeros(p.size, dtype=bool)), dtype)
    assert err.value.attempts == budget
    assert (given == budget).all()
    # rows that accept on the way: none is given more than the budget
    for seed in range(5):
        given[:] = 0
        sampler = SawSampler(d, SamplerConfig(seed=seed, max_rejections=budget))
        try:
            _, rejections = _first_accepted(
                sampler, lengths, rows, counted(_first_step_is_zero), dtype)
            assert (rejections < budget).all()
        except RejectionBudgetExceededError as exc:
            assert exc.attempts == budget
        assert given.max() <= budget


def test_dimerization_levels_ignore_the_rejection_budget():
    # the budget bounds the condition only: the 20-step d=2 level accepts
    # c_20 / c_10^2 ~ 0.46 of its pairs, so 60 walks reject ~70 pairs,
    # which a budget of one per walk must not count
    for seed in range(400):
        sampler = SawSampler(2, SamplerConfig(seed=seed, max_rejections=1))
        _, rejections = _first_accepted(
            sampler, (20, 3), 60, lambda p, t: np.ones(p.size, dtype=bool),
            _key_dtype(2, 20))
        assert not rejections.any()


@pytest.mark.parametrize("d", [2, 5])
def test_first_accepted_law_with_candidate_runs(d):
    # accept iff the first step code is 0 (p = 1/(2d)): rejections are
    # geometric with mean (1-p)/p, for one batch and for batches of one,
    # with an arm longer than base_length, whose draws keep spare walks
    p = 1 / (2 * d)
    lengths = (SamplerConfig().resolve_base_length(d) + 12, 3)
    draws = 4000
    dtype = _key_dtype(d, max(lengths))  # every arm's packing
    sampler = SawSampler(d, SamplerConfig(seed=73))
    batch = _first_accepted(sampler, lengths, draws, _first_step_is_zero, dtype)[:2]
    ones = [_first_accepted(sampler, lengths, 1, _first_step_is_zero, dtype)
            for _ in range(draws)]
    ones = ([np.concatenate([one[0][j] for one in ones]) for j in (0, 1)],
            np.concatenate([one[1] for one in ones]))
    sigma = ((1 - p) / p ** 2 / draws) ** 0.5
    for keys, rejections in (batch, ones):
        assert abs(rejections.mean() - (1 - p) / p) <= 4 * sigma
        for arm_keys, n in zip(keys, lengths):
            assert arm_keys.shape == (draws, n + 1) and arm_keys.dtype == dtype
        assert (_assert_walks(d, keys[0])[:, 0] == 0).all()
        _assert_walks(d, keys[1])


@pytest.mark.parametrize("d", range(1, 13))
def test_radix_refuses_exactly_the_extents_keys_cannot_hold(d):
    def accepts(extent):
        try:
            _key_dtype(d, extent)
        except ValueError:
            return False
        return True

    lo, hi = 0, 1 << 62  # accepts(lo), not accepts(hi)
    assert accepts(lo) and not accepts(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    assert (2 * lo + 1) ** d <= 1 << 62 < (2 * lo + 3) ** d
    with pytest.raises(ValueError, match=rf"extent {lo + 1} "):
        _key_dtype(d, lo + 1)


@pytest.mark.parametrize("d", range(1, 7))
def test_narrow_packings_take_the_count_kernels_largest_base(d):
    # the int16 and int32 bases are the largest odd ones whose moves
    # ``counting._moves`` puts in that dtype
    for dtype in _KEY_DTYPES[:2]:
        base = _packing(d, dtype)[0]
        assert base % 2 and _moves(d, base).dtype == dtype
        assert _moves(d, base + 2).dtype != dtype


def _tier_boundaries(d):
    # the largest extent of the int16 and int32 packings and one step past
    # each, with the key dtype a draw of that extent takes
    out = []
    for narrow, wide in zip(_KEY_DTYPES, _KEY_DTYPES[1:]):
        top = (_packing(d, narrow)[0] - 1) // 2
        out += [(top, narrow), (top + 1, wide)]
    return out


@pytest.mark.parametrize("d", [2, 4, 5])
def test_keys_from_codes_at_the_tier_boundaries(coords_from_codes, d):
    # straight runs along every direction reach the extent on each axis
    rng = np.random.default_rng(89 + d)
    for n, dtype in _tier_boundaries(d):
        codes = np.concatenate([
            np.arange(2 * d, dtype=np.uint8)[:, None].repeat(n, axis=1),
            rng.integers(0, 2 * d, size=(20, n), dtype=np.uint8)])
        assert _key_dtype(d, n) == dtype
        want = coords_from_codes(d, codes) @ _packing(d, dtype)[1]
        got = _keys_from_codes(d, codes, dtype)
        assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 4, 5])
def test_draws_at_the_tier_boundaries(d):
    # d=2's int32 boundary (32,767 steps) is past what dimerization draws
    sampler = SawSampler(d, SamplerConfig(seed=97))
    for n, dtype in _tier_boundaries(d):
        if n > 200:
            continue
        for row in sampler.uniform_batch(n, 20):
            validate(row.tolist(), d)
        assert _key_dtype(d, n) == dtype
        keys = sampler._draw_batch(n, 20, dtype)
        assert keys.dtype == dtype
        _assert_walks(d, keys)


@pytest.mark.parametrize("d", [2, 4, 5])
def test_cross_compare_matches_the_sort_test_at_the_tier_boundaries(d):
    # 100,000 pairs of dimerized halves per level of each boundary extent
    # (second halves: other rows' walks, cut to n2 steps), after straight
    # runs along every pair of directions, which reach the extent
    sampler = SawSampler(d, SamplerConfig(seed=103))
    directions = np.arange(2 * d, dtype=np.uint8)
    halves = {}
    for n, dtype in _tier_boundaries(d):
        if n > 200:
            continue
        n1, n2 = (n + 1) // 2, n // 2
        if n1 not in halves:
            halves[n1] = sampler.uniform_batch(n1, 100_000)
        runs = directions.repeat(2 * d)[:, None].repeat(n1, axis=1)
        c1 = np.concatenate([runs, halves[n1]])
        c2 = np.concatenate([np.tile(directions, 2 * d)[:, None].repeat(n1, axis=1),
                             np.roll(halves[n1], 1, axis=0)])[:, :n2]
        cross, sort = _cross_and_sort_verdicts(d, c1, c2, dtype)
        assert np.array_equal(cross, sort)
        assert 0.2 < sort.mean() < 0.95


@pytest.mark.parametrize("d", [2, 4, 5])
def test_escapes_at_the_tier_boundaries(d):
    # a head and a tail that make up the extent: straight runs along every
    # pair of directions, so the walks reach the extent on every axis, and
    # uniform halves where dimerization draws them
    sampler = SawSampler(d, SamplerConfig(seed=101))
    for n, dtype in _tier_boundaries(d):
        a, b = n // 2, n - n // 2
        directions = np.arange(2 * d, dtype=np.uint8)
        heads = directions.repeat(2 * d)[:, None].repeat(a, axis=1)
        tails = np.tile(directions, 2 * d)[:, None].repeat(b, axis=1)
        if n <= 200:
            heads = np.concatenate([heads, sampler.uniform_batch(a, 200)])
            tails = np.concatenate([tails, sampler.uniform_batch(b, 200)])
        got = _escapes_batch([_keys_from_codes(d, heads, dtype)],
                             [_keys_from_codes(d, tails, dtype)])
        want = [escapes(Path(d, t.tobytes()), Path(d, h.tobytes()))
                for h, t in zip(heads, tails)]
        assert got.tolist() == want
        # sides (+e1)^n and (-e1)^(n-1) +e2 meet only at the origin; one step
        # past a tier, (n, 0, ..) and (1-n, 1, ..) share a key in the narrower one
        sides = [bytes(n), bytes([1] * (n - 1) + [2])]
        validate_two_sided(*(Path(d, side) for side in sides))
        arms = [np.frombuffer(side, dtype=np.uint8)[None] for side in sides]
        origin = [np.zeros((1, 1), dtype=dtype)] * 2
        assert _escapes_batch(origin,
                              [_keys_from_codes(d, arm, dtype) for arm in arms])[0]
        narrow = _key_dtype(d, n - 1)
        if narrow != dtype:
            ends = [_keys_from_codes(d, arm, narrow)[0, -1] for arm in arms]
            assert ends[0] == ends[1]


@pytest.mark.parametrize("rows", [1, 3, 40])
def test_rows_distinct_ignores_equal_keys_across_rows(rows):
    # row r holds 4r .. 4r+4, shuffled: its largest key is the next row's
    # smallest, and no row may be rejected for it; then every other row
    # repeats a key.  Few rows are compared row-wise, many on the flat buffer
    rng = np.random.default_rng(rows)
    keys = (np.arange(rows)[:, None] * 4
            + rng.permuted(np.tile(np.arange(5), (rows, 1)), axis=1))
    assert _rows_distinct(keys.astype(np.int16)).all()
    keys[::2, 0] = keys[::2, 1]
    want = [len(set(row)) == len(row) for row in keys.tolist()]
    assert _rows_distinct(keys).tolist() == want
    assert _rows_distinct(np.zeros((rows, 1), dtype=np.int64)).all()
    assert _rows_distinct(np.zeros((0, 5), dtype=np.int64)).shape == (0,)


def test_two_sided_extending_a_middle_law():
    d, m, n, draws = 2, 3, 3, 40_000
    middle = TwoSidedPath(validate([1], d), validate([2], d))
    support = []
    for neg in enumerate_paths(d, m, prefix=middle.neg):
        for pos in enumerate_paths(d, n, prefix=middle.pos):
            try:
                validate_two_sided(Path(d, neg), Path(d, pos))
            except NotSelfAvoidingError:
                continue
            support.append((neg, pos))
    index = {key: i for i, key in enumerate(support)}
    sampler = SawSampler(d, SamplerConfig(seed=61))
    counts = np.zeros(len(support))
    for _ in range(draws):
        ts = sampler.two_sided(m, n, middle)
        counts[index[(ts.neg.steps, ts.pos.steps)]] += 1
    assert chi_square_uniform(counts, draws)


def test_two_sided_unequal_arms_law():
    # remaining arms of 1 and 2 steps: one draw per arm, no shared draw
    d, m, n, draws = 2, 2, 3, 12_000
    middle = TwoSidedPath(validate([1], d), validate([2], d))
    support = []
    for neg in enumerate_paths(d, m, prefix=middle.neg):
        for pos in enumerate_paths(d, n, prefix=middle.pos):
            try:
                validate_two_sided(Path(d, neg), Path(d, pos))
            except NotSelfAvoidingError:
                continue
            support.append((neg, pos))
    index = {key: i for i, key in enumerate(support)}
    sampler = SawSampler(d, SamplerConfig(seed=71))
    counts = np.zeros(len(support))
    for _ in range(draws):
        ts = sampler.two_sided(m, n, middle)
        counts[index[(ts.neg.steps, ts.pos.steps)]] += 1
    assert chi_square_uniform(counts, draws)


@pytest.mark.parametrize("neg, pos", [
    pytest.param([0], [0], id="sides-meet"),
    pytest.param([1, 2, 0, 3], [2], id="neg-side-returns-to-origin"),
    pytest.param([1], [0, 1], id="pos-side-reverses"),
])
def test_two_sided_refuses_an_invalid_middle_at_once(neg, pos):
    # the constructor trusts its sides; the sampler must refuse them before
    # it draws, not reject candidates until the budget runs out
    middle = TwoSidedPath(Path(2, bytes(neg)), Path(2, bytes(pos)))
    sampler = SawSampler(2, SamplerConfig(seed=79))
    start = time.perf_counter()
    with pytest.raises(NotSelfAvoidingError):
        sampler.two_sided(5, 5, middle)
    assert time.perf_counter() - start < 0.1
    fresh = SawSampler(2, SamplerConfig(seed=79))
    assert sampler.uniform(12).steps == fresh.uniform(12).steps  # nothing drawn


def test_equal_arms_share_one_draw_per_round(monkeypatch):
    # arms of 15 > base_length steps in d=2; a quarter of the candidates
    # are taken, so rows wait over several rounds
    waits = 0
    dtype = _key_dtype(2, 15)
    for rows in (1, 40):
        sampler = SawSampler(2, SamplerConfig(seed=rows))
        draw = sampler._draw_batch
        top, rounds, depth = [], [], [0]

        def spy(n, count, *args, **kwargs):
            if not depth[0]:  # the dimerization's own calls are not counted
                top.append((n, count))
            depth[0] += 1
            try:
                return draw(n, count, *args, **kwargs)
            finally:
                depth[0] -= 1

        def counted(pending, tails):
            rounds.append(pending.size)
            return _first_step_is_zero(pending, tails)

        monkeypatch.setattr(sampler, "_draw_batch", spy)
        keys, _ = _first_accepted(sampler, (15, 15), rows, counted, dtype)
        waits += len(rounds) - 1
        assert len(top) == len(rounds)
        assert all(n == 15 and count % 2 == 0 for n, count in top)
        assert top[0] == (15, 2 * rows)
        assert (_assert_walks(2, keys[0])[:, 0] == 0).all()
        _assert_walks(2, keys[1])
    assert waits  # some round left rows waiting


def test_equal_arms_rejections_are_geometric():
    # both 15-step arms must start with step code 0: p = 1/16 for
    # independent arms, 1/4 were they one walk; batches of one often take
    # their candidate from a first run of spare walks
    p, draws = 1 / 16, 2000
    sampler = SawSampler(2, SamplerConfig(seed=83))

    def both(rows, tails):
        return (tails[0][:, 1] == 1) & (tails[1][:, 1] == 1)

    dtype = _key_dtype(2, 15)
    rejections = np.concatenate([_first_accepted(sampler, (15, 15), 1, both, dtype)[1]
                                 for _ in range(draws)])
    sigma = ((1 - p) / p ** 2 / draws) ** 0.5
    assert abs(rejections.mean() - (1 - p) / p) <= 4 * sigma
    # the first candidate is taken with probability p, wherever it came from
    first = np.count_nonzero(rejections == 0) / draws
    assert abs(first - p) <= 4 * (p * (1 - p) / draws) ** 0.5


@pytest.mark.parametrize("neg, pos", [
    pytest.param([1] * 7, [0, 2, 2, 1, 1, 3, 0], id="walled-by-itself"),
    pytest.param([1, 2, 2, 0], [0, 2, 1], id="walled-by-the-other-side"),
])
def test_two_sided_refuses_an_unextendable_middle_at_once(neg, pos):
    # the positive side's tip has no free neighbour, so no walk extends the
    # middle; rejecting candidates would take the whole budget to learn it
    sampler = SawSampler(2, SamplerConfig(seed=5))
    middle = TwoSidedPath(validate(neg, 2), validate(pos, 2))
    for m in (10, 127):
        start = time.perf_counter()
        with pytest.raises(NoEscaperExistsError):
            sampler.two_sided(m, m, middle)
        assert time.perf_counter() - start < 0.1
    # a side that has its length already needs no room
    assert sampler.two_sided(10, len(pos), middle).pos == middle.pos


def test_two_sided_middle_longer_than_side_raises():
    sampler = SawSampler(2, SamplerConfig(seed=67))
    middle = TwoSidedPath(validate([1, 1], 2), validate([2], 2))
    with pytest.raises(ValueError, match="longer than the requested sides"):
        sampler.two_sided(1, 3, middle)
    assert sampler.two_sided(2, 3, middle).neg.steps[:2] == bytes([1, 1])


def test_two_sided_acceptance_rate():
    d, m, n = 5, 4, 4
    cfg = SamplerConfig(seed=17)
    sampler = SawSampler(d, cfg)
    attempts = 0
    trials = 3000
    for _ in range(trials):
        sampler.two_sided(m, n)
        attempts += sampler.last_two_sided_attempts
    p = count_saws(d, 8) / count_saws(d, 4) ** 2
    # attempts per success is geometric with mean 1/p
    expected = trials / p
    sigma = (trials * (1 - p)) ** 0.5 / p
    assert abs(attempts - expected) <= 4 * sigma


def test_escaping_conditional_law():
    d, n = 5, 1
    prefix = validate([0], d)
    sampler = SawSampler(d, SamplerConfig(seed=19))
    counts = np.zeros(10)
    draws = 20_000
    for _ in range(draws):
        counts[sampler.escaping(n, prefix).steps[0]] += 1
    assert counts[1] == 0  # the reversal never escapes
    assert chi_square_uniform(counts[np.arange(10) != 1], draws)


def test_escaping_draws_escape():
    d = 2
    prefix = validate([0, 2, 1], d)
    sampler = SawSampler(d, SamplerConfig(seed=23))
    for _ in range(300):
        assert escapes(sampler.escaping(4, prefix), prefix)


def test_trap_raises_no_escaper():
    sampler = SawSampler(2, SamplerConfig(seed=29))
    with pytest.raises(NoEscaperExistsError):
        sampler.escaping(3, TRAP)
    with pytest.raises(ImpossiblePrefixError):
        sampler.prefix_conditioned(len(TRAP) + 2, TRAP)


def test_prefix_conditioned_distribution():
    d, n = 2, 5
    prefix = validate([0, 2], d)
    sampler = SawSampler(d, SamplerConfig(seed=31))
    support = enumerate_paths(d, n, prefix=prefix)
    index = {codes: i for i, codes in enumerate(support)}
    counts = np.zeros(len(support))
    draws = 30_000
    for _ in range(draws):
        walk = sampler.prefix_conditioned(n, prefix)
        assert walk.steps[:2] == prefix.steps
        counts[index[walk.steps]] += 1
    assert chi_square_uniform(counts, draws)


def test_prefix_conditioned_edge_cases():
    d = 3
    prefix = validate([0, 2], d)
    sampler = SawSampler(d, SamplerConfig(seed=37))
    assert sampler.prefix_conditioned(2, prefix).steps == prefix.steps
    empty = Path(d)
    draw = sampler.prefix_conditioned(4, empty)
    assert len(draw) == 4
    with pytest.raises(ImpossiblePrefixError):
        sampler.prefix_conditioned(1, prefix)


def test_rejection_budget_exceeded():
    # an impossible-but-unproven condition: budget must fire, not loop
    sampler = SawSampler(2, SamplerConfig(seed=41, max_rejections=5))
    prefix = validate([0, 2, 1, 1, 3], 2)
    try:
        for _ in range(200):
            sampler.escaping(6, prefix)
    except RejectionBudgetExceededError as err:
        assert err.attempts == 5
    # with a sane budget the same condition samples fine
    ok = SawSampler(2, SamplerConfig(seed=41)).escaping(6, prefix)
    assert escapes(ok, prefix)


def test_small_rejection_budget_admits_an_accepting_first_round():
    # a first round of candidates larger than the budget must not raise
    # when it accepts: d=2 n=16 accepts a candidate with probability ~0.49
    # and its first round holds 9 candidates
    for seed in range(5):
        cfg = SamplerConfig(seed=seed, max_rejections=8)
        assert len(SawSampler(2, cfg).uniform(16)) == 16
        assert SawSampler(2, cfg).uniform_batch(16, 1).shape == (1, 16)

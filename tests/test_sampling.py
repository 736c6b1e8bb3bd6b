"""Sampler exactness, reproducibility, acceptance-rate identity, budgets."""

import numpy as np
import pytest
from scipy import stats

from sawlab.counting import count_saws, enumerate_paths
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
    sample_prefix_conditioned,
    sample_uniform,
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


def test_one_shot_functions():
    p = sample_uniform(2, 7, SamplerConfig(seed=43))
    assert len(p) == 7
    assert sample_uniform(2, 7, SamplerConfig(seed=43)).steps == p.steps
    q = sample_prefix_conditioned(2, 5, validate([0], 2), SamplerConfig(seed=47))
    assert q.steps[0] == 0

"""Coupling construction, schedules, marginal preservation, decay stats."""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from sawlab.counting import enumerate_paths
from sawlab import reference
from sawlab.coupling import (
    CouplingSchedule,
    estimate_decoupling_stats,
    run_one_sided_coupling,
    run_one_sided_couplings,
    run_two_sided_coupling,
    wilson_interval,
)
from sawlab.errors import (ImpossiblePrefixError, NotSelfAvoidingError,
                           RejectionBudgetExceededError)
from sawlab.lattice import (Path, TwoSidedPath, concat, escapes, validate,
                            validate_two_sided)
from sawlab.sampling import (SamplerConfig, SawSampler, _escapes_batch, _key_dtype,
                             _packing)


def test_schedule_geometric_rule():
    s = CouplingSchedule.geometric(1, 20)
    assert s.start == 1
    assert s.values[0] >= 2
    assert all(b > a for a, b in zip((s.start,) + s.values, s.values))
    assert s.values[-1] >= 20
    # the doubling rule with scale k
    s2 = CouplingSchedule.geometric(2, 40, base=2.0)
    assert s2.values == (4, 8, 16, 32, 64)


def test_schedule_blocks_clip_to_horizon():
    s = CouplingSchedule.explicit(1, [2, 4, 8])
    assert s.blocks(6) == [(1, 2), (2, 4), (4, 6)]
    assert s.blocks(8) == [(1, 2), (2, 4), (4, 8)]
    with pytest.raises(ValueError):
        s.blocks(9)
    with pytest.raises(ValueError):
        CouplingSchedule.explicit(2, [2])


def test_identical_prefixes_always_couple():
    z = validate([0], 5)
    sched = CouplingSchedule.geometric(1, 6)
    for seed in range(20):
        trace = run_one_sided_coupling(5, z, z, sched, 6, SamplerConfig(seed=seed))
        assert trace.all_successful()
        assert trace.walk1.steps == trace.walk2.steps
        assert trace.final_equal_from() == 0
        assert len(trace.walk1) == 6


def test_outputs_extend_prefixes():
    z1, z2 = validate([0], 5), validate([2], 5)
    sched = CouplingSchedule.geometric(1, 8)
    trace = run_one_sided_coupling(5, z1, z2, sched, 8, SamplerConfig(seed=3))
    assert trace.walk1.steps[:1] == z1.steps
    assert trace.walk2.steps[:1] == z2.steps
    validate(trace.walk1.steps, 5)
    validate(trace.walk2.steps, 5)


def test_impossible_prefix_rejected():
    trap = validate([3, 0, 0, 2, 2, 1, 3], 2)
    sched = CouplingSchedule.geometric(7, 12)
    with pytest.raises(ImpossiblePrefixError):
        run_one_sided_coupling(2, trap, trap, sched, 12, SamplerConfig(seed=1))


def test_rejection_budget_is_per_row():
    # one block of 8 <= base_length steps: the proxy draws index the base
    # table, so only the coupling's own redraws count against the budget
    z1, z2 = validate([0, 2], 2), validate([0, 3], 2)
    sched = CouplingSchedule.explicit(2, [10])
    batch = run_one_sided_couplings(2, z1, z2, sched, 10, 400,
                                    SamplerConfig(seed=9))
    assert batch.resamples.max() >= 1
    with pytest.raises(RejectionBudgetExceededError):
        run_one_sided_couplings(2, z1, z2, sched, 10, 400,
                                SamplerConfig(seed=9, max_rejections=1))


def _extends_two_sided(d, neg_head, pos_head, neg_tail, pos_tail):
    try:
        validate_two_sided(concat(Path(d, neg_head), Path(d, neg_tail)),
                           concat(Path(d, pos_head), Path(d, pos_tail)))
    except NotSelfAvoidingError:
        return False
    return True


@pytest.mark.parametrize("d, arms, head_len, tail_len", [
    pytest.param(2, 1, 7, 9, id="2"),
    pytest.param(5, 1, 7, 9, id="5"),
    pytest.param(2, 2, 3, 4, id="2-two-sided"),
    pytest.param(5, 2, 7, 9, id="5-two-sided"),
])
def test_batched_escape_matches_oracle(coords_from_codes, d, arms, head_len, tail_len):
    sampler = SawSampler(d, SamplerConfig(seed=31 + d))
    pairs = 400
    radix = _packing(d, _key_dtype(d, head_len + tail_len))[1]
    heads = [sampler.uniform_batch(head_len, pairs) for _ in range(arms)]
    tails = [sampler.uniform_batch(tail_len, pairs) for _ in range(arms)]
    got = _escapes_batch(
        [coords_from_codes(d, h) @ radix for h in heads],
        [coords_from_codes(d, t) @ radix for t in tails])
    if arms == 1:
        want = [escapes(Path(d, t.tobytes()), Path(d, h.tobytes()))
                for h, t in zip(heads[0], tails[0])]
    else:
        want = [_extends_two_sided(d, *(a[i].tobytes() for a in heads + tails))
                for i in range(pairs)]
    assert got.tolist() == want
    assert 0 < sum(want) < pairs  # both outcomes are exercised


def test_single_coupling_is_a_batch_of_one():
    d = 5
    z1, z2 = validate([0], d), validate([2], d)
    sched = CouplingSchedule.geometric(1, 12)
    cfg = SamplerConfig(seed=12)
    for t in range(10):
        one = run_one_sided_coupling(d, z1, z2, sched, 12,
                                     sampler=SawSampler(d, cfg, extra_key=(t,)))
        batch = run_one_sided_couplings(d, z1, z2, sched, 12, 1,
                                        sampler=SawSampler(d, cfg, extra_key=(t,)))
        view = batch.trace(0)
        assert one.walk1 == view.walk1 and one.walk2 == view.walk2
        assert one.record_dicts() == view.record_dicts()


@pytest.mark.parametrize("d, prefix1, prefix2, horizon", [
    (2, [0, 2], [0, 3], 20),
    (5, [0], [2], 16),
    # two U-turns: a first-block proxy escapes either with p ~ 0.4, so rows
    # get runs of candidates and a walk's escape must be the taken proxy's
    (2, [2, 0, 0, 3, 3, 1], [0, 2, 2, 1, 1, 3], 20),
])
def test_batch_rows_are_couplings(d, prefix1, prefix2, horizon):
    z1, z2 = validate(prefix1, d), validate(prefix2, d)
    k = len(z1)
    sched = CouplingSchedule.geometric(k, horizon)
    batch = run_one_sided_couplings(d, z1, z2, sched, horizon, 300,
                                    SamplerConfig(seed=13))
    starts = (k,) + batch.block_ends[:-1]
    assert not batch.success.all()
    for i in range(300):
        trace = batch.trace(i)
        for walk, prefix in ((trace.walk1, z1), (trace.walk2, z2)):
            validate(walk.steps, d)
            assert len(walk) == horizon and walk.steps[:k] == prefix.steps
        assert [r.success for r in trace.records] == batch.success[i].tolist()
        assert [r.resamples for r in trace.records] == batch.resamples[i].tolist()
        # the walks agree after the last failed block and differ inside it
        failed = np.flatnonzero(~batch.success[i])
        m_star = trace.final_equal_from()
        if failed.size:
            last = failed[-1]
            assert starts[last] < m_star <= batch.block_ends[last]
        else:
            assert m_star <= k


def test_one_block_success_frequency_matches_enumeration():
    """With a single block covering the horizon, success happens exactly
    when the first proxy escaping either prefix escapes both."""
    d, horizon = 5, 6
    z1, z2 = validate([0], d), validate([2], d)
    both = either = 0
    for codes in enumerate_paths(d, horizon - 1):
        p = Path(d, codes)
        e1, e2 = escapes(p, z1), escapes(p, z2)
        both += e1 and e2
        either += e1 or e2
    exact = Fraction(both, either)

    sched = CouplingSchedule.explicit(1, [horizon])
    trials = 20_000
    batch = run_one_sided_couplings(d, z1, z2, sched, horizon, trials,
                                    SamplerConfig(seed=101))
    succ = int(batch.success[:, 0].sum())
    sigma = (float(exact) * (1 - float(exact)) / trials) ** 0.5
    assert abs(succ / trials - float(exact)) <= 4 * sigma


def test_marginal_preservation_small_case():
    """Output-1 of the coupling is uniform over walks extending its prefix."""
    d, horizon, trials = 5, 4, 40_000
    z1, z2 = validate([0], d), validate([2], d)
    sched = CouplingSchedule.geometric(1, horizon)
    support = enumerate_paths(d, horizon, prefix=z1)
    index = {codes: i for i, codes in enumerate(support)}
    counts = np.zeros(len(support))
    batch = run_one_sided_couplings(d, z1, z2, sched, horizon, trials,
                                    SamplerConfig(seed=202))
    for row in batch.codes1:
        counts[index[row.tobytes()]] += 1
    expected = trials / len(support)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic <= stats.chi2.isf(1e-3, len(support) - 1)


def test_two_sided_identical_middles_always_couple():
    d = 5
    mid = TwoSidedPath(validate([1], d), validate([0], d))
    sched = CouplingSchedule.geometric(1, 4)
    for seed in range(10):
        trace = run_two_sided_coupling(d, 4, 4, mid, mid, sched,
                                       SamplerConfig(seed=seed))
        assert trace.all_successful()
        assert trace.walk1.neg.steps == trace.walk2.neg.steps
        assert trace.walk1.pos.steps == trace.walk2.pos.steps
        assert trace.walk1.neg_length == 4 and trace.walk1.pos_length == 4


def test_two_sided_degenerate_side_lengths():
    # one side shorter than the schedule horizon: length-0 appends
    d = 5
    mid = TwoSidedPath(validate([1], d), validate([0], d))
    sched = CouplingSchedule.geometric(1, 5)
    trace = run_two_sided_coupling(d, 2, 5, mid, mid, sched, SamplerConfig(seed=4))
    assert trace.walk1.neg_length == 2 and trace.walk1.pos_length == 5


def test_two_sided_one_block_success_matches_enumeration():
    d, m, n = 5, 3, 3
    mid1 = TwoSidedPath(validate([1], d), validate([0], d))
    mid2 = TwoSidedPath(validate([3], d), validate([2], d))
    sched = CouplingSchedule.explicit(1, [3])

    def fits(mid, neg_codes, pos_codes):
        try:
            from sawlab.lattice import concat, validate_two_sided
            full_neg = concat(mid.neg, Path(d, bytes(neg_codes)))
            full_pos = concat(mid.pos, Path(d, bytes(pos_codes)))
            validate_two_sided(full_neg, full_pos)
            return True
        except Exception:
            return False

    sides = enumerate_paths(d, m - 1)
    both = either = 0
    for neg in sides:
        for pos in sides:
            f1 = fits(mid1, neg, pos)
            f2 = fits(mid2, neg, pos)
            both += f1 and f2
            either += f1 or f2
    exact = both / either

    trials, succ = 8000, 0
    cfg = SamplerConfig(seed=303)
    for trial in range(trials):
        sampler = SawSampler(d, cfg, extra_key=(trial,))
        trace = run_two_sided_coupling(d, m, n, mid1, mid2, sched, sampler=sampler)
        succ += trace.records[0].success
    sigma = (exact * (1 - exact) / trials) ** 0.5
    assert abs(succ / trials - exact) <= 4 * sigma


def _two_sided_support(d, m, n, middle):
    support = []
    for neg in enumerate_paths(d, m, prefix=middle.neg):
        for pos in enumerate_paths(d, n, prefix=middle.pos):
            if _extends_two_sided(d, neg, pos, b"", b""):
                support.append((neg, pos))
    return {key: i for i, key in enumerate(support)}


def test_two_sided_coupling_marginals_match_enumeration():
    # each output is uniform over the two-sided walks extending its middle,
    # whether it took the shared proxy or its own redraw
    d, m, n, trials = 2, 3, 3, 3000
    middles = (TwoSidedPath(validate([1], d), validate([0], d)),
               TwoSidedPath(validate([1], d), validate([2], d)))
    sched = CouplingSchedule.geometric(1, 3)
    sampler = SawSampler(d, SamplerConfig(seed=211))
    indexes = [_two_sided_support(d, m, n, middle) for middle in middles]
    counts = [np.zeros(len(index)) for index in indexes]
    failures = 0
    for _ in range(trials):
        trace = run_two_sided_coupling(d, m, n, *middles, sched, sampler=sampler)
        failures += not trace.all_successful()
        for walk, index, tally in zip((trace.walk1, trace.walk2), indexes, counts):
            tally[index[(walk.neg.steps, walk.pos.steps)]] += 1
    assert failures  # the walks' own redraws are exercised
    for tally in counts:
        expected = trials / tally.size
        statistic = float(((tally - expected) ** 2 / expected).sum())
        assert statistic <= stats.chi2.isf(1e-3, tally.size - 1)


@pytest.mark.parametrize("neg, pos", [
    pytest.param([0, 2], [0, 3], id="sides-meet"),
    pytest.param([1, 0], [2, 2], id="neg-side-reverses"),
])
def test_two_sided_coupling_refuses_an_invalid_middle_at_once(neg, pos):
    # the constructor trusts its sides; the coupling must refuse them before
    # it draws, not reject proxies until the budget runs out
    good = TwoSidedPath(validate([1, 1], 2), validate([0, 0], 2))
    bad = TwoSidedPath(Path(2, bytes(neg)), Path(2, bytes(pos)))
    sched = CouplingSchedule.geometric(2, 8)
    for start1, start2 in ((good, bad), (bad, good)):
        start = time.perf_counter()
        with pytest.raises(NotSelfAvoidingError):
            run_two_sided_coupling(2, 8, 8, start1, start2, sched,
                                   SamplerConfig(seed=5))
        assert time.perf_counter() - start < 0.1


def test_a_coupling_block_sorts_once_per_round(monkeypatch):
    # the proxy's rounds test both walks in one sort of stacked rows, the
    # taken proxy's verdicts are reused, and a block whose proxy escapes
    # both walks draws no redraw
    import sawlab.coupling as coupling
    import sawlab.sampling as sampling

    sorts, rounds, calls = [], [], []
    escapes, first_accepted = coupling._escapes_batch, coupling._first_accepted

    def sorted_once(heads, tails=()):
        sorts.append(len(heads[0]))
        return escapes(heads, tails)

    def counted(sampler, lengths, count, accept, dtype):
        calls.append(count)

        def one_round(rows, tails):
            before = len(sorts)
            out = accept(rows, tails)
            rounds.append((len(calls), rows.size, sorts[before:]))
            return out
        return first_accepted(sampler, lengths, count, one_round, dtype)

    # the proxy rounds run in the coupling, its redraws in the sampler
    for module in (coupling, sampling):
        monkeypatch.setattr(module, "_escapes_batch", sorted_once)
        monkeypatch.setattr(module, "_first_accepted", counted)
    mid1 = TwoSidedPath(validate([1], 2), validate([0], 2))
    mid2 = TwoSidedPath(validate([1], 2), validate([2], 2))
    sched = CouplingSchedule.explicit(1, [12])  # one block
    redraws = set()
    for seed in range(30):
        for log in (sorts, rounds, calls):
            log.clear()
        trace = run_two_sided_coupling(2, 12, 12, mid1, mid2, sched,
                                       SamplerConfig(seed=seed))
        assert calls in ([1], [1, 1])  # the proxy, then at most one redraw
        redraws.add(len(calls))
        # one sort checks both middles before any round, and no other sort
        # runs outside a round
        assert sorts[0] == 2 and len(sorts) == len(rounds) + 1
        for call, size, made in rounds:
            assert made == [2 * size if call == 1 else size]
        if len(calls) == 1:
            assert trace.all_successful()
    assert redraws == {1, 2}


@pytest.mark.parametrize("m, n", [(16, 16), (2, 5)])
def test_two_sided_coupling_outputs(m, n):
    d = 2
    middles = (TwoSidedPath(validate([1], d), validate([0], d)),
               TwoSidedPath(validate([1], d), validate([2], d)))
    sched = CouplingSchedule.geometric(1, max(m, n))
    flags = set()
    for seed in range(6):
        trace = run_two_sided_coupling(d, m, n, *middles, sched,
                                       SamplerConfig(seed=seed))
        for walk, middle in zip((trace.walk1, trace.walk2), middles):
            assert (walk.neg_length, walk.pos_length) == (m, n)
            assert walk.neg.steps.startswith(middle.neg.steps)
            assert walk.pos.steps.startswith(middle.pos.steps)
            neg = reference._walk_vertices(d, tuple(walk.neg.steps))
            pos = reference._walk_vertices(d, tuple(walk.pos.steps))
            assert neg is not None and pos is not None
            assert set(neg) & set(pos) == {(0,) * d}
        a_prev = sched.start
        for record in trace.records:
            same = all(
                side1[min(a_prev, L):min(record.block_end, L)]
                == side2[min(a_prev, L):min(record.block_end, L)]
                for side1, side2, L in ((trace.walk1.neg.steps,
                                         trace.walk2.neg.steps, m),
                                        (trace.walk1.pos.steps,
                                         trace.walk2.pos.steps, n)))
            assert record.success == same
            flags.add(same)
            a_prev = record.block_end
        assert a_prev >= max(m, n)
        with pytest.raises(RejectionBudgetExceededError):
            run_two_sided_coupling(d, m, n, *middles, sched,
                                   SamplerConfig(seed=seed, max_rejections=1))
    assert flags == {True, False}  # both outcomes are exercised


@pytest.mark.parametrize("m, n", [(16, 16), (2, 5)])
def test_two_sided_final_equal_from_is_where_both_sides_agree(m, n):
    d = 2
    middles = (TwoSidedPath(validate([1], d), validate([0], d)),
               TwoSidedPath(validate([1], d), validate([2], d)))
    sched = CouplingSchedule.geometric(1, max(m, n))
    seen = set()
    for seed in range(8):
        trace = run_two_sided_coupling(d, m, n, *middles, sched,
                                       SamplerConfig(seed=seed))
        sides = ((trace.walk1.neg.steps, trace.walk2.neg.steps),
                 (trace.walk1.pos.steps, trace.walk2.pos.steps))
        want = next(k for k in range(max(m, n) + 1)
                    if all(a[k:] == b[k:] for a, b in sides))
        assert trace.final_equal_from() == want
        seen.add(want)
    assert len(seen) > 1


def test_decoupling_stats_identical_prefixes_zero_failures():
    z = validate([0], 5)
    sched = CouplingSchedule.geometric(1, 8)
    out = estimate_decoupling_stats(5, z, z, sched, 8, 200, SamplerConfig(seed=5))
    assert all(r.failures == 0 for r in out.decay)
    assert all(r.disagreements == 0 for r in out.tails)


def test_decoupling_stats_rows_and_reproducibility():
    z1, z2 = validate([0], 5), validate([2], 5)
    sched = CouplingSchedule.geometric(1, 12)
    a = estimate_decoupling_stats(5, z1, z2, sched, 12, 400, SamplerConfig(seed=6))
    b = estimate_decoupling_stats(5, z1, z2, sched, 12, 400, SamplerConfig(seed=6))
    assert [(r.failures, r.block_end) for r in a.decay] == \
           [(r.failures, r.block_end) for r in b.decay]
    for row in a.decay:
        assert 0 <= row.ci_low <= row.p_hat <= row.ci_high <= 1


def test_trace_replay_is_bit_identical():
    z1, z2 = validate([0], 5), validate([2], 5)
    sched = CouplingSchedule.geometric(1, 10)
    cfg = SamplerConfig(seed=77, stream_id=4)
    a = run_one_sided_coupling(5, z1, z2, sched, 10, cfg)
    b = run_one_sided_coupling(5, z1, z2, sched, 10, cfg)
    assert a.walk1.steps == b.walk1.steps
    assert a.walk2.steps == b.walk2.steps
    assert a.record_dicts() == b.record_dicts()


def test_trace_serialization_and_equal_from():
    z1, z2 = validate([0], 5), validate([2], 5)
    sched = CouplingSchedule.geometric(1, 6)
    trace = run_one_sided_coupling(5, z1, z2, sched, 6, SamplerConfig(seed=8))
    dicts = trace.record_dicts()
    assert all(set(r) == {"l", "a_l", "success", "resamples"} for r in dicts)
    m_star = trace.final_equal_from()
    assert m_star is None or 0 <= m_star <= 6
    if m_star is not None:
        assert trace.walk1.steps[m_star:] == trace.walk2.steps[m_star:]
        if m_star > 0:
            assert trace.walk1.steps[m_star - 1] != trace.walk2.steps[m_star - 1]


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo <= 1e-12 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)

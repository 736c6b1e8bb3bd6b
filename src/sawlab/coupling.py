"""Iterative couplings of conditioned walks via shared proxy draws.

At each iteration a single proxy walk (or pair of side walks in the
two-sided variant) is offered to both conditioned walks.  If it escapes
both prefixes, both extend by the same block; if it escapes exactly one,
the other extends by an independent conditioned draw; if neither, the
proxy is resampled in place.  Per the finite domain Markov property each
output's marginal is exactly the conditioned uniform law, so the pair is
a genuine coupling and the per-iteration disagreement frequency upper
bounds the total-variation distance of the shifted walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ImpossiblePrefixError, RejectionBudgetExceededError
from .counting import has_extension
from .lattice import Path, TwoSidedPath, concat, escapes
from .sampling import SamplerConfig, SawSampler, _append_two_sided


@dataclass(frozen=True)
class CouplingSchedule:
    """Increasing block boundaries a_0 = k < a_1 < a_2 < ...

    The geometric constructor uses a_l = max(a_{l-1} + 1, ceil(scale *
    base^l)), which eventually grows like base^l.
    """

    start: int
    values: tuple[int, ...]

    def __post_init__(self):
        prev = self.start
        if self.start < 0:
            raise ValueError("schedule start must be nonnegative")
        for a in self.values:
            if a <= prev:
                raise ValueError("schedule must be strictly increasing")
            prev = a

    @classmethod
    def geometric(cls, start: int, horizon: int, *, base: float = 2.0,
                  scale: float | None = None) -> "CouplingSchedule":
        if base <= 1:
            raise ValueError("base must exceed 1")
        scale = scale if scale is not None else max(start, 1)
        values = []
        prev = start
        level = 1
        while prev < horizon:
            nxt = max(prev + 1, math.ceil(scale * base ** level))
            values.append(nxt)
            prev = nxt
            level += 1
        return cls(start, tuple(values))

    @classmethod
    def explicit(cls, start: int, values) -> "CouplingSchedule":
        return cls(start, tuple(values))

    def blocks(self, horizon: int) -> list[tuple[int, int]]:
        """(a_{l-1}, a_l) pairs clipped at the horizon, which the raw
        schedule must reach."""
        if self.start > horizon:
            raise ValueError("schedule starts beyond the horizon")
        if self.start == horizon:
            return []
        if not self.values or self.values[-1] < horizon:
            raise ValueError("schedule does not reach the horizon")
        out = []
        prev = self.start
        for a in self.values:
            cur = min(a, horizon)
            if cur > prev:
                out.append((prev, cur))
            prev = cur
            if cur == horizon:
                break
        return out


@dataclass
class IterationRecord:
    index: int
    block_end: int
    success: bool
    resamples: int


@dataclass
class CouplingTrace:
    """Per-iteration outcomes plus the final coupled pair."""

    dimension: int
    horizon: int
    records: list[IterationRecord]
    walk1: Path | TwoSidedPath
    walk2: Path | TwoSidedPath

    def all_successful(self) -> bool:
        return all(r.success for r in self.records)

    def final_equal_from(self) -> int | None:
        """Smallest m with the shifted tails equal; None if nowhere equal.

        For a two-sided pair the tails beyond +-m on both sides must agree.
        """
        if isinstance(self.walk1, TwoSidedPath):
            neg1, pos1 = self.walk1.neg.steps, self.walk1.pos.steps
            neg2, pos2 = self.walk2.neg.steps, self.walk2.pos.steps
            if len(neg1) != len(neg2) or len(pos1) != len(pos2):
                return None
            m = 0
            for side_a, side_b in ((neg1, neg2), (pos1, pos2)):
                for i in range(len(side_a)):
                    if side_a[i] != side_b[i]:
                        m = max(m, i + 1)
            return m
        s1, s2 = self.walk1.steps, self.walk2.steps
        if len(s1) != len(s2):
            return None
        m = 0
        for i in range(len(s1)):
            if s1[i] != s2[i]:
                m = i + 1
        return m

    def record_dicts(self) -> list[dict]:
        return [
            {"l": r.index, "a_l": r.block_end, "success": r.success,
             "resamples": r.resamples}
            for r in self.records
        ]


def run_one_sided_coupling(dimension: int, prefix1: Path, prefix2: Path,
                           schedule: CouplingSchedule, horizon: int,
                           cfg: SamplerConfig | None = None, *,
                           sampler: SawSampler | None = None) -> CouplingTrace:
    """Couple two walks of length ``horizon`` conditioned on equal-length
    prefixes, sharing one proxy draw per iteration.

    The proxy for the block ending at a_l has length ``horizon - a_{l-1}``,
    so each accepted block is the start of a uniform conditioned suffix and
    the output marginals are exact.
    """
    if len(prefix1) != len(prefix2):
        raise ValueError("prefixes must have equal length")
    if schedule.start != len(prefix1):
        raise ValueError("schedule must start at the prefix length")
    sampler = sampler or SawSampler(dimension, cfg)
    for p in (prefix1, prefix2):
        if not has_extension(dimension, horizon - len(p), p):
            raise ImpossiblePrefixError(
                f"prefix cannot be extended to length {horizon}"
            )
    w1, w2 = prefix1.re_anchored(), prefix2.re_anchored()
    records = []
    for index, (a_prev, a_next) in enumerate(schedule.blocks(horizon), start=1):
        block = a_next - a_prev
        resamples = 0
        while True:
            proxy = sampler.uniform(horizon - a_prev)
            hits1 = escapes(proxy, w1)
            hits2 = escapes(proxy, w2)
            if hits1 or hits2:
                break
            resamples += 1
            if resamples >= sampler.cfg.max_rejections:
                raise RejectionBudgetExceededError(resamples)
        shared = Path(dimension, proxy.steps[:block])
        if hits1 and hits2:
            inc1 = inc2 = shared
        elif hits1:
            inc1 = shared
            inc2 = Path(dimension, sampler.escaping(horizon - a_prev, w2).steps[:block])
        else:
            inc2 = shared
            inc1 = Path(dimension, sampler.escaping(horizon - a_prev, w1).steps[:block])
        w1 = concat(w1, inc1)
        w2 = concat(w2, inc2)
        records.append(IterationRecord(index, a_next, inc1.steps == inc2.steps,
                                       resamples))
    return CouplingTrace(dimension, horizon, records, w1, w2)


def run_two_sided_coupling(dimension: int, m: int, n: int,
                           start1: TwoSidedPath, start2: TwoSidedPath,
                           schedule: CouplingSchedule,
                           cfg: SamplerConfig | None = None, *,
                           sampler: SawSampler | None = None) -> CouplingTrace:
    """Couple two two-sided walks of side lengths (m, n) conditioned on
    middles on [-k, k], sharing one (negative, positive) side pair per
    iteration; runs until the blocks cover max(m, n).

    A side whose budget is exhausted contributes a length-0 draw.
    """
    k = start1.neg_length
    if {start1.neg_length, start1.pos_length, start2.neg_length,
            start2.pos_length} != {k}:
        raise ValueError("both middles must live on [-k, k]")
    if schedule.start != k:
        raise ValueError("schedule must start at the middle half-length")
    if k > min(m, n):
        raise ValueError("middle exceeds the requested side lengths")
    sampler = sampler or SawSampler(dimension, cfg)
    w1, w2 = start1, start2
    records = []
    horizon = max(m, n)
    for index, (a_prev, a_next) in enumerate(schedule.blocks(horizon), start=1):
        resamples = 0
        while True:
            neg_ext = sampler.uniform(max(m - a_prev, 0))
            pos_ext = sampler.uniform(max(n - a_prev, 0))
            full1 = _append_two_sided(w1, neg_ext, pos_ext)
            full2 = _append_two_sided(w2, neg_ext, pos_ext)
            if full1 is not None or full2 is not None:
                break
            resamples += 1
            if resamples >= sampler.cfg.max_rejections:
                raise RejectionBudgetExceededError(resamples)
        cut_neg, cut_pos = min(a_next, m), min(a_next, n)
        next1 = full1 if full1 is not None else sampler.two_sided(m, n, w1)
        next2 = full2 if full2 is not None else sampler.two_sided(m, n, w2)
        new1 = next1.restrict(cut_neg, cut_pos)
        new2 = next2.restrict(cut_neg, cut_pos)
        success = (
            new1.neg.steps[w1.neg_length:] == new2.neg.steps[w2.neg_length:]
            and new1.pos.steps[w1.pos_length:] == new2.pos.steps[w2.pos_length:]
        )
        records.append(IterationRecord(index, a_next, success, resamples))
        w1, w2 = new1, new2
    return CouplingTrace(dimension, horizon, records, w1, w2)


@dataclass
class DecayRow:
    index: int
    block_end: int
    failures: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float


@dataclass
class TailRow:
    shift: int
    disagreements: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float


@dataclass
class DecouplingStats:
    dimension: int
    horizon: int
    trials: int
    decay: list[DecayRow] = field(default_factory=list)
    tails: list[TailRow] = field(default_factory=list)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_decoupling_stats(dimension: int, prefix1: Path, prefix2: Path,
                              schedule: CouplingSchedule, horizon: int,
                              trials: int, cfg: SamplerConfig | None = None
                              ) -> DecouplingStats:
    """Monte Carlo failure frequencies per iteration and tail-disagreement
    frequencies per shift, with Wilson intervals.

    Each trial runs on its own derived stream, keyed by its index.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    cfg = cfg or SamplerConfig()
    blocks = schedule.blocks(horizon)
    failures = [0] * len(blocks)
    shifts = [a for _, a in blocks]
    disagree = [0] * len(shifts)
    for trial in range(trials):
        sampler = SawSampler(dimension, cfg, extra_key=(trial,))
        trace = run_one_sided_coupling(dimension, prefix1, prefix2, schedule,
                                       horizon, sampler=sampler)
        for i, rec in enumerate(trace.records):
            if not rec.success:
                failures[i] += 1
        s1, s2 = trace.walk1.steps, trace.walk2.steps
        for i, shift in enumerate(shifts):
            if s1[shift:] != s2[shift:]:
                disagree[i] += 1
    out = DecouplingStats(dimension, horizon, trials)
    for i, (a_prev, a_next) in enumerate(blocks):
        lo, hi = wilson_interval(failures[i], trials)
        out.decay.append(DecayRow(i + 1, a_next, failures[i], trials,
                                  failures[i] / trials, lo, hi))
    for i, shift in enumerate(shifts):
        lo, hi = wilson_interval(disagree[i], trials)
        out.tails.append(TailRow(shift, disagree[i], trials,
                                 disagree[i] / trials, lo, hi))
    return out

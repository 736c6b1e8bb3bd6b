"""Iterative couplings of conditioned walks via one shared candidate stream.

At each iteration both conditioned walks read one stream of i.i.d.
candidate blocks (a walk, or a pair of side walks in the two-sided
variant), and each takes the first candidate that escapes it.  The first
candidate either takes is the shared proxy: if it escapes both, both
extend by the same block; a walk it misses takes the first later
candidate that escapes it, which is independent of the proxy, as a
redraw would be.  Per the finite domain Markov property each output's
marginal is exactly the conditioned uniform law, so the pair is a genuine
coupling and the per-iteration disagreement frequency upper bounds the
total-variation distance of the shifted walks.

One engine runs every coupling: it advances T trials together on packed
vertex keys, with a walk held as a tuple of arms (one for a one-sided
walk, negative and positive sides for a two-sided one), on the samplers'
arm path (``_arm_keys``, ``_escapes_batch``).  A block is one
``_first_accepted`` call for both walks: each round tests its candidates
against both walks in one call, on the candidates stacked twice, and a
row waits until both walks have taken a candidate.  The two sides of a
candidate share one draw while they have one length (see
``sampling._first_accepted``).  ``run_one_sided_couplings`` is that
engine on one arm; ``run_one_sided_coupling`` and
``run_two_sided_coupling`` are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImpossiblePrefixError
from .counting import _sides_extend, has_extension
from .lattice import Path, TwoSidedPath
from .sampling import (SamplerConfig, SawSampler, _arm_keys, _codes_from_keys,
                       _escapes_batch, _first_accepted, _key_dtype)


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


def _arms(walk: Path | TwoSidedPath) -> tuple[bytes, ...]:
    """A walk's arms as step codes: its negative and positive sides, or
    the walk itself."""
    if isinstance(walk, TwoSidedPath):
        return walk.neg.steps, walk.pos.steps
    return (walk.steps,)


def _records(block_ends, success, resamples) -> list[IterationRecord]:
    """One trial's ``IterationRecord`` per block from its per-block
    ``success`` flags and ``resamples`` counts."""
    return [IterationRecord(l + 1, end, bool(ok), int(count))
            for l, (end, ok, count) in enumerate(zip(block_ends, success, resamples))]


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
        m = 0
        for arm1, arm2 in zip(_arms(self.walk1), _arms(self.walk2)):
            if len(arm1) != len(arm2):
                return None
            for i in range(len(arm1)):
                if arm1[i] != arm2[i]:
                    m = max(m, i + 1)
        return m

    def record_dicts(self) -> list[dict]:
        return [
            {"l": r.index, "a_l": r.block_end, "success": r.success,
             "resamples": r.resamples}
            for r in self.records
        ]


@dataclass
class CouplingBatch:
    """T one-sided couplings run together: the final step codes of both
    walks, prefixes included, as (T, horizon) uint8 arrays, and per-block
    ``success`` flags and ``resamples`` counts as (T, blocks) arrays."""

    dimension: int
    horizon: int
    block_ends: tuple[int, ...]
    codes1: np.ndarray
    codes2: np.ndarray
    success: np.ndarray
    resamples: np.ndarray

    def trace(self, i: int) -> CouplingTrace:
        """Trial ``i`` as a ``CouplingTrace``."""
        return CouplingTrace(self.dimension, self.horizon,
                             _records(self.block_ends, self.success[i],
                                      self.resamples[i]),
                             Path(self.dimension, self.codes1[i].tobytes()),
                             Path(self.dimension, self.codes2[i].tobytes()))


def _couple(sampler: SawSampler, starts, lengths: tuple[int, ...],
            schedule: CouplingSchedule, trials: int):
    """The coupling engine: ``trials`` couplings of two walks whose arms
    have the given ``lengths``, from the step codes ``starts[w]`` of walk
    w's arms, over ``schedule.blocks(max(lengths))``, as described in
    ``run_one_sided_couplings``.  Block (a_{l-1}, a_l) cuts arm j at
    h = min(a_{l-1}, L_j) and c = min(a_l, L_j): draws have L_j - h steps
    on arm j (an arm whose length is used up gets a length-0 draw) and
    each walk keeps steps h..c of its draw.  Walks are held as packed
    vertex keys only, (2, T, L_j + 1) per arm, under the narrowest packing
    that holds the longest arm (``sampling._key_dtype``): the starts are
    packed from their codes once (``_arm_keys``), each draw is keys under
    that packing, so a translation is one addition, and the final walks
    are decoded to step codes once.  A block reads one candidate stream
    (``_first_accepted`` with two walks), each round sorting once for both
    walks; each walk keeps the first candidate that escapes it, the block
    succeeds for a trial whose walks kept equal steps, and its resamples
    are the candidates before the first that either walk took.  A two-sided
    start whose sides are not self-avoiding or meet away from the origin
    raises ``NotSelfAvoidingError`` before anything is drawn.

    Returns (block ends, step codes per arm as (2, T, L_j) uint8, success
    and resamples as (T, blocks) arrays).
    """
    blocks = schedule.blocks(max(lengths))
    # refuses walks keys cannot hold
    dtype = _key_dtype(sampler.dimension, max(lengths))
    keys = [np.empty((2, trials, n + 1), dtype=dtype) for n in lengths]
    for j, start in enumerate(_arm_keys(sampler.dimension, starts, dtype)):
        # (2, a + 1): both walks' arm j has a steps
        keys[j][:, :, :start.shape[1]] = start[:, None]
    success = np.empty((trials, len(blocks)), dtype=bool)
    resamples = np.empty((trials, len(blocks)), dtype=np.int64)
    for l, (a_prev, a_next) in enumerate(blocks):
        cuts = [(min(a_prev, n), min(a_next, n)) for n in lengths]
        heads = [arm[:, :, :h + 1] for arm, (h, _) in zip(keys, cuts)]

        def escapes_either(rows, tails):
            # walk 0's heads over the candidates, then walk 1's: one sort
            size = rows.size
            ok = _escapes_batch([h[:, rows].reshape(2 * size, -1) for h in heads],
                                [np.concatenate([t, t]) for t in tails])
            ok = ok.view(np.uint8)
            return ok[:size] | ok[size:] << 1  # bit w: the candidate escapes walk w

        draw = tuple(n - h for n, (h, _) in zip(lengths, cuts))
        taken, index = _first_accepted(sampler, draw, trials, escapes_either,
                                       dtype, walks=2)
        success[:, l] = True
        for j, (h, c) in enumerate(cuts):
            kept = taken[j][:, :, 1:c - h + 1]  # (2, T, c - h)
            np.add(keys[j][:, :, h:h + 1], kept, out=keys[j][:, :, h + 1:c + 1])
            success[:, l] &= (kept[0] == kept[1]).all(axis=1)
        resamples[:, l] = index.min(axis=0)
    return (tuple(end for _, end in blocks),
            [_codes_from_keys(sampler.dimension, arm) for arm in keys],
            success, resamples)


def run_one_sided_couplings(dimension: int, prefix1: Path, prefix2: Path,
                            schedule: CouplingSchedule, horizon: int,
                            trials: int, cfg: SamplerConfig | None = None, *,
                            sampler: SawSampler | None = None) -> CouplingBatch:
    """Run ``trials`` couplings of two walks of length ``horizon``
    conditioned on equal-length prefixes, all on one sampler stream.

    Each block draws i.i.d. candidates of length ``horizon - a_{l-1}``
    per trial, and each walk takes the first that escapes it: the first
    i.i.d. uniform draw that meets its condition, so every accepted block
    is the start of a uniform conditioned suffix and each trial's output
    marginals are exact.
    """
    if len(prefix1) != len(prefix2):
        raise ValueError("prefixes must have equal length")
    if schedule.start != len(prefix1):
        raise ValueError("schedule must start at the prefix length")
    if trials < 1:
        raise ValueError("need at least one trial")
    sampler = sampler or SawSampler(dimension, cfg)
    for p in (prefix1, prefix2):
        if not has_extension(dimension, horizon - len(p), p):
            raise ImpossiblePrefixError(
                f"prefix cannot be extended to length {horizon}"
            )
    # No later existence check is needed: a block extends a walk by the
    # start of a draw that escapes it, so after every block each walk is
    # again a prefix of a uniform ``horizon``-step SAW.
    block_ends, (codes,), success, resamples = _couple(
        sampler, (_arms(prefix1), _arms(prefix2)), (horizon,), schedule, trials)
    return CouplingBatch(dimension, horizon, block_ends, codes[0], codes[1],
                         success, resamples)


def run_one_sided_coupling(dimension: int, prefix1: Path, prefix2: Path,
                           schedule: CouplingSchedule, horizon: int,
                           cfg: SamplerConfig | None = None, *,
                           sampler: SawSampler | None = None) -> CouplingTrace:
    """One coupling of ``run_one_sided_couplings``, on the caller's
    sampler (or a fresh one from ``cfg``)."""
    return run_one_sided_couplings(dimension, prefix1, prefix2, schedule,
                                   horizon, 1, cfg, sampler=sampler).trace(0)


def run_two_sided_coupling(dimension: int, m: int, n: int,
                           start1: TwoSidedPath, start2: TwoSidedPath,
                           schedule: CouplingSchedule,
                           cfg: SamplerConfig | None = None, *,
                           sampler: SawSampler | None = None) -> CouplingTrace:
    """Couple two two-sided walks of side lengths (m, n) conditioned on
    middles on [-k, k], sharing one (negative, positive) side pair per
    iteration; runs until the blocks cover max(m, n).

    A side whose budget is exhausted contributes a length-0 draw.  A
    middle whose sides are not self-avoiding or meet away from the origin
    raises ``NotSelfAvoidingError``, and one with a side that cannot reach
    its length even alone past the whole middle ``ImpossiblePrefixError``,
    before anything is drawn.
    """
    k = start1.neg_length
    if {start1.neg_length, start1.pos_length, start2.neg_length,
            start2.pos_length} != {k}:
        raise ValueError("both middles must live on [-k, k]")
    if schedule.start != k:
        raise ValueError("schedule must start at the middle half-length")
    if k > min(m, n):
        raise ValueError("middle exceeds the requested side lengths")
    for start in (start1, start2):
        if not _sides_extend(dimension, m, n, start.neg.steps, start.pos.steps):
            raise ImpossiblePrefixError(
                f"middle cannot be extended to sides ({m}, {n})"
            )
    sampler = sampler or SawSampler(dimension, cfg)
    block_ends, (neg, pos), success, resamples = _couple(
        sampler, (_arms(start1), _arms(start2)), (m, n), schedule, 1)
    walks = [TwoSidedPath(Path(dimension, neg[w, 0].tobytes()),
                          Path(dimension, pos[w, 0].tobytes())) for w in (0, 1)]
    return CouplingTrace(dimension, max(m, n),
                         _records(block_ends, success[0], resamples[0]), *walks)


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
    batch: CouplingBatch = field(repr=False)
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

    Every trial comes from one ``run_one_sided_couplings`` call on the
    stream of ``cfg``, kept as ``batch``.
    """
    batch = run_one_sided_couplings(dimension, prefix1, prefix2, schedule,
                                    horizon, trials, cfg)
    failures = (~batch.success).sum(axis=0)
    differ = batch.codes1 != batch.codes2
    out = DecouplingStats(dimension, horizon, trials, batch)
    for l, shift in enumerate(batch.block_ends):
        failed = int(failures[l])
        lo, hi = wilson_interval(failed, trials)
        out.decay.append(DecayRow(l + 1, shift, failed, trials,
                                  failed / trials, lo, hi))
        disagree = int(np.count_nonzero(differ[:, shift:].any(axis=1)))
        lo, hi = wilson_interval(disagree, trials)
        out.tails.append(TailRow(shift, disagree, trials,
                                 disagree / trials, lo, hi))
    return out

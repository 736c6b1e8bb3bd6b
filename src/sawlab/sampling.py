"""Exact uniform sampling of self-avoiding walks.

One vectorized engine, ``SawSampler._draw_batch``, makes every draw and
carries packed vertex keys only, at every level.  A dimension has
three packings (``_packing``), one per key dtype (int16, int32, int64),
each under one fixed radix; a draw works under the narrowest whose base
covers its extent (``_key_dtype``), at every level, so a d=2 walk of 127
steps sorts int16 keys and one of 128 steps int32 keys.  Self-avoidance
does not depend on the packing, so neither does any stream.  Short walks
are drawn by indexing a cached full enumeration, one lexicographic code
table per (d, n) (``_base_codes``) whose keys each packing adds by a
running sum (``_base_arrays``); longer walks by
dimerization: draw uniform halves recursively and accept iff their
concatenation is self-avoiding, which keeps the output exactly uniform and
makes the top-level acceptance rate exactly c_n / (c_a * c_b).  The
packing is linear, so a half moves to the other's tip by one addition.  A
level tests its pairs in one of three ways, which give the same
accept/reject indicators, so the draws and every stream are the same
whichever runs:

- occupancy masks, at the lowest levels, where both halves index base
  tables (the first half has n1 <= ``base_length`` steps) and the box of
  radius ``base_length`` fits ``_MASK_WORDS`` 64-bit words (d = 2 up to
  base 10, d = 3 up to base 3; never d >= 3 at the default base): a pair
  is accepted iff two cached bitmasks (``_occupancy``) over the box of
  radius n1 share no bit, the first half's vertices other than its tip,
  relative to the tip, and the second half's vertices after its start;
- a cross compare (``_halves_avoid``), at the other levels where the first
  half has at most ``_CROSS_HALF`` steps and the round at least
  ``_CROSS_ROWS`` pairs per such step: one compare of two key columns per
  vertex a steps before the junction and b after it with a + b even;
- otherwise, long halves or small rounds (a per-draw call is a batch of
  one), joining every pair into one scratch buffer and sorting that in
  place (``_pairs_distinct``).

All three then join the accepted pairs from the intact halves, transposed
(``_joined_keys``): column-major keys, which the compare above them reads
without a copy.  ``tools/pair_tests.py`` times the compare against the sort, which
is where the two constants come from.

Every conditioned object (a walk escaping a prefix, a two-sided walk
extending a middle, a coupling's walks) extends the arms of a walk (one,
or the negative and positive sides) until the whole walk is
self-avoiding, on one path: ``_arm_keys`` packs the heads,
``_extend_arms`` draws the extensions of P walks, and ``_escapes_batch``
tests them.  Rejection rounds run in ``_first_accepted``: the arms of one
length (two sides with as many steps left) share one draw per round, cut
by position, which stays exact because how many walks a draw holds
depends only on accept/reject indicators; and several walks can read one
candidate stream, each taking the first candidate whose verdict has its
bit, so a coupling block tests both its walks in one sort per round.

Step codes are decoded once, where a walk leaves the engine (in
``uniform_batch``, the per-draw calls and the couplings' final walks), by
an exact table lookup on a hash of each key step (``_codes_from_keys``).

Streams come from a counter-based Philox generator; distinct
``stream_id`` values (and any extra derivation key parts) give
statistically independent, reproducible streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counting import _frontiers, _moves, _sides_extend, has_extension
from .errors import (
    ImpossiblePrefixError,
    NoEscaperExistsError,
    RejectionBudgetExceededError,
)
from .lattice import (Path, TwoSidedPath, empty_two_sided, validate,
                      validate_two_sided)


# rejected pairs per walk asked for at which a dimerization level gives up
_LEVEL_REJECTIONS = 10 ** 6


@dataclass(frozen=True)
class SamplerConfig:
    """Seeding and budget knobs for the samplers.

    ``max_rejections`` bounds the candidates a conditioned draw (escaping
    a prefix, a two-sided walk) may reject per walk, and a coupling block's
    candidates per row across both walks, so ``max_rejections=1`` raises
    unless a block's first candidate escapes both; the dimerization levels
    under every draw have their own fixed guard, ``_LEVEL_REJECTIONS``, so
    a small budget fails only on the condition.
    """

    seed: int = 0
    base_length: int | None = None
    max_rejections: int = 10 ** 6
    stream_id: int = 0

    def resolve_base_length(self, dimension: int) -> int:
        if self.base_length is not None:
            if self.base_length < 1:
                raise ValueError("base_length must be >= 1")
            return self.base_length
        return 8 if dimension <= 2 else 5


def derive_generator(cfg: SamplerConfig, extra_key: tuple[int, ...] = ()) -> np.random.Generator:
    """Philox stream at spawn key (stream_id, *extra_key) under the seed."""
    seq = np.random.SeedSequence(entropy=cfg.seed,
                                 spawn_key=(cfg.stream_id, *extra_key))
    return np.random.Generator(np.random.Philox(seq))


# the base code tables built so far, by (dimension, n)
_BASE_CODES: dict[tuple[int, int], np.ndarray] = {}


def _base_codes(dimension: int, n: int) -> np.ndarray:
    """Step codes (rows, n) of SAW_n in lexicographic order, as
    ``enumerate_paths`` lists them: level n of ``counting._frontiers``.  The
    one code table of (dimension, n); the levels below come with it and are
    kept, as a sampler reads several.  Shared, so read-only."""
    if (dimension, n) not in _BASE_CODES:
        for j, codes in enumerate(_frontiers(_moves(dimension, 2 * n + 1), (0,), n)):
            codes.flags.writeable = False
            _BASE_CODES.setdefault((dimension, j), codes)
    return _BASE_CODES[dimension, n]


@lru_cache(maxsize=128)
def _base_arrays(dimension: int, n: int, dtype: np.dtype):
    """(codes, keys) arrays over all of SAW_n: the code table
    ``_base_codes`` and its vertex keys under the packing of ``dtype``
    (``_keys_from_codes``).  Shared, so read-only."""
    codes = _base_codes(dimension, n)
    keys = _keys_from_codes(dimension, codes, dtype)
    keys.flags.writeable = False
    return codes, keys


# a sampler tests its lowest levels by occupancy masks when the box of
# radius base_length fits this many 64-bit words
_MASK_WORDS = 8


@lru_cache(maxsize=128)
def _occupancy(dimension: int, n: int, radius: int, before: bool) -> np.ndarray:
    """Occupancy bitmasks (words, rows) as uint64 over the box of the given
    radius (at least n), one column per walk of SAW_n in base-table order.
    With ``before``, a walk's vertices other than its tip, relative to the
    tip; otherwise its vertices after its start.  The box point x is bit
    sum((x_a + radius) * (2 * radius + 1)**a), so each walk's bit positions
    are a running sum of per-step moves from the centre (``counting._moves``
    of base 2 * radius + 1), taken in int16 and set column by column.
    Shared, so read-only."""
    side = 2 * radius + 1
    size = side ** dimension
    codes = _base_codes(dimension, n)
    rows = codes.shape[0]
    pos = _moves(dimension, side).take(codes)  # (rows, n) steps in bit positions
    centre = size // 2
    if before:  # the tip minus each earlier vertex: suffix sums of the steps
        pos = pos[:, ::-1].cumsum(axis=1, dtype=np.int16)[:, ::-1]
        np.subtract(centre, pos, out=pos)
    else:
        np.cumsum(pos, axis=1, out=pos)
        pos += centre
    every = np.arange(size)
    offset = (every >> 6) * rows  # a bit's word, as a flat offset
    bit = np.left_shift(np.uint64(1), (every & 63).astype(np.uint64))
    masks = np.zeros((-(-size // 64), rows), dtype=np.uint64)
    flat = masks.reshape(-1)
    column = np.arange(rows)
    for j in range(n):  # one vertex per walk: no index repeats
        p = pos[:, j]
        where = offset.take(p)
        where += column
        flat[where] |= bit.take(p)
    masks.flags.writeable = False
    return masks


def _junction_avoids(before: np.ndarray, after: np.ndarray,
                     i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """True where walk ``i1`` of the ``before`` masks and walk ``i2`` of the
    ``after`` masks (``_occupancy`` over one box) share no vertex, that is
    where the second walk moved to the first's tip extends it to a
    self-avoiding walk."""
    if len(i1) <= 1024:  # few pairs: two gathers beat a loop over words
        return ~(before.take(i1, axis=1) & after.take(i2, axis=1)).any(axis=0)
    hit = before[0].take(i1) & after[0].take(i2)
    for word in range(1, before.shape[0]):
        hit |= before[word].take(i1) & after[word].take(i2)
    return hit == 0


def _halves_avoid(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """True where row r of ``second`` (packed keys of walks from the
    origin) moved to the tip of row r of ``first`` extends it to a
    self-avoiding walk.  Both are self-avoiding, so only a vertex a >= 1
    steps before the first walk's tip and one b >= 1 steps after it can
    meet, where first[r, n1 - a] - first[r, n1] equals second[r, b], and
    only when a + b is even.  Each such (a, b) is one compare of two
    contiguous columns of the transposed keys: per a, the b of its parity
    are compared at once into one bool buffer, reused for every a, and
    ORed into one hit vector."""
    rows, width = first.shape
    n1, n2 = width - 1, second.shape[1] - 1
    rel = np.empty((n1, rows), dtype=first.dtype)  # rel[n1 - a]: a steps back
    np.subtract(first.T[:n1], first.T[n1], out=rel)
    after = np.ascontiguousarray(second.T)  # after[b]
    hit = np.zeros(rows, dtype=bool)
    same = np.empty(((n2 + 1) // 2, rows), dtype=bool)
    for a in range(1, n1 + 1):
        cols = after[2 - a % 2::2]  # b = 1, 3, .. for odd a; 2, 4, .. for even
        np.equal(cols, rel[n1 - a], out=same[:len(cols)])
        hit |= same[:len(cols)].any(axis=0)
    return ~hit


# the key dtypes of the draws' packings, narrowest first
_KEY_DTYPES = tuple(np.dtype(t) for t in (np.int16, np.int32, np.int64))


@lru_cache(maxsize=None)
def _packing(dimension: int, dtype: np.dtype) -> tuple[int, np.ndarray, np.ndarray]:
    """The dimension's packing of vertices into keys of ``dtype``, one of
    ``_KEY_DTYPES``: (base, radix, moves) under ``counting._moves``'s
    format.  The base is the largest odd one whose keys the dtype holds:
    for int16 and int32, the largest for which ``_moves`` picks that dtype
    (base**dimension < 2**16, 2**32, so keys lie within +-(2**15 - 1),
    +-(2**31 - 1)); for int64, the largest with base**dimension <= 2**62.
    The radix holds the powers base**0 .. base**(dimension-1), and step
    code 2a (2a+1) moves the key by +radix[a] (-radix[a]).  The key
    sum(x_i * radix[i]) is injective on coordinates with 2 * |x_i| + 1 <=
    base.  The arrays are shared, so read-only."""
    limit = 1 << 62 if dtype == np.int64 else (1 << 8 * dtype.itemsize) - 1
    base = round(limit ** (1 / dimension))  # float guess, made exact below
    while base ** dimension > limit:
        base -= 1
    while (base + 1) ** dimension <= limit:
        base += 1
    base -= 1 - base % 2
    # ``_moves`` picks a narrower dtype where the base is tiny (huge dimensions)
    moves = _moves(dimension, base).astype(dtype, copy=False)
    moves.flags.writeable = False
    return base, moves[::2], moves


def _key_dtype(dimension: int, extent: int) -> np.dtype:
    """The key dtype of the narrowest packing (``_packing``) whose base
    covers coordinates bounded by ``extent`` (2 * extent + 1 <= base): every
    key of a draw of that extent is built under it.  Extents past the int64
    packing's base are refused."""
    for dtype in _KEY_DTYPES:
        if 2 * extent + 1 <= _packing(dimension, dtype)[0]:
            return dtype
    raise ValueError(
        f"coordinates of extent {extent} in dimension {dimension} "
        "do not fit packed 64-bit keys"
    )


def _keys_from_codes(dimension: int, codes: np.ndarray,
                     dtype: np.dtype) -> np.ndarray:
    """Packed vertex keys (rows, n+1) of origin-anchored walks with step
    codes (rows, n), under the packing of ``dtype``: a running sum of its
    moves."""
    rows, n = codes.shape
    keys = np.zeros((rows, n + 1), dtype=dtype)
    np.cumsum(_packing(dimension, dtype)[2][codes], axis=1, dtype=dtype,
              out=keys[:, 1:])
    return keys


@lru_cache(maxsize=None)
def _decoder(dimension: int, dtype: np.dtype):
    """(multiplier, shift, table) under the packing of ``dtype``: a move m
    as an unsigned w-bit word hashes to (m * multiplier mod 2**w) >> shift,
    and table[hash] is its step code.  The fewest bits, then the first odd
    multiple of the golden ratio, under which the 2d moves hash apart.
    (Low bits alone collide: d=2's int32 base 65535 is -1 mod 2**16.)"""
    moves = _packing(dimension, dtype)[2]
    word = np.dtype(f"u{dtype.itemsize}")
    bits = 8 * dtype.itemsize
    for k in range((2 * dimension - 1).bit_length(), 17):
        for i in range(256):
            multiplier = word.type(0x9E3779B97F4A7C15 * (2 * i + 1) % (1 << bits))
            hashed = (moves.view(word) * multiplier) >> (bits - k)
            if len(set(hashed.tolist())) == moves.size:  # np.unique imports numpy.ma
                table = np.zeros(1 << k, dtype=np.uint8)
                table[hashed] = np.arange(moves.size)
                table.flags.writeable = False
                return multiplier, bits - k, table
    raise ValueError(f"no decode hash for the {dtype} keys of dimension {dimension}")


def _codes_from_keys(dimension: int, keys: np.ndarray) -> np.ndarray:
    """Step codes (..., n) of walks with packed vertex keys (..., n+1):
    the inverse of ``_keys_from_codes``, through ``_decoder``'s hash."""
    if keys.shape[-1] < 2:  # no step; int16 past d = 10 has no decoder
        return np.zeros(keys.shape[:-1] + (0,), dtype=np.uint8)
    multiplier, shift, table = _decoder(dimension, keys.dtype)
    steps = np.subtract(keys[..., 1:], keys[..., :-1]).view(multiplier.dtype)
    steps *= multiplier
    steps >>= shift
    return table.take(steps)


def _coords_from_keys(dimension: int, keys: np.ndarray) -> np.ndarray:
    """Coordinates (..., d) as int64 of packed ``keys``: their balanced
    digits in the base of their dtype's packing."""
    base = _packing(dimension, keys.dtype)[0]
    rest = keys.astype(np.int64)
    coords = np.empty(keys.shape + (dimension,), dtype=np.int64)
    for axis in range(dimension):
        digit = (rest + base // 2) % base - base // 2
        coords[..., axis] = digit
        rest -= digit
        rest //= base
    return coords


def _escapes_batch(heads, tails=()) -> np.ndarray:
    """Row-wise escape test on packed vertex keys: arm j has head
    ``heads[j]`` (P, a_j+1) and tail ``tails[j]`` (P, m_j+1), both starting
    at the origin (key 0).  True where the heads (the origin once) and each
    tail translated to its arm's tip hold distinct keys, found by sorting
    and comparing neighbours as ``_draw_batch``'s sort test does.  With one
    arm this is ``lattice.escapes``; with two, ``validate_two_sided`` of the
    concatenated sides; with no tails, the test that the heads meet only at
    the origin."""
    parts = [heads[0]] + [head[:, 1:] for head in heads[1:]]
    parts += [tail[:, 1:] + head[:, -1:] for head, tail in zip(heads, tails)]
    return _rows_distinct(np.concatenate(parts, axis=1))


def _arm_keys(dimension: int, walks, dtype: np.dtype) -> list[np.ndarray]:
    """Packed vertex keys (P, a_j+1) per arm j, under the packing of
    ``dtype``, of P walks from the origin whose arm j has the step codes
    ``walks[p][j]`` (as long in every walk).  A walk of two arms whose
    sides are not self-avoiding or meet away from the origin raises
    ``NotSelfAvoidingError`` (the lattice's checks); one arm is a ``Path``,
    self-avoiding by contract."""
    keys = [_keys_from_codes(dimension, np.frombuffer(b"".join(arm), np.uint8)
                             .reshape(len(arm), len(arm[0])), dtype)
            for arm in zip(*walks)]
    if len(keys) > 1:
        for arms, ok in zip(walks, _escapes_batch(keys)):
            if not ok:
                validate_two_sided(*[validate(steps, dimension) for steps in arms])
    return keys


def _extend_arms(sampler: SawSampler, head_keys, lengths: tuple[int, ...],
                 dtype: np.dtype):
    """The first i.i.d. uniform extensions by ``lengths`` steps
    (``_first_accepted``) that keep each of P walks with arm keys
    ``head_keys[j]`` (P, a_j+1) self-avoiding: (keys per arm, rejections
    per walk).  ``dtype`` must cover the extended walks."""
    return _first_accepted(
        sampler, lengths, len(head_keys[0]),
        lambda rows, tails: _escapes_batch(
            [head.take(rows, axis=0) for head in head_keys], tails), dtype)


# a level that draws its halves tests its pairs by ``_halves_avoid`` where
# the first half has n1 <= _CROSS_HALF steps and the round at least
# _CROSS_ROWS * n1 pairs, and by sorting their joined keys otherwise: in
# ``tools/pair_tests.py`` (numpy 2.4, 2-core Xeon) the compare won from
# 56-200 pairs per step of n1 = 3..40 (most at 62-125), in d = 2 and 5
# and every key dtype, and at n1 = 50 lost in all but one round the
# round cap allows
_CROSS_HALF = 40
_CROSS_ROWS = 100


# below this many rows, ``_rows_distinct`` compares neighbours row-wise
_FEW_ROWS = 16


def _rows_distinct(keys: np.ndarray) -> np.ndarray:
    """True where a row of ``keys`` holds no key twice; sorts ``keys`` in
    place and compares neighbours.  Past ``_FEW_ROWS`` rows they are
    compared on the flat buffer, with the pairs that cross from one row's
    last key to the next row's first masked, and one ``reduceat`` gathers
    each row's repeats: about a fifth faster than a strided compare at
    5,000 rows, and a few tenths of a microsecond dearer below 16."""
    keys.sort(axis=1)
    rows, width = keys.shape
    if rows < _FEW_ROWS or width < 2:
        return (keys[:, 1:] != keys[:, :-1]).all(axis=1)
    flat = keys.reshape(-1)
    repeat = flat[1:] == flat[:-1]
    repeat[width - 1::width] = False  # a row's last key and the next one's first
    return ~np.logical_or.reduceat(repeat, np.arange(0, rows * width, width))


def _pairs_distinct(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``_halves_avoid`` by sorting: every pair joined into one scratch
    buffer, which ``_rows_distinct`` sorts in place."""
    n1 = first.shape[1] - 1
    joined = np.empty((len(first), n1 + second.shape[1]), dtype=first.dtype)
    joined[:, :n1 + 1] = first
    np.add(second[:, 1:], first[:, -1:], out=joined[:, n1 + 1:])
    return _rows_distinct(joined)


def _joined_keys(first: np.ndarray, second: np.ndarray,
                 i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """Packed keys of walk ``i1[r]`` of ``first`` with walk ``i2[r]`` of
    ``second`` appended (its keys plus the first walk's tip key), per r.
    They are built transposed, one contiguous row per vertex, so the tip is
    added by one add over every walk rather than one add per walk, and
    returned as the transpose's view (column-major): numpy reads either
    layout alike, and ``_halves_avoid`` reads this one without a copy."""
    n1 = first.shape[1] - 1
    keys = np.empty((n1 + second.shape[1], len(i1)), dtype=first.dtype)
    keys[:n1 + 1] = _taken_columns(first, i1)
    np.add(_taken_columns(second, i2)[1:], keys[n1], out=keys[n1 + 1:])
    return keys.T


def _taken_columns(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``keys[rows].T``, gathered in the layout ``keys`` has: ``take`` on
    an array that is not contiguous copies all of it first, which a base
    table drawn from by one walk cannot afford."""
    if keys.flags.c_contiguous:
        return keys.take(rows, axis=0).T
    return keys.T.take(rows, axis=1)


@lru_cache(maxsize=None)
def _arm_groups(lengths: tuple[int, ...]):
    """Arms grouped by length for shared draws: (length, number of arms)
    per distinct length in order of first use, and per arm (its group,
    its place among the group's arms)."""
    order = list(dict.fromkeys(lengths))
    return (tuple((n, lengths.count(n)) for n in order),
            tuple((order.index(n), lengths[:j].count(n))
                  for j, n in enumerate(lengths)))


# a first run for more than one walk gives each row the candidates a round
# of this many vertex keys holds: in ``tools/pair_tests.py --first-run``
# (numpy 2.4, 2-core Xeon) a two-sided d=2 coupling of sides (16, 16), a
# batch of one, ran 1.3-1.4x faster than with runs of one at 256 to 512
# keys, alike within the spread of two sweeps, and slower from 768 on;
# this is the fewest of them, and 600 trials in d=5 still start at one
_FIRST_RUN_KEYS = 256


def _first_accepted(sampler: SawSampler, lengths: tuple[int, ...],
                    count: int, accept, dtype: np.dtype, walks: int = 1):
    """For each of ``count`` rows and each of ``walks`` walks, the first of
    i.i.d. candidates (one uniform walk per arm, of the given ``lengths``)
    that ``accept(rows, keys)`` takes for that walk: (vertex keys per arm
    as (walks, count, n+1), candidate indexes as (walks, count)), where a
    walk's index counts its row's candidates before the one it took.  With
    one walk (the default) the walk axis is dropped, and the index is the
    row's rejections.  Every key is under the packing of ``dtype``, which
    must cover the walks the caller builds from the arms.

    Each round gives every waiting row (one with a walk still waiting) a
    run of ``per`` candidates, and ``accept`` gets the row of each
    candidate (so a row repeats ``per`` times) and, per arm, the
    candidates' packed vertex keys.  It returns one verdict per candidate:
    with one walk a bool, true where the walk takes it, and with more a
    uint8 whose bit w is set where walk w takes it.  ``per`` doubles each
    round, below a row's budget (a row given ``max_rejections`` candidates
    with a walk still waiting raises) and a cap on the round's size.  It
    starts at 1 for one walk; for more, since a row waits for each of
    them, at the candidates a round of ``_FIRST_RUN_KEYS`` vertex keys
    gives each row, and at least 1.

    The k arms of one length share one draw of k * rows * per walks (more
    with the spare walks its last dimerization round accepted), and arm i
    of that length takes walks i*rows*per .. (i+1)*rows*per-1 of it, row r
    of the waiting rows taking the arm's candidates r*per .. r*per+per-1.
    A round uses every full run the draws hold.

    Exactness: a row's candidates are i.i.d. uniform, on every arm and
    across arms, because the walks of one draw are, and how many walks a
    draw holds, and so which positions feed which arm and row, depends only
    on earlier rounds and on accept/reject indicators inside
    ``_draw_batch``, never on the values of the walks; so the first
    candidate a walk takes follows exactly its conditioned law, as with one
    candidate per round and one draw per arm.  Of two walks, the first
    candidate either takes is uniform on the candidates either accepts, and
    the first later one the other takes is independent of it, as a draw on
    a stream of its own would be: i.i.d. candidates after a stopping time
    do not depend on it."""
    groups, slots = _arm_groups(lengths)
    width = sum(lengths) + len(lengths)  # vertex keys per candidate
    budget = max(1, sampler.cfg.max_rejections)
    pending = np.arange(count)
    used = 0  # candidates each pending row has been given
    per = 1 if walks == 1 else min(budget, max(1, _FIRST_RUN_KEYS // (count * width)))
    while pending.size:
        rows = pending.size
        size = rows * per
        drawn = [sampler._draw_batch(n, k * size, dtype, spare=True)
                 for n, k in groups]
        held = min([len(batch) // k for batch, (_, k) in zip(drawn, groups)])
        if held != size:  # spare walks: use every full run the draws hold
            per = min(held // rows, budget - used)
            size = rows * per
        drawn_keys = [drawn[g][i * size:(i + 1) * size] for g, i in slots]
        verdict = accept(pending if per == 1 else pending.repeat(per), drawn_keys)
        if walks == 1 and per == 1 and not used and np.count_nonzero(verdict) == rows:
            # every row took its first candidate: the draws are the result
            return drawn_keys, np.zeros(count, dtype=np.int64)
        ok = verdict.reshape(rows, per)
        if used and walks > 1:
            ok = ok & waits[pending, None]
        runs = []  # per walk: each row's first take in its run, its place, if any
        for w in range(walks):
            took = ok if walks == 1 else (ok & 1 << w) != 0
            if walks == 1 and per == 1:  # a bool mask picks the takes
                hit = took.ravel()
                runs.append((0, hit, hit))
            else:
                first = took.argmax(axis=1)
                pick = first + np.arange(0, size, per)
                runs.append((first, pick, took.ravel().take(pick)))
        if not used:
            if (walks > 1 or per > 1) and all(
                    np.count_nonzero(hit) == rows for _, _, hit in runs):
                # every walk took a candidate of its row's first run: the picks
                if walks == 1:
                    first, pick, _ = runs[0]
                    return [arm_keys.take(pick, axis=0) for arm_keys in drawn_keys], first
                pick = np.stack([pick for _, pick, _ in runs])
                return ([arm_keys.take(pick, axis=0) for arm_keys in drawn_keys],
                        np.stack([first for first, _, _ in runs]))
            keys = [np.empty((walks, count, n + 1), dtype=dtype) for n in lengths]
            index = np.empty((walks, count), dtype=np.int64)
            if walks > 1:
                waits = np.full(count, (1 << walks) - 1, dtype=np.uint8)  # bit w: walk w waits
        for w, (first, pick, hit) in enumerate(runs):
            taken = pending[hit]
            if taken.size:
                if pick is not hit:  # places, not a mask: keep the takes
                    first, pick = first[hit], pick[hit]
                for arm_keys, drawn_arm in zip(keys, drawn_keys):
                    arm_keys[w][taken] = drawn_arm[pick]
                index[w][taken] = used + first
                if walks > 1:
                    waits[taken] ^= 1 << w
        pending = pending[~hit] if walks == 1 else pending[waits[pending] != 0]
        used += per
        if pending.size:
            if used >= budget:
                raise RejectionBudgetExceededError(used)
            # a round holds at most ~4e6 vertex keys
            cap = 4_000_000 // (pending.size * width)
            per = min(2 * per, budget - used, max(1, cap))
    if walks == 1:
        return [arm_keys[0] for arm_keys in keys], index[0]
    return keys, index


@dataclass
class BatchStats:
    """Top-level dimerization bookkeeping for the most recent batch."""

    attempts: int = 0
    accepted: int = 0

    @property
    def acceptance(self) -> float:
        return self.accepted / self.attempts if self.attempts else float("nan")


class SawSampler:
    """Stateful sampler bound to one dimension, one stream.

    Identical (seed, stream_id) and call sequence reproduce identical
    draws across processes and worker counts.
    """

    def __init__(self, dimension: int, cfg: SamplerConfig | None = None,
                 extra_key: tuple[int, ...] = ()):
        self.dimension = dimension
        self.cfg = cfg or SamplerConfig()
        self.rng = derive_generator(self.cfg, extra_key)
        self.base_length = self.cfg.resolve_base_length(dimension)
        self.last_batch_stats = BatchStats()
        self.last_two_sided_attempts = 0
        self._level_counts: dict[int, list[int]] = {}
        self._masked = ((2 * self.base_length + 1) ** dimension
                        <= 64 * _MASK_WORDS)

    # -- per-draw API ------------------------------------------------------

    def uniform(self, n: int) -> Path:
        """One exactly-uniform draw from SAW_n: a batch of one."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        dtype = _key_dtype(self.dimension, n)  # refuses walks keys cannot hold
        return self._path(self._draw_batch(n, 1, dtype))

    def two_sided(self, m: int, n: int,
                  middle: TwoSidedPath | None = None) -> TwoSidedPath:
        """Exact two-sided walk with side lengths (m, n) extending ``middle``
        (empty by default): independent uniform side extensions, negative
        first, rejected until the sides meet only at the origin.  A middle
        whose sides are not self-avoiding or meet away from the origin
        raises ``NotSelfAvoidingError``, and one with a side that cannot
        reach its length even alone past the whole middle
        ``NoEscaperExistsError``, before anything is drawn."""
        middle = middle or empty_two_sided(self.dimension)
        if middle.neg_length > m or middle.pos_length > n:
            raise ValueError(
                f"middle with sides ({middle.neg_length}, {middle.pos_length}) "
                f"is longer than the requested sides ({m}, {n})"
            )
        if not _sides_extend(self.dimension, m, n, middle.neg.steps,
                             middle.pos.steps):
            raise NoEscaperExistsError(
                f"no two-sided walk with sides ({m}, {n}) extends the given middle"
            )
        dtype = _key_dtype(self.dimension, max(m, n))
        heads = _arm_keys(self.dimension, ((middle.neg.steps, middle.pos.steps),),
                          dtype)
        (neg, pos), rejections = _extend_arms(
            self, heads, (m - middle.neg_length, n - middle.pos_length), dtype)
        self.last_two_sided_attempts = int(rejections[0]) + 1
        return TwoSidedPath(self._path(neg, middle.neg.steps),
                            self._path(pos, middle.pos.steps))

    def escaping(self, n: int, prefix: Path) -> Path:
        """Uniform draw over n-step walks escaping ``prefix``."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        if not has_extension(self.dimension, n, prefix):
            raise NoEscaperExistsError(
                f"no {n}-step walk escapes the given {len(prefix)}-step prefix"
            )
        dtype = _key_dtype(self.dimension, len(prefix) + n)
        (keys,), _ = _extend_arms(
            self, _arm_keys(self.dimension, ((prefix.steps,),), dtype), (n,), dtype)
        return self._path(keys)

    def _path(self, keys: np.ndarray, head: bytes = b"") -> Path:
        """``head``'s steps, then those of the walk with keys ``keys[0]``."""
        return Path(self.dimension,
                    head + _codes_from_keys(self.dimension, keys[:1])[0].tobytes())

    def prefix_conditioned(self, n: int, prefix: Path) -> Path:
        """Uniform draw from SAW_n conditioned to start with ``prefix``."""
        k = len(prefix)
        if k > n:
            raise ImpossiblePrefixError("prefix longer than the walk")
        if k == n:
            return prefix
        try:
            suffix = self.escaping(n - k, prefix)
        except NoEscaperExistsError as exc:
            raise ImpossiblePrefixError(str(exc)) from exc
        return Path(self.dimension, prefix.steps + suffix.steps, prefix.anchor)

    # -- batch API ---------------------------------------------------------

    def uniform_batch(self, n: int, count: int) -> np.ndarray:
        """``count`` exactly-uniform draws as a (count, n) uint8 code matrix.

        The top-level attempt/accept counts land in ``last_batch_stats``:
        this call's share of ``_level_counts[n]``, or ``count`` at a
        base-table length.  Per-draw calls leave them alone.
        """
        if count < 0 or n < 0:
            raise ValueError("length and count must be nonnegative")
        self.last_batch_stats = BatchStats()
        if n == 0:
            return np.zeros((count, 0), dtype=np.uint8)
        dtype = _key_dtype(self.dimension, n)  # refuses walks keys cannot hold
        if count == 0:
            return np.zeros((0, n), dtype=np.uint8)  # nothing drawn
        accepted, attempts = self._level_counts.get(n, (0, 0))
        keys = self._draw_batch(n, count, dtype)
        if n <= self.base_length:
            self.last_batch_stats = BatchStats(count, count)
        else:
            level = self._level_counts[n]
            self.last_batch_stats = BatchStats(level[1] - attempts, level[0] - accepted)
        return _codes_from_keys(self.dimension, keys)

    def _draw_batch(self, n: int, count: int, dtype: np.dtype,
                    spare: bool = False) -> np.ndarray:
        """``count`` uniform draws from SAW_n as packed vertex keys (count,
        n+1) under the packing of ``dtype``, which must cover n steps
        (``_key_dtype``), at every level.  With ``spare``, a draw by
        dimerization returns every walk its last round accepted, so at
        least ``count``; each is uniform and independent of the others,
        and how many there are depends only on accept/reject indicators.

        The first round a sampler runs at a dimerized length is a pilot of
        min(count, 256) + 8 pairs; every later round at that length, in
        this draw or a later one, draws enough pairs for the walks still
        needed at the acceptance rate the length has shown so far, with a
        two-sigma margin.  Round sizes thus also depend only on
        accept/reject indicators.  The draw raises once it has rejected
        more than ``_LEVEL_REJECTIONS`` pairs per walk asked for."""
        if n <= self.base_length:
            codes, keys = _base_arrays(self.dimension, n, dtype)
            return keys.take(self._base_rows(codes, count), axis=0)
        n1 = (n + 1) // 2
        n2 = n - n1
        masked = self._masked and n1 <= self.base_length
        if masked:  # both halves index base tables: test pairs by masks
            tables = (_base_arrays(self.dimension, n1, dtype),
                      _base_arrays(self.dimension, n2, dtype))
            before = _occupancy(self.dimension, n1, n1, True)
            after = _occupancy(self.dimension, n2, n1, False)
        # this sampler's accepted and attempted pairs at this level so far
        level = self._level_counts.setdefault(n, [0, 0])
        out = []
        got = 0
        attempts = 0
        accepted_raw = 0
        limit = _LEVEL_REJECTIONS * max(count, 1)
        while got < count:
            if attempts - accepted_raw > limit:
                raise RejectionBudgetExceededError(attempts - accepted_raw)
            need = count - got
            if level[1]:
                p = (level[0] + 1) / (level[1] + 2)
                chunk = math.ceil((need + 2 * math.sqrt(need * (1 - p))) / p) + 8
            else:
                chunk = min(need, 256) + 8
            # a round holds at most 500,000 vertex keys; the drawn halves
            # go before the next round's draws.  The walks' keys are kept
            # and joined at the end: 20,000 walks of 200 steps in d=5
            # (int64) peak at about 134 MB of process memory, and of 128
            # steps in d=2 (int32) at about 91 MB
            chunk = min(chunk, max(1, 500_000 // (n + 1)))
            if masked:
                (codes1, first), (codes2, second) = tables
                if n1 == n2:  # one draw: Philox's bounded draws do not
                    # depend on how they are split among calls
                    i1, i2 = self._base_rows(codes1, 2 * chunk).reshape(2, chunk)
                else:
                    i1 = self._base_rows(codes1, chunk)
                    i2 = self._base_rows(codes2, chunk)
                ok = _junction_avoids(before, after, i1, i2)
            else:  # the draws' rows pair up in order
                first, second = (self._draw_batch(n1, chunk, dtype),
                                 self._draw_batch(n2, chunk, dtype))
                if n1 <= _CROSS_HALF and chunk >= _CROSS_ROWS * n1:
                    ok = _halves_avoid(first, second)
                else:
                    ok = _pairs_distinct(first, second)
            accepted = int(np.count_nonzero(ok))
            attempts += chunk
            accepted_raw += accepted
            level[0] += accepted
            level[1] += chunk
            if accepted:  # join the accepted pairs from the intact halves
                keep = accepted if spare else min(accepted, need)
                kept = np.flatnonzero(ok)[:keep]
                j1, j2 = (i1.take(kept), i2.take(kept)) if masked else (kept, kept)
                out.append(_joined_keys(first, second, j1, j2))
                got += keep
            first = second = None  # drawn halves go before the next round's draws
        return out[0] if len(out) == 1 else np.concatenate(out)

    def _base_rows(self, table: np.ndarray, count: int):
        """``count`` uniform row indices into the base table ``table``, the
        one draw every base-table walk comes from.  A batch of one takes
        the scalar draw, which costs a third as much: integers(N) equals
        integers(N, size=1)[0] on Philox; a size given as a tuple skips a
        conversion."""
        rows = table.shape[0]
        return ([self.rng.integers(rows)] if count == 1
                else self.rng.integers(rows, size=(count,)))

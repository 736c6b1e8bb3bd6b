"""Exact uniform sampling of self-avoiding walks.

One vectorized engine, ``SawSampler._draw_batch``, makes every draw.
Short walks are drawn by indexing a cached full enumeration; longer walks
by dimerization: draw uniform halves recursively and accept iff their
concatenation is self-avoiding, which keeps the output exactly uniform and
makes the top-level acceptance rate exactly c_n / (c_a * c_b).  A per-draw
call is a batch of one, and the conditioned draws (escaping a prefix,
extending a two-sided middle) reject such draws.

Streams come from a counter-based Philox generator; distinct
``stream_id`` values (and any extra derivation key parts) give
statistically independent, reproducible streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counting import enumerate_paths, has_extension
from .errors import (
    ImpossiblePrefixError,
    NoEscaperExistsError,
    NotSelfAvoidingError,
    RejectionBudgetExceededError,
)
from .lattice import (Path, TwoSidedPath, concat, empty_two_sided, escapes,
                      validate_two_sided)


@dataclass(frozen=True)
class SamplerConfig:
    """Seeding and budget knobs for the samplers."""

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


@lru_cache(maxsize=128)
def _base_arrays(dimension: int, n: int):
    """(codes, coords) arrays over all of SAW_n in canonical order."""
    paths = enumerate_paths(dimension, n)
    count = len(paths)
    codes = np.zeros((count, n), dtype=np.uint8)
    for i, p in enumerate(paths):
        codes[i] = np.frombuffer(p, dtype=np.uint8)
    coords = _coords_from_codes(dimension, codes)
    return codes, coords


def _coords_from_codes(dimension: int, codes: np.ndarray) -> np.ndarray:
    """Vertex coordinates (rows, n+1, d) as int16 from step codes."""
    rows, n = codes.shape
    coords = np.zeros((rows, n + 1, dimension), dtype=np.int16)
    if n == 0:
        return coords
    axes = codes >> 1
    signs = 1 - 2 * (codes & 1).astype(np.int16)
    for axis in range(dimension):
        steps = np.where(axes == axis, signs, 0).astype(np.int16)
        np.cumsum(steps, axis=1, out=steps)
        coords[:, 1:, axis] = steps
    return coords


@lru_cache(maxsize=128)
def _radix_powers(dimension: int, extent: int) -> np.ndarray:
    """Injective linear packing of coordinates bounded by ``extent``
    (shared between calls, so read-only)."""
    base = 2 * extent + 1
    powers = np.array([base ** i for i in range(dimension)], dtype=object)
    if int(powers[-1]) * base > (1 << 62):
        raise ValueError(
            f"coordinates of extent {extent} in dimension {dimension} "
            "do not fit packed 64-bit keys"
        )
    powers = powers.astype(np.int64)
    powers.flags.writeable = False
    return powers


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
        self._acceptance_guess: dict[int, float] = {}

    # -- per-draw API ------------------------------------------------------

    def uniform(self, n: int) -> Path:
        """One exactly-uniform draw from SAW_n: a batch of one."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        if n == 0:
            return Path(self.dimension)
        if n <= self.base_length:
            # the same draw as _draw_batch(n, 1): integers(N) equals
            # integers(N, size=1)[0] on Philox
            codes, _ = _base_arrays(self.dimension, n)
            idx = int(self.rng.integers(codes.shape[0]))
            return Path(self.dimension, codes[idx].tobytes())
        codes, _ = self._draw_batch(n, 1, _radix_powers(self.dimension, n))
        return Path(self.dimension, codes[0].tobytes())

    def two_sided(self, m: int, n: int,
                  middle: TwoSidedPath | None = None) -> TwoSidedPath:
        """Exact two-sided walk with side lengths (m, n) extending ``middle``
        (empty by default): independent uniform side extensions, negative
        first, rejected until the sides meet only at the origin."""
        middle = middle or empty_two_sided(self.dimension)
        for attempt in range(1, self.cfg.max_rejections + 1):
            full = _append_two_sided(middle, self.uniform(m - middle.neg_length),
                                     self.uniform(n - middle.pos_length))
            if full is not None:
                self.last_two_sided_attempts = attempt
                return full
        raise RejectionBudgetExceededError(self.cfg.max_rejections)

    def escaping(self, n: int, prefix: Path) -> Path:
        """Uniform draw over n-step walks escaping ``prefix``."""
        if not has_extension(self.dimension, n, prefix):
            raise NoEscaperExistsError(
                f"no {n}-step walk escapes the given {len(prefix)}-step prefix"
            )
        for _ in range(self.cfg.max_rejections):
            draw = self.uniform(n)
            if escapes(draw, prefix):
                return draw
        raise RejectionBudgetExceededError(self.cfg.max_rejections)

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
        return concat(prefix, suffix)

    # -- batch API ---------------------------------------------------------

    def uniform_batch(self, n: int, count: int) -> np.ndarray:
        """``count`` exactly-uniform draws as a (count, n) uint8 code matrix.

        The top-level attempt/accept counts land in ``last_batch_stats``;
        per-draw calls leave them alone.
        """
        if count < 0 or n < 0:
            raise ValueError("length and count must be nonnegative")
        self.last_batch_stats = BatchStats()
        if n == 0:
            return np.zeros((count, 0), dtype=np.uint8)
        radix = _radix_powers(self.dimension, n)
        codes, _ = self._draw_batch(n, count, radix, top=True)
        return codes

    def _draw_batch(self, n: int, count: int, radix: np.ndarray, top: bool = False):
        if n <= self.base_length:
            codes, coords = _base_arrays(self.dimension, n)
            idx = self.rng.integers(codes.shape[0], size=count)
            if top:
                self.last_batch_stats.attempts += count
                self.last_batch_stats.accepted += count
            return codes[idx], coords[idx]
        n1 = (n + 1) // 2
        n2 = n - n1
        guess = self._acceptance_guess.get(n, 0.6)
        out_codes = []
        out_coords = []
        got = 0
        attempts = 0
        accepted_raw = 0
        max_attempts = self.cfg.max_rejections * max(count, 1)
        while got < count:
            if attempts > max_attempts:
                raise RejectionBudgetExceededError(attempts)
            need = count - got
            chunk = min(int(need / guess * 1.1) + 8, max(1, 4_000_000 // n))
            c1, v1 = self._draw_batch(n1, chunk, radix)
            c2, v2 = self._draw_batch(n2, chunk, radix)
            shifted = v2[:, 1:, :] + v1[:, -1:, :]
            allv = np.concatenate([v1, shifted], axis=1)
            keys = allv.astype(np.int64) @ radix
            keys.sort(axis=1)
            ok = (keys[:, 1:] != keys[:, :-1]).all(axis=1)
            accepted = int(np.count_nonzero(ok))
            attempts += chunk
            accepted_raw += accepted
            if accepted:
                merged = np.concatenate([c1, c2], axis=1)
                out_codes.append(merged[ok][:need])
                out_coords.append(allv[ok][:need])
                got += min(accepted, need)
            self._acceptance_guess[n] = max(0.05, (accepted_raw + 1) / (attempts + 2))
        if top:
            self.last_batch_stats.attempts += attempts
            self.last_batch_stats.accepted += accepted_raw
        if len(out_codes) == 1:
            return out_codes[0], out_coords[0]
        return np.concatenate(out_codes), np.concatenate(out_coords)


def _append_two_sided(middle: TwoSidedPath, neg_ext: Path,
                      pos_ext: Path) -> TwoSidedPath | None:
    """Full two-sided walk from a middle and two side extensions, or None
    when the composite is not self-avoiding."""
    try:
        return validate_two_sided(concat(middle.neg, neg_ext),
                                  concat(middle.pos, pos_ext))
    except NotSelfAvoidingError:
        return None


# -- one-shot functional forms ----------------------------------------------


def sample_uniform(dimension: int, n: int, cfg: SamplerConfig | None = None) -> Path:
    return SawSampler(dimension, cfg).uniform(n)


def sample_two_sided(dimension: int, m: int, n: int,
                     cfg: SamplerConfig | None = None) -> TwoSidedPath:
    return SawSampler(dimension, cfg).two_sided(m, n)


def sample_escaping(dimension: int, n: int, prefix: Path,
                    cfg: SamplerConfig | None = None) -> Path:
    return SawSampler(dimension, cfg).escaping(n, prefix)


def sample_prefix_conditioned(dimension: int, n: int, prefix: Path,
                              cfg: SamplerConfig | None = None) -> Path:
    return SawSampler(dimension, cfg).prefix_conditioned(n, prefix)

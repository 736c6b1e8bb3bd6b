"""Lattice-path data model: points, walks, shifts, concatenation, escape.

Walks on Z^d are stored as direction codes, one byte per step.  Code ``c``
moves along axis ``c // 2``, in the positive direction when ``c`` is even
and the negative direction when ``c`` is odd, so ``c ^ 1`` is the reversal
of ``c``.  All types are immutable values after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations, product
from typing import Iterator, Sequence

from .errors import (
    BadDirectionError,
    DimensionMismatchError,
    NotSelfAvoidingError,
    PatternLongerThanPathError,
    ShiftOutOfRangeError,
)

Coords = tuple[int, ...]


@lru_cache(maxsize=None)
def direction_vectors(dimension: int) -> tuple[Coords, ...]:
    """Unit-step displacement for each direction code in {0, ..., 2d-1}."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    vectors = []
    for code in range(2 * dimension):
        axis, sign = code // 2, 1 - 2 * (code % 2)
        vec = [0] * dimension
        vec[axis] = sign
        vectors.append(tuple(vec))
    return tuple(vectors)


def origin(dimension: int) -> Coords:
    return (0,) * dimension


def add(a: Coords, b: Coords) -> Coords:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Coords, b: Coords) -> Coords:
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class Path:
    """An origin-anchored self-avoiding walk stored as direction codes.

    The constructor trusts its arguments; use :func:`validate` to build a
    ``Path`` from untrusted step codes.
    """

    dimension: int
    steps: bytes = b""
    anchor: Coords = ()

    def __post_init__(self):
        if self.anchor == ():
            object.__setattr__(self, "anchor", origin(self.dimension))
        elif len(self.anchor) != self.dimension:
            raise DimensionMismatchError(
                f"anchor has {len(self.anchor)} coordinates, expected {self.dimension}"
            )

    def __len__(self) -> int:
        return len(self.steps)

    @cached_property
    def vertices(self) -> tuple[Coords, ...]:
        """Vertex sequence (anchor first), length ``len(self) + 1``."""
        deltas = direction_vectors(self.dimension)
        out = [self.anchor]
        cur = self.anchor
        for code in self.steps:
            cur = add(cur, deltas[code])
            out.append(cur)
        return tuple(out)

    @cached_property
    def vertex_set(self) -> frozenset[Coords]:
        return frozenset(self.vertices)

    @property
    def end(self) -> Coords:
        return self.vertices[-1]

    def re_anchored(self, anchor: Coords | None = None) -> "Path":
        return Path(self.dimension, self.steps, anchor or origin(self.dimension))


def validate(raw_steps: Sequence[int] | bytes, dimension: int,
             anchor: Coords | None = None) -> Path:
    """Build a ``Path`` from step codes, checking self-avoidance exactly.

    Raises ``BadDirectionError`` on an out-of-range code and
    ``NotSelfAvoidingError`` with the position of the first repeated vertex.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    limit = 2 * dimension
    deltas = direction_vectors(dimension)
    start = anchor or origin(dimension)
    seen = {start}
    cur = start
    for i, code in enumerate(raw_steps):
        if not 0 <= code < limit:
            raise BadDirectionError(code, i, dimension)
        cur = add(cur, deltas[code])
        if cur in seen:
            raise NotSelfAvoidingError(i + 1)
        seen.add(cur)
    return Path(dimension, bytes(raw_steps), start)


@dataclass(frozen=True)
class TwoSidedPath:
    """A walk indexed on [-m, n]: two origin-anchored sides meeting only at 0.

    ``w(-k)`` is the k-th vertex of ``neg`` and ``w(k)`` the k-th vertex of
    ``pos``.  Use :func:`validate_two_sided` for untrusted sides.
    """

    neg: Path
    pos: Path

    def __post_init__(self):
        if self.neg.dimension != self.pos.dimension:
            raise DimensionMismatchError("two-sided halves differ in dimension")

    @property
    def dimension(self) -> int:
        return self.pos.dimension

    @property
    def neg_length(self) -> int:
        return len(self.neg)

    @property
    def pos_length(self) -> int:
        return len(self.pos)

    @cached_property
    def vertices(self) -> tuple[Coords, ...]:
        """Vertex sequence from w(-m) through w(n)."""
        return tuple(reversed(self.neg.vertices[1:])) + self.pos.vertices

    @cached_property
    def vertex_set(self) -> frozenset[Coords]:
        return self.neg.vertex_set | self.pos.vertex_set

    def to_path(self) -> Path:
        """The same walk read from w(-m) to w(n) as a one-sided path."""
        rev = bytes(self.neg.steps[i] ^ 1 for i in range(len(self.neg) - 1, -1, -1))
        return Path(self.dimension, rev + self.pos.steps, self.neg.end)


def validate_two_sided(neg: Path, pos: Path) -> TwoSidedPath:
    """Check that two origin-anchored sides intersect only at the origin."""
    if neg.dimension != pos.dimension:
        raise DimensionMismatchError("two-sided halves differ in dimension")
    o = origin(neg.dimension)
    if neg.anchor != o or pos.anchor != o:
        raise ValueError("both sides must be anchored at the origin")
    common = neg.vertex_set & pos.vertex_set
    if common != {o}:
        bad = next(iter(common - {o}))
        raise NotSelfAvoidingError(
            index=pos.vertices.index(bad),
            message=f"the two sides share the off-origin vertex {bad}",
        )
    return TwoSidedPath(neg, pos)


def empty_two_sided(dimension: int) -> TwoSidedPath:
    p = Path(dimension)
    return TwoSidedPath(p, p)


def shift(walk: Path | TwoSidedPath, m: int) -> Path | TwoSidedPath:
    """Discard the first ``m`` steps and re-anchor at the new start.

    On a one-sided walk the result has length ``n - m``.  On a two-sided
    walk the discarded steps migrate to the negative side, so the result is
    indexed on ``[-(neg + m), n - m]``.
    """
    if m < 0:
        raise ShiftOutOfRangeError("shift amount must be nonnegative")
    if isinstance(walk, TwoSidedPath):
        if m > walk.pos_length:
            raise ShiftOutOfRangeError(
                f"shift {m} exceeds positive length {walk.pos_length}"
            )
        pos = walk.pos
        new_neg = bytes(pos.steps[j] ^ 1 for j in range(m - 1, -1, -1)) + walk.neg.steps
        return TwoSidedPath(
            Path(walk.dimension, new_neg),
            Path(walk.dimension, pos.steps[m:]),
        )
    if m > len(walk):
        raise ShiftOutOfRangeError(f"shift {m} exceeds length {len(walk)}")
    return Path(walk.dimension, walk.steps[m:])


def concat(first: Path, second: Path) -> Path:
    """Concatenation: ``second`` is translated to start at the end of ``first``.

    Raises ``NotSelfAvoidingError`` when the combined walk revisits a vertex;
    for the escape predicate that failure is the interesting outcome, not an
    exceptional state.
    """
    if first.dimension != second.dimension:
        raise DimensionMismatchError("cannot concatenate walks of different dimension")
    offset = sub(first.end, second.vertices[0])
    occupied = first.vertex_set
    for j, v in enumerate(second.vertices[1:], start=1):
        if add(v, offset) in occupied:
            raise NotSelfAvoidingError(len(first) + j)
    return Path(first.dimension, first.steps + second.steps, first.anchor)


def escapes(tail: Path, head: Path) -> bool:
    """True iff ``head ⊕ tail`` is self-avoiding.

    Equivalently, ``tail`` translated to the end of ``head`` meets ``head``
    only at that endpoint.
    """
    if tail.dimension != head.dimension:
        raise DimensionMismatchError("escape test needs equal dimensions")
    offset = sub(head.end, tail.vertices[0])
    occupied = head.vertex_set
    for v in tail.vertices[1:]:
        if add(v, offset) in occupied:
            return False
    return True


def occurrence_count(walk: Path, pattern: Path) -> int:
    """Number of start times i in [0, n-k] at which ``pattern`` occurs.

    Occurrence is translated equality, which on direction codes is a plain
    window match.
    """
    if walk.dimension != pattern.dimension:
        raise DimensionMismatchError("pattern and walk dimensions differ")
    k = len(pattern)
    if k < 1:
        raise ValueError("pattern must have at least one step")
    target = pattern.steps
    steps = walk.steps
    return sum(1 for i in range(len(steps) - k + 1) if steps[i:i + k] == target)


def pattern_density(walk: Path, pattern: Path) -> Fraction:
    """Fraction of times ``pattern`` occurs in ``walk`` (denominator n)."""
    if len(pattern) > len(walk):
        raise PatternLongerThanPathError(
            f"pattern length {len(pattern)} exceeds walk length {len(walk)}"
        )
    return Fraction(occurrence_count(walk, pattern), len(walk))


@dataclass(frozen=True)
class SignedPermutation:
    """A symmetry of Z^d: ``y[i] = signs[i] * x[perm[i]]``."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.perm)

    def apply_point(self, coords: Coords) -> Coords:
        return tuple(s * coords[p] for p, s in zip(self.perm, self.signs))

    @cached_property
    def code_table(self) -> tuple[int, ...]:
        """Direction-code image under the symmetry."""
        table = []
        for code in range(2 * self.dimension):
            axis, sign = code // 2, 1 - 2 * (code % 2)
            new_axis = self.perm.index(axis)
            new_sign = self.signs[new_axis] * sign
            table.append(2 * new_axis + (0 if new_sign > 0 else 1))
        return tuple(table)

    def apply_path(self, walk: Path) -> Path:
        table = self.code_table
        return Path(
            walk.dimension,
            bytes(table[c] for c in walk.steps),
            self.apply_point(walk.anchor),
        )


def lattice_symmetries(dimension: int) -> Iterator[SignedPermutation]:
    """All 2^d * d! signed coordinate permutations."""
    for perm in permutations(range(dimension)):
        for signs in product((1, -1), repeat=dimension):
            yield SignedPermutation(perm, signs)


@lru_cache(maxsize=None)
def _first_turn_symmetries(dimension: int) -> tuple[SignedPermutation, ...]:
    """The 2d * 2(d-1) lattice symmetries sending +e1 and +e2 to each pair
    of directions on two different axes (none in d=1)."""
    out = []
    for step in range(2 * dimension):
        for turn in range(2 * dimension):
            a, b = step // 2, turn // 2
            if a == b:
                continue
            # y[a] = +-x[0], y[b] = +-x[1], the other axes keep their order
            perm, signs = [0] * dimension, [1] * dimension
            rest = iter(range(2, dimension))
            for axis in range(dimension):
                perm[axis] = 0 if axis == a else 1 if axis == b else next(rest)
            signs[a], signs[b] = 1 - 2 * (step % 2), 1 - 2 * (turn % 2)
            out.append(SignedPermutation(tuple(perm), tuple(signs)))
    return tuple(out)

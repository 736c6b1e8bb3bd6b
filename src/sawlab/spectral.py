"""Escape matrix on SAW_n and the fixed point of its measure operator.

The escape relation A(zeta, xi) = 1{xi escapes zeta} is roughly half dense
at desk scale, so rows are kept as a plain boolean ndarray.  The operator
maps a probability vector P to the normalized vector of escape
probabilities row . P; its unique fixed point on the trimmed matrix is the
Perron eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from .counting import (_SLICE_KEYS, CountTable, count_saws, default_table,
                       prefix_histogram)
from .errors import (
    BudgetExceededError,
    NoConvergenceError,
    StartsDisagreeError,
    ZeroTotalMassError,
)
from .sampling import _base_arrays, _key_dtype


@dataclass
class EscapeMatrix:
    """0/1 escape relation over SAW_n in canonical enumeration order.

    ``paths`` always lists the full SAW_n index; after trimming, ``kept``
    maps matrix coordinates back to positions in ``paths``.
    """

    dimension: int
    length: int
    paths: list[bytes]
    rows: np.ndarray
    trimmed: bool
    kept: np.ndarray

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def full_size(self) -> int:
        return len(self.paths)

    def kept_paths(self) -> list[bytes]:
        return [self.paths[i] for i in self.kept]


@dataclass
class MeasureVector:
    """Probability vector indexed like an ``EscapeMatrix`` plus its mass Z."""

    values: np.ndarray
    eigenvalue: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    def total(self) -> float:
        return float(self.values.sum())


def build_escape_matrix(dimension: int, n: int, trim: bool = True, *,
                        max_paths: int = 20000) -> EscapeMatrix:
    """Exact escape matrix on SAW_n; trimming removes zero rows/columns
    until stable (removing a column can zero another row).

    Entry (i, j) tests walk i as the head and walk j as the tail on packed
    vertex keys.  Both are self-avoiding, so only a head vertex a < n and a
    tail vertex n + b (b >= 1) of equal parity can meet, where key_i[a] -
    key_i[n] equals key_j[b].  Rows are built in blocks of about
    ``counting._SLICE_KEYS`` entries, each the OR of one cross compare per
    such pair (a, b)."""
    count = count_saws(dimension, n)
    if count > max_paths:
        raise BudgetExceededError(max_paths, count)
    # a head and a tail make 2n steps; refuses walks keys cannot hold
    codes, keys = _base_arrays(dimension, n, _key_dtype(dimension, 2 * n))
    paths = [row.tobytes() for row in codes]
    size = len(paths)
    pairs = [(a, b) for a in range(n) for b in range(1, n + 1)
             if (n + b - a) % 2 == 0]
    tails = keys.T.copy()  # tails[b]: vertex b of every walk, contiguous
    block = max(1, _SLICE_KEYS // size)
    rows = np.zeros((size, size), dtype=bool)
    for start in range(0, size, block):
        heads = keys[start:start + block]
        rel = heads[:, :n] - heads[:, n:]  # head vertices seen from its tip
        hit = rows[start:start + block]
        for a, b in pairs:
            hit |= rel[:, a, None] == tails[b]
        np.logical_not(hit, out=hit)

    kept = np.arange(size)
    trimmed = False
    if trim:
        while True:
            alive = rows.any(axis=1) & rows.any(axis=0)
            if alive.all():
                break
            trimmed = True
            rows = rows[np.ix_(alive, alive)]
            kept = kept[alive]
    return EscapeMatrix(dimension, n, paths, rows, trimmed, kept)


def apply_escape_operator(matrix: EscapeMatrix, measure: MeasureVector) -> MeasureVector:
    """One operator step: P -> normalized (row zeta . P)."""
    if measure.values.shape[0] != matrix.size:
        raise ValueError("measure does not match matrix index")
    unnormalized = matrix.rows @ measure.values
    mass = float(unnormalized.sum())
    if mass <= 0.0:
        raise ZeroTotalMassError("escape operator produced zero total mass")
    return MeasureVector(unnormalized / mass, eigenvalue=mass)


@dataclass
class FixedPointResult:
    dimension: int
    length: int
    matrix: EscapeMatrix
    measure: MeasureVector
    eigenvalue: float
    residual: float
    iterations: int
    starts_spread: float
    primitivity_power: int | None

    def full_vector(self) -> np.ndarray:
        """Fixed point extended to the full SAW_n index (zeros off-trim)."""
        out = np.zeros(self.matrix.full_size)
        out[self.matrix.kept] = self.measure.values
        return out

    def report_dict(self, top: int = 10) -> dict:
        order = np.argsort(self.measure.values)[::-1][:top]
        kept_paths = self.matrix.kept_paths()
        return {
            "d": self.dimension,
            "n": self.length,
            "size": self.matrix.full_size,
            "trimmed_size": self.matrix.size,
            "Z": self.eigenvalue,
            "residual": self.residual,
            "iters": self.iterations,
            "primitivity_k": self.primitivity_power,
            "top_paths": [
                {"steps": list(kept_paths[i]), "prob": float(self.measure.values[i])}
                for i in order
            ],
        }


def _primitivity_power(rows: np.ndarray, cap: int) -> int | None:
    """Smallest k <= cap with the boolean k-th power all positive."""
    current = rows.astype(np.float32)
    base = current
    for k in range(1, cap + 1):
        if (current > 0).all():
            return k
        current = (current @ base) > 0
        current = current.astype(np.float32)
    return None


def perron_fixed_point(matrix: EscapeMatrix, *, tol: float = 1e-12,
                       max_iters: int = 10 ** 6, starts: int = 3,
                       seed: int = 0,
                       primitivity_cap: int | None = None) -> FixedPointResult:
    """Power-iterate the escape operator to its unique fixed point.

    Every start must land on the same vector within ``10 * tol``; that
    agreement is the uniqueness witness.  Also searches for a primitivity
    witness k with the boolean k-th power of the matrix all positive
    (absence within the cap is reported as None, not an error).
    """
    if not matrix.trimmed and (not matrix.rows.any(axis=1).all()
                               or not matrix.rows.any(axis=0).all()):
        raise ValueError("fixed point needs a trimmed matrix")
    size = matrix.size
    rng = np.random.default_rng(seed)
    start_vectors = [np.full(size, 1.0 / size)]
    for _ in range(max(0, starts - 1)):
        vec = rng.random(size) + 0.1
        start_vectors.append(vec / vec.sum())

    # the operator steps on one float64 copy of the rows, not a cast per step
    operator = replace(matrix, rows=matrix.rows.astype(np.float64))
    finals = []
    iterations = 0
    residual = float("inf")
    eigenvalue = 0.0
    for vec in start_vectors:
        measure = MeasureVector(vec)
        for it in range(1, max_iters + 1):
            new = apply_escape_operator(operator, measure)
            residual = float(np.abs(new.values - measure.values).sum())
            measure = new
            if residual <= tol:
                break
        else:
            raise NoConvergenceError(max_iters, residual)
        iterations = max(iterations, it)
        eigenvalue = measure.eigenvalue
        finals.append(measure.values)

    del operator  # free its 8 bytes per entry before the witness's copies
    spread = 0.0
    for other in finals[1:]:
        spread = max(spread, float(np.abs(other - finals[0]).sum()))
    if spread > 10 * tol:
        raise StartsDisagreeError(spread, 10 * tol)

    cap = primitivity_cap if primitivity_cap is not None else 2 * matrix.length + 4
    witness = _primitivity_power(matrix.rows, cap)
    return FixedPointResult(
        dimension=matrix.dimension,
        length=matrix.length,
        matrix=matrix,
        measure=MeasureVector(finals[0], eigenvalue=eigenvalue),
        eigenvalue=eigenvalue,
        residual=residual,
        iterations=iterations,
        starts_spread=spread,
        primitivity_power=witness,
    )


@dataclass
class MarginalRow:
    codes: bytes
    fixed_point: float
    marginal: float

    @property
    def delta(self) -> float:
        return self.fixed_point - self.marginal


@dataclass
class MarginalComparison:
    dimension: int
    length: int
    horizon: int
    tv_distance: float
    rows: list[MarginalRow] = field(default_factory=list)


def compare_to_marginal(result: FixedPointResult, horizon: int, *,
                        table: CountTable | None = None, workers: int = 1,
                        node_budget: int | None = None) -> MarginalComparison:
    """Total-variation distance between the fixed point and the length-n
    marginal of the uniform walk at the given horizon m >= n.

    The marginal puts mass c_m(zeta) / c_m on each zeta in SAW_n; the
    fixed point is extended by zero off the trimmed index.
    """
    d, n = result.dimension, result.length
    if horizon < n:
        raise ValueError("horizon must be at least the fixed-point length")
    table = table or default_table(d)
    hist = prefix_histogram(d, horizon, n, table=table, workers=workers,
                            node_budget=node_budget)
    total = sum(hist.values())  # c_m, without a second pass
    fixed_full = result.full_vector()
    rows = []
    tv = 0.0
    for idx, codes in enumerate(result.matrix.paths):
        marginal = hist.get(codes, 0) / total
        rows.append(MarginalRow(codes, float(fixed_full[idx]), marginal))
        tv += abs(fixed_full[idx] - marginal)
    return MarginalComparison(d, n, horizon, 0.5 * tv, rows)

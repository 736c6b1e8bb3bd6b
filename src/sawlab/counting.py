"""Exact backtracking enumeration and counting of self-avoiding walks.

The depth-first search keeps its occupancy set as packed integers: each
coordinate is offset into [0, 2L] and given a fixed bit field, so a vertex
is one int and a step is one addition.  Packing is lossless because every
reachable coordinate is bounded by the walk extent L.

Two recursive kernels do all the searching.  ``_count_depths`` adds the
number of j-step extensions of a walk, for every j, into a list of counts
per depth, and can tally the full-length ones by endpoint.  ``_walk``
calls one callback at every vertex it adds above the last level and
another at the last level, in lexicographic order of the step codes; a
false return from the first prunes below that vertex and an exception
ends the search.

A node budget charges one node for every vertex either kernel adds, the
prefix walk that cuts a count into tasks included, so a count fits it or
raises ``BudgetExceededError`` the same way serially, on a process pool or
resumed from a checkpoint.  Each task starts with the nodes left at that
moment, so a count that runs out stops after about one budget per worker.
Counts are exact Python integers; optional checkpoints keep the counts and
nodes of every finished prefix task.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, CheckpointIgnoredWarning
from .lattice import Coords, LatticePoint, Path, TwoSidedPath, empty_two_sided

_UNLIMITED = 1 << 62
_SPLIT_DEPTH = 3  # prefix length at which a count is cut into tasks
_CHECKPOINT_EVERY = 32  # finished tasks between checkpoint writes


class CountTable:
    """Exact count cache keyed by (kind, n, condition key).

    ``kind`` is one of ``plain``, ``end``, ``prefix``, ``two_sided``.  An
    optional store (anything with ``get``/``put`` over the same keys) makes
    the table read-through/write-through.
    """

    def __init__(self, dimension: int, store=None):
        self.dimension = dimension
        self.store = store
        self._entries: dict[tuple, int] = {}
        self._complete_histograms: set[tuple[str, int]] = set()

    def get(self, kind: str, n: int, key=None) -> int | None:
        k = (kind, n, key)
        if k in self._entries:
            return self._entries[k]
        if self.store is not None:
            value = self.store.get(self.dimension, kind, n, key)
            if value is not None:
                self._entries[k] = value
                return value
        if kind == "end" and ("end", n) in self._complete_histograms:
            return 0
        return None

    def put(self, kind: str, n: int, key, value: int) -> None:
        self._entries[(kind, n, key)] = value
        if self.store is not None:
            self.store.put(self.dimension, kind, n, key, value)

    def mark_histogram_complete(self, kind: str, n: int) -> None:
        self._complete_histograms.add((kind, n))

    def plain_counts(self) -> dict[int, int]:
        return {
            n: v for (kind, n, _), v in self._entries.items() if kind == "plain"
        }

    def largest_plain(self) -> int | None:
        plain = self.plain_counts()
        return max(plain) if plain else None


_default_tables: dict[int, CountTable] = {}


def default_table(dimension: int) -> CountTable:
    """Process-wide shared table (exact values, so sharing is safe)."""
    if dimension not in _default_tables:
        _default_tables[dimension] = CountTable(dimension)
    return _default_tables[dimension]


# ---------------------------------------------------------------------------
# packed-coordinate machinery


def _pack_params(dimension: int, extent: int):
    """Bit layout for coordinates in [-extent, extent]."""
    width = max(2, (2 * extent + 1).bit_length())
    origin_key = 0
    for axis in range(dimension):
        origin_key |= extent << (axis * width)
    deltas = []
    for code in range(2 * dimension):
        axis, sign = code // 2, 1 - 2 * (code % 2)
        deltas.append(sign * (1 << (axis * width)))
    return width, origin_key, tuple(deltas)


def _pack(coords: Coords, width: int, extent: int) -> int:
    key = 0
    for axis, c in enumerate(coords):
        key |= (c + extent) << (axis * width)
    return key


def _unpack(key: int, dimension: int, width: int, extent: int) -> Coords:
    mask = (1 << width) - 1
    return tuple(((key >> (axis * width)) & mask) - extent for axis in range(dimension))


# ---------------------------------------------------------------------------
# the two search kernels


class _Found(Exception):
    """Raised by a visitor to end a walk early."""


def _budget(node_budget: int | None = None) -> list:
    """The budget list both kernels charge: [nodes left, limit]."""
    limit = _UNLIMITED if node_budget is None else node_budget
    return [limit, limit]


def _count_depths(head: int, level: int, depth: int, occupied: set, deltas,
                  budget: list, counts: list, ends: dict | None = None) -> None:
    """Add one to counts[j] for every extension of ``head``, a walk of
    ``level`` steps, to a walk of j steps, for level < j <= depth; with
    ``ends`` given, also add one to ends[v] for every depth-step walk
    ending at v."""
    nxt_level = level + 1
    found = 0
    for delta in deltas:
        nxt = head + delta
        if nxt not in occupied:
            found += 1
            if nxt_level < depth:
                occupied.add(nxt)
                _count_depths(nxt, nxt_level, depth, occupied, deltas, budget,
                              counts, ends)
                occupied.discard(nxt)
            elif ends is not None:
                ends[nxt] = ends.get(nxt, 0) + 1
    counts[nxt_level] += found
    budget[0] -= found
    if budget[0] < 0:
        raise BudgetExceededError(budget[1], budget[1] - budget[0])


def _walk(head: int, depth: int, occupied: set, deltas, budget: list,
          codes: list, visit, leaf) -> None:
    """Pre-order visit of every extension of ``head`` by 1..depth steps.

    ``visit(nxt)`` runs at every vertex added above the last level and
    ``leaf(nxt)`` at every vertex of the last level, in lexicographic order
    of the codes, while ``codes`` ends in the step to ``nxt`` and
    ``occupied`` holds it.  A false return from ``visit`` prunes below that
    vertex; with ``visit`` None the walk goes everywhere.  An exception,
    from a callback or from the budget, ends the walk and leaves ``codes``
    and ``occupied`` as they stood when it was raised, so a caller may read
    the path to the visited vertex from ``codes``.
    """
    for code, delta in enumerate(deltas):
        nxt = head + delta
        if nxt in occupied:
            continue
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceededError(budget[1], budget[1] - budget[0])
        codes.append(code)
        occupied.add(nxt)
        if depth == 1:
            leaf(nxt)
        elif visit is None or visit(nxt):
            _walk(nxt, depth - 1, occupied, deltas, budget, codes, visit, leaf)
        occupied.discard(nxt)
        codes.pop()


def _stop(nxt: int) -> None:
    """A ``leaf`` callback that ends the walk at the first full extension."""
    raise _Found


# ---------------------------------------------------------------------------
# prefix tasks, parallel reduction, checkpoints


def _count_task(payload) -> tuple[list[int] | None, int]:
    """Counts per depth below one prefix task and the nodes it charged; the
    counts are None when it ran past the ``nodes_left`` it was given."""
    deltas, blocked, head, level, depth, pos_head, pos_depth, nodes_left = payload
    occupied, budget, codes = set(blocked), _budget(nodes_left), []
    counts = [0] * ((depth if pos_head is None else pos_depth) + 1)

    def count_positive(tip: int) -> None:  # below a finished negative side
        counts[0] += 1
        if pos_depth:
            _count_depths(pos_head, 0, pos_depth, occupied, deltas, budget,
                          counts)

    try:
        if pos_head is None:
            _count_depths(head, level, depth, occupied, deltas, budget, counts)
        elif level == depth:
            count_positive(head)
        else:
            _walk(head, depth - level, occupied, deltas, budget, codes, None,
                  count_positive)
    except BudgetExceededError:
        counts = None
    return counts, nodes_left - budget[0]


def _load_checkpoint(path: str | None, signature: str) -> dict:
    """Finished prefix tasks saved at ``path``: index -> (counts, nodes)."""
    if path is None or not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data["signature"] != signature:
            raise ValueError("it belongs to another count")
        return {int(k): ([int(c) for c in v["counts"]], int(v["nodes"]))
                for k, v in data["done"].items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        warnings.warn(f"ignoring checkpoint {path} ({exc}); counting from the "
                      "start", CheckpointIgnoredWarning, stacklevel=4)
        return {}


def _save_checkpoint(path: str, signature: str, done: dict) -> None:
    """Write the finished tasks atomically."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"signature": signature,
                   "done": {str(k): {"counts": counts, "nodes": nodes}
                            for k, (counts, nodes) in done.items()}}, fh)
    os.replace(tmp, path)


def _signature(*parts) -> str:
    return hashlib.sha256(repr((_SPLIT_DEPTH, *parts)).encode()).hexdigest()[:16]


def _run_engine(deltas, blocked, head: int, depth: int, *,
                pos_head: int | None = None, pos_depth: int = 0,
                workers: int = 1, node_budget: int | None = None,
                checkpoint_path: str | None = None,
                signature: str = "") -> list[int]:
    """Counts per depth: counts[j] is the number of j-step extensions of
    ``head`` or, with ``pos_head`` set, of pairs of a full ``depth``-step
    negative side and a j-step positive side.

    The first ``_SPLIT_DEPTH`` levels are walked here (one-sided counts up
    to the split come from this walk) and cut into prefix tasks, run
    in-process when ``workers == 1`` and on a process pool otherwise.
    """
    budget = _budget(node_budget)
    limit = budget[1]
    split = min(_SPLIT_DEPTH, depth)
    counts = [0] * ((depth if pos_head is None else pos_depth) + 1)
    counts[0] = int(pos_head is None)
    tasks = [] if split else [(tuple(blocked), head)]
    codes, occupied = [], set(blocked)

    def visit(nxt: int) -> bool:
        if pos_head is None:
            counts[len(codes)] += 1
        return True

    def leaf(nxt: int) -> None:  # one task per prefix of ``split`` steps
        visit(nxt)
        tasks.append((tuple(occupied), nxt))

    if split:
        _walk(head, split, occupied, deltas, budget, codes, visit, leaf)
    if pos_head is None and split == depth:
        tasks = []  # the prefix walk has counted every level

    done = _load_checkpoint(checkpoint_path, signature)
    charged = limit - budget[0] + sum(nodes for _, nodes in done.values())
    todo = iter([i for i in range(len(tasks)) if i not in done])

    def record(idx: int, task_counts: list[int] | None, used: int) -> int:
        if task_counts is not None:
            done[idx] = (task_counts, used)
            if checkpoint_path is not None and len(done) % _CHECKPOINT_EVERY == 0:
                _save_checkpoint(checkpoint_path, signature, done)
        return used

    pool = (ProcessPoolExecutor(max_workers=workers)
            if workers > 1 and len(done) < len(tasks) else None)
    running: dict[Future, int] = {}
    try:
        while True:
            # each task gets the nodes left when it starts, and at most one
            # per worker runs: a count that runs out stops after about one
            # budget per worker
            while charged <= limit and len(running) < workers:
                idx = next(todo, None)
                if idx is None:
                    break
                payload = (deltas, *tasks[idx], split, depth, pos_head,
                           pos_depth, limit - charged)
                if pool is None:
                    charged += record(idx, *_count_task(payload))
                else:
                    running[pool.submit(_count_task, payload)] = idx
            if not running:
                break
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in finished:
                charged += record(running.pop(fut), *fut.result())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if charged > limit:
        if checkpoint_path is not None:
            _save_checkpoint(checkpoint_path, signature, done)
        raise BudgetExceededError(limit, charged, checkpoint_path)
    for task_counts, _ in done.values():
        counts = [a + b for a, b in zip(counts, task_counts)]
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return counts


# ---------------------------------------------------------------------------
# public counting operations


def count_saws(dimension: int, n: int, *, table: CountTable | None = None,
               workers: int = 1, node_budget: int | None = None,
               checkpoint_path: str | None = None) -> int:
    """Exact number of n-step self-avoiding walks from the origin.

    The first step is fixed to +e1 and the result multiplied by 2d; every
    condition-free count has that symmetry.  The same search yields c_k for
    every k <= n, and all of them go into the table.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    table = table or default_table(dimension)
    cached = table.get("plain", n)
    if cached is not None:
        return cached
    counts = [1]
    if n > 0:
        width, origin_key, deltas = _pack_params(dimension, n)
        first = origin_key + deltas[0]
        below = _run_engine(
            deltas, frozenset((origin_key, first)), first, n - 1,
            workers=workers, node_budget=node_budget,
            checkpoint_path=checkpoint_path,
            signature=_signature(dimension, "plain", n),
        )
        counts += [2 * dimension * c for c in below]
    for k, value in enumerate(counts):
        table.put("plain", k, None, value)
    return counts[n]


def endpoint_histogram(dimension: int, n: int, *,
                       table: CountTable | None = None,
                       node_budget: int | None = None) -> dict[Coords, int]:
    """Counts of n-step walks grouped by endpoint, from one full pass."""
    table = table or default_table(dimension)
    width, origin_key, deltas = _pack_params(dimension, n)
    hist = {origin_key: 1} if n == 0 else {}
    if n > 0:
        _count_depths(origin_key, 0, n, {origin_key}, deltas,
                      _budget(node_budget), [0] * (n + 1), hist)
    out = {}
    for key, value in hist.items():
        coords = _unpack(key, dimension, width, n)
        out[coords] = value
        table.put("end", n, coords, value)
    table.mark_histogram_complete("end", n)
    return out


def count_ending_at(dimension: int, n: int, point: Coords | LatticePoint, *,
                    table: CountTable | None = None,
                    node_budget: int | None = None) -> int:
    """Exact number of n-step walks ending at ``point``."""
    coords = point.coords if isinstance(point, LatticePoint) else tuple(point)
    if len(coords) != dimension:
        raise ValueError("endpoint dimension mismatch")
    table = table or default_table(dimension)
    cached = table.get("end", n, coords)
    if cached is not None:
        return cached
    norm = sum(abs(c) for c in coords)
    if norm > n or (norm - n) % 2 != 0:
        table.put("end", n, coords, 0)
        return 0
    endpoint_histogram(dimension, n, table=table, node_budget=node_budget)
    return table.get("end", n, coords) or 0


def count_extensions(dimension: int, n: int, prefix: Path, *,
                     table: CountTable | None = None, workers: int = 1,
                     node_budget: int | None = None,
                     checkpoint_path: str | None = None) -> int:
    """Number of n-step walks starting with ``prefix``.

    Equals the number of (n-k)-step walks escaping the prefix, counted by a
    search from the prefix tip with the prefix occupied.
    """
    k = len(prefix)
    if k > n:
        raise ValueError("prefix longer than requested length")
    if prefix.dimension != dimension:
        raise ValueError("prefix dimension mismatch")
    table = table or default_table(dimension)
    if k == 0:
        return count_saws(dimension, n, table=table, workers=workers,
                          node_budget=node_budget,
                          checkpoint_path=checkpoint_path)
    cached = table.get("prefix", n, prefix.steps)
    if cached is not None:
        return cached
    anchored = prefix.re_anchored()
    width, origin_key, deltas = _pack_params(dimension, n)
    blocked = frozenset(_pack(v, width, n) for v in anchored.vertices)
    head = _pack(anchored.end, width, n)
    value = _run_engine(
        deltas, blocked, head, n - k,
        workers=workers, node_budget=node_budget,
        checkpoint_path=checkpoint_path,
        signature=_signature(dimension, "prefix", n, prefix.steps),
    )[-1]
    table.put("prefix", n, prefix.steps, value)
    return value


def has_extension(dimension: int, extra_steps: int, prefix: Path) -> bool:
    """True iff some ``extra_steps``-step continuation escapes ``prefix``.

    Cheap when continuations are plentiful and when the prefix is trapped
    (the dead search tree is small in both cases).
    """
    if extra_steps <= 0:
        return True
    return _has_extension(dimension, extra_steps, prefix.steps)


@lru_cache(maxsize=4096)
def _has_extension(dimension: int, extra_steps: int, steps: bytes) -> bool:
    """``has_extension`` keyed on the prefix's step codes; its anchor plays
    no part."""
    anchored = Path(dimension, steps)
    extent = len(steps) + extra_steps
    width, origin_key, deltas = _pack_params(dimension, extent)
    occupied = {_pack(v, width, extent) for v in anchored.vertices}
    head = _pack(anchored.end, width, extent)
    try:
        _walk(head, extra_steps, occupied, deltas, _budget(), [], None, _stop)
    except _Found:
        return True
    return False


def count_two_sided(dimension: int, m: int, n: int,
                    xi: TwoSidedPath | None = None, *,
                    table: CountTable | None = None, workers: int = 1,
                    node_budget: int | None = None,
                    checkpoint_path: str | None = None) -> int:
    """Number of two-sided walks with side lengths (m, n) extending ``xi``.

    A two-sided walk is a pair in SAW_m x SAW_n whose sides meet only at
    the origin; with empty ``xi`` the count equals c_{m+n} through the
    fold-out bijection.
    """
    if xi is None:
        xi = empty_two_sided(dimension)
    if xi.dimension != dimension:
        raise ValueError("condition dimension mismatch")
    if xi.neg_length > m or xi.pos_length > n:
        raise ValueError("condition does not fit inside the requested lengths")
    table = table or default_table(dimension)
    key = (m, n, xi.neg.steps, xi.pos.steps)
    cached = table.get("two_sided", m + n, key)
    if cached is not None:
        return cached
    extent = m + n
    width, origin_key, deltas = _pack_params(dimension, extent)
    blocked = frozenset(_pack(v, width, extent) for v in xi.vertex_set)
    neg_head = _pack(xi.neg.end, width, extent)
    pos_head = _pack(xi.pos.end, width, extent)
    value = _run_engine(
        deltas, blocked, neg_head, m - xi.neg_length,
        pos_head=pos_head, pos_depth=n - xi.pos_length,
        workers=workers, node_budget=node_budget,
        checkpoint_path=checkpoint_path,
        signature=_signature(dimension, "two_sided", m, n, key),
    )[-1]
    table.put("two_sided", m + n, key, value)
    return value


def enumerate_paths(dimension: int, n: int, prefix: Path | None = None) -> list[bytes]:
    """All n-step walks (optionally with a forced prefix) as step codes.

    Canonical order: lexicographic in direction codes, which is the
    depth-first visiting order.
    """
    if prefix is not None and len(prefix) > n:
        raise ValueError("prefix longer than requested length")
    width, origin_key, deltas = _pack_params(dimension, n)
    anchored = (prefix or Path(dimension)).re_anchored()
    occupied = {_pack(v, width, n) for v in anchored.vertices}
    codes = list(anchored.steps)
    if len(codes) == n:
        return [bytes(codes)]
    acc: list[bytes] = []
    _walk(_pack(anchored.end, width, n), n - len(codes), occupied, deltas,
          _budget(), codes, None, lambda nxt: acc.append(bytes(codes)))
    return acc


def prefix_histogram(dimension: int, m: int, k: int, *,
                     table: CountTable | None = None, workers: int = 1,
                     node_budget: int | None = None) -> dict[bytes, int]:
    """c_m(zeta) for every zeta in SAW_k, as a codes -> count map."""
    if k > m:
        raise ValueError("prefix length exceeds walk length")
    table = table or default_table(dimension)
    out = {}
    for codes in enumerate_paths(dimension, k):
        prefix = Path(dimension, codes)
        out[codes] = count_extensions(dimension, m, prefix, table=table,
                                      workers=workers, node_budget=node_budget)
    return out


def truncated_two_point(dimension: int, point: Coords | LatticePoint,
                        max_length: int, mu_hat: float, *,
                        table: CountTable | None = None,
                        node_budget: int | None = None) -> float:
    """Partial two-point sum: sum of c_n(x) * mu_hat^-n for n <= max_length."""
    if mu_hat <= 0:
        raise ValueError("mu_hat must be positive")
    coords = point.coords if isinstance(point, LatticePoint) else tuple(point)
    table = table or default_table(dimension)
    total = 0.0
    for n in range(max_length + 1):
        c = count_ending_at(dimension, n, coords, table=table,
                            node_budget=node_budget)
        if c:
            total += c * mu_hat ** (-n)
    return total


@dataclass
class AsymptoticRow:
    n: int
    count: int
    ratio: Fraction | None
    root: float | None
    amplitude: Fraction | None


@dataclass
class AsymptoticTable:
    dimension: int
    rows: list[AsymptoticRow] = field(default_factory=list)
    nonintersection: list[tuple[int, Fraction]] = field(default_factory=list)


def asymptotic_table(dimension: int, n_max: int, *,
                     table: CountTable | None = None, workers: int = 1,
                     node_budget: int | None = None) -> AsymptoticTable:
    """Growth-rate summaries: counts, successive ratios, n-th roots, the
    amplitude proxy c_n / ratio^n, and the non-intersection ratios
    c_{2m} / c_m^2 for 2m <= n_max."""
    table = table or default_table(dimension)
    # from the top down: the first count caches all the shorter ones
    counts = [count_saws(dimension, n, table=table, workers=workers,
                         node_budget=node_budget)
              for n in reversed(range(n_max + 1))][::-1]
    out = AsymptoticTable(dimension)
    for n, c in enumerate(counts):
        ratio = Fraction(c, counts[n - 1]) if n >= 1 else None
        root = float(c) ** (1.0 / n) if n >= 1 else None
        amplitude = (Fraction(c) / ratio ** n) if n >= 1 else None
        out.rows.append(AsymptoticRow(n, c, ratio, root, amplitude))
    for m in range(1, n_max // 2 + 1):
        out.nonintersection.append(
            (m, Fraction(counts[2 * m], counts[m] ** 2))
        )
    return out

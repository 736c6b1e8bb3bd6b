"""Exact backtracking enumeration and counting of self-avoiding walks.

The depth-first search keeps its occupancy set as packed integers: each
coordinate is offset into [0, 2L] and given a fixed bit field, so a vertex
is one int and a step is one addition.  Packing is lossless because every
reachable coordinate is bounded by the walk extent L.

Two recursive kernels do all the searching.  ``_count_depths`` adds the
number of j-step extensions of a walk, for every j, into a list of counts
per depth, and can tally the full-length ones by endpoint; it counts its
last two levels in one loop, without a call per vertex.  ``_walk``
calls one callback at every vertex it adds above the last level and
another at the last level, in lexicographic order of the step codes; a
false return from the first prunes below that vertex and an exception
ends the search.

Every condition-free pass from the origin (``count_saws``,
``prefix_histogram``, ``endpoint_histogram`` and the pattern pass
``patterns.exact_mean_density_grid``) walks only the first-turn-reduced
tree: the first step is fixed to +e1 and the first step off the e1 axis
to +e2, so each walk that turns stands for 2(d-1) walks and the straight
walk for itself, on top of the 2d first steps.
``_spine`` yields the straight run and the turn off each of its vertices;
the kernels search below the turns.  An empty-middle two-sided count
(``count_two_sided``) walks the negative side's reduced tree and every
positive side below it.  Passes under a prefix, an endpoint or a nonempty
two-sided middle walk their whole tree.

A node is one vertex of the tree a pass walks.  A node budget charges one
node for every vertex the kernels and the reduced tree's straight run add,
the prefix walk that cuts a count into tasks included, so a count fits it
or raises ``BudgetExceededError`` the same way serially, on a process pool
or resumed from a checkpoint.  Each task starts with the nodes left at that
moment, so a count that runs out stops after about one budget per worker.
Counts are exact Python integers; optional checkpoints keep the counts and
nodes of every finished prefix task.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, CheckpointIgnoredWarning
from .lattice import (Coords, LatticePoint, Path, TwoSidedPath,
                      _first_turn_symmetries, empty_two_sided)

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
    ending at v.

    ``head`` must be in ``occupied``: that alone keeps a child from stepping
    back to it.  So the last two levels are counted without recursing: a
    child's grandchildren are its free neighbours, found without adding the
    child, which is no neighbour of itself.  There the budget is charged and
    checked per child (the child and its grandchildren), so a count still
    overshoots it by at most 2d nodes.
    """
    nxt_level = level + 1
    found = 0
    if nxt_level == depth - 1:
        below = 0
        for delta in deltas:
            nxt = head + delta
            if nxt in occupied:
                continue
            found += 1
            grand = 0
            for step in deltas:
                end = nxt + step
                if end not in occupied:
                    grand += 1
                    if ends is not None:
                        ends[end] = ends.get(end, 0) + 1
            below += grand
            budget[0] -= 1 + grand
            if budget[0] < 0:
                raise BudgetExceededError(budget[1], budget[1] - budget[0])
        counts[nxt_level] += found
        counts[depth] += below
        return
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


def _spine(head: int, depth: int, occupied: set, deltas, budget: list,
           codes: list):
    """The first-turn-reduced tree's straight run from ``head``, the tip of
    a walk along +e1.

    For each of ``depth`` levels this yields the turn to +e2 off the run's
    tip (none in d=1) and then the run's next vertex along +e1, while
    ``codes`` ends in the step to the yielded vertex and ``occupied`` holds
    it; the run stays in both.  One node is charged per vertex yielded, so
    the other 2(d-1) - 1 turns are never added or charged.
    """
    steps = (2, 0) if len(deltas) > 2 else (0,)
    for _ in range(depth):
        for code in steps:
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceededError(budget[1], budget[1] - budget[0])
            nxt = head + deltas[code]
            codes.append(code)
            occupied.add(nxt)
            yield nxt
            if code:
                occupied.discard(nxt)
                codes.pop()
        head = nxt


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
                prefix_len: int = 0, reduced: bool = False, workers: int = 1,
                node_budget: int | None = None,
                checkpoint_path: str | None = None,
                signature: str = "") -> tuple[dict[tuple, list[int]], int]:
    """Counts per depth, keyed by their first ``prefix_len`` step codes,
    and the nodes charged: counts[key][j] is the number of j-step
    extensions of ``head`` that start with ``key`` or, with ``pos_head``
    set, of pairs of a full ``depth``-step negative side starting with
    ``key`` and a j-step positive side.

    The first max(``_SPLIT_DEPTH``, ``prefix_len``) levels, at most
    ``depth``, are walked here (one-sided counts up to the split come from
    this walk) and cut into prefix tasks, run in-process when
    ``workers == 1`` and otherwise on a pool of this call's own.

    With ``reduced``, ``head`` is the tip of a first step along +e1 and
    only the first-turn-reduced tree is walked: the straight run along +e1
    to full depth, and below each of its vertices the turn to +e2, which
    stands for all 2(d-1) turns.  A key then names the walks that start
    with it up to that symmetry: a walk turning inside the key counts once
    and one turning past it 2(d-1) times.  With ``pos_head`` set too, the
    reduced tree is the negative side's, and ``pos_head`` must be fixed by
    the symmetries (the origin).
    """
    budget = _budget(node_budget)
    limit = budget[1]
    split = min(max(_SPLIT_DEPTH, prefix_len), depth)
    size = (depth if pos_head is None else pos_depth) + 1
    counts: dict[tuple, list[int]] = defaultdict(lambda: [0] * size)
    # (key, weight, blocked, head, level); a full-depth one-sided walk has
    # nothing below it, so it is counted here and is no task
    tasks = ([] if split or pos_head is None
             else [((), 1, tuple(blocked), head, 0)])
    codes, occupied = [], set(blocked)
    weight = 1  # the walks each vertex below stands for

    def visit(nxt: int) -> bool:
        if pos_head is None and len(codes) >= prefix_len:
            counts[tuple(codes[:prefix_len])][len(codes)] += weight
        return True

    def leaf(nxt: int) -> None:  # one task below each split vertex
        visit(nxt)
        if pos_head is not None or len(codes) < depth:
            tasks.append((tuple(codes[:prefix_len]), weight, tuple(occupied),
                          nxt, len(codes)))

    visit(head)  # the empty extension
    if reduced:
        turns = len(deltas) - 2
        for nxt in _spine(head, depth, occupied, deltas, budget, codes):
            level = len(codes)
            weight = turns if codes[-1] and level > prefix_len else 1
            if not codes[-1]:
                # the run's own children come from ``_spine``; its full-depth
                # tip is a task when it still has a positive side below
                (leaf if level == depth else visit)(nxt)
            elif level < split:
                visit(nxt)
                _walk(nxt, split - level, occupied, deltas, budget, codes,
                      visit, leaf)
            else:
                leaf(nxt)
    elif split:
        _walk(head, split, occupied, deltas, budget, codes, visit, leaf)

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
                payload = (deltas, *tasks[idx][2:], depth, pos_head,
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
    for idx, (task_counts, _) in done.items():
        key, weight = tasks[idx][:2]
        counts[key] = [a + weight * b for a, b in zip(counts[key], task_counts)]
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return counts, charged


# ---------------------------------------------------------------------------
# public counting operations


def _origin_counts(dimension: int, n: int, *, prefix_len: int = 0,
                   workers: int = 1, node_budget: int | None = None,
                   checkpoint_path: str | None = None) -> dict[tuple, list[int]]:
    """The reduced engine pass over n-step walks from the origin with the
    first step fixed to +e1: counts[key][j] is the number of (j+1)-step
    walks that start with +e1 and then ``key`` up to the first-turn
    symmetry (see ``_run_engine``)."""
    width, origin_key, deltas = _pack_params(dimension, n)
    first = origin_key + deltas[0]
    counts, _ = _run_engine(
        deltas, frozenset((origin_key, first)), first, n - 1,
        prefix_len=prefix_len, reduced=True, workers=workers,
        node_budget=node_budget, checkpoint_path=checkpoint_path,
        # the layout tag keeps a checkpoint of another task list out
        signature=_signature(dimension, "plain", n, prefix_len, "first-turn"),
    )
    return counts


def count_saws(dimension: int, n: int, *, table: CountTable | None = None,
               workers: int = 1, node_budget: int | None = None,
               checkpoint_path: str | None = None) -> int:
    """Exact number of n-step self-avoiding walks from the origin.

    One reduced pass: the first step is fixed to +e1 and the first turn off
    the e1 axis to +e2, and the result multiplied by 2d and 2(d-1) in turn;
    every condition-free count has those symmetries.  The same search
    yields c_k for every k <= n, and all of them go into the table.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    table = table or default_table(dimension)
    cached = table.get("plain", n)
    if cached is not None:
        return cached
    counts = [1]
    if n > 0:
        below = _origin_counts(dimension, n, workers=workers,
                               node_budget=node_budget,
                               checkpoint_path=checkpoint_path)
        counts += [2 * dimension * c for c in below[()]]
    for k, value in enumerate(counts):
        table.put("plain", k, None, value)
    return counts[n]


def endpoint_histogram(dimension: int, n: int, *,
                       table: CountTable | None = None,
                       node_budget: int | None = None) -> dict[Coords, int]:
    """Counts of n-step walks grouped by endpoint, from one reduced pass.

    The pass walks the straight walk and, for each t, the walks that go t
    steps along +e1 and then turn to +e2; each turning walk's endpoint is
    spread over the 2d * 2(d-1) symmetries that send (+e1, +e2) to every
    (first step, first turn) pair.
    """
    table = table or default_table(dimension)
    width, origin_key, deltas = _pack_params(dimension, n)
    out: dict[Coords, int] = defaultdict(int)
    if n == 0:
        out[(0,) * dimension] = 1
    else:
        budget, codes, ends = _budget(node_budget), [], {}
        first = origin_key + deltas[0]
        occupied = {origin_key, first}
        for nxt in _spine(first, n - 1, occupied, deltas, budget, codes):
            level = len(codes) + 1
            if not codes[-1]:
                continue  # the straight walks are added below
            if level == n:
                ends[nxt] = ends.get(nxt, 0) + 1
            else:
                _count_depths(nxt, level, n, occupied, deltas, budget,
                              [0] * (n + 1), ends)
        for delta in deltas:
            out[_unpack(origin_key + n * delta, dimension, width, n)] += 1
        # every image of a point at once: image[m, i] = signs[m, i] *
        # point[perms[m, i]], as SignedPermutation.apply_point
        maps = _first_turn_symmetries(dimension)
        perms = np.array([g.perm for g in maps], dtype=np.intp).reshape(-1, dimension)
        signs = np.array([g.signs for g in maps], dtype=np.int64).reshape(-1, dimension)
        for key, value in ends.items():
            point = np.array(_unpack(key, dimension, width, n))
            for image in (point[perms] * signs).tolist():
                out[tuple(image)] += value
    for coords, value in out.items():
        table.put("end", n, coords, value)
    table.mark_histogram_complete("end", n)
    return dict(out)


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
    counts, _ = _run_engine(
        deltas, blocked, head, n - k, workers=workers,
        node_budget=node_budget, checkpoint_path=checkpoint_path,
        signature=_signature(dimension, "prefix", n, prefix.steps))
    value = counts[()][-1]
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

    With empty ``xi`` the pass walks the negative side's first-turn-reduced
    tree: its first step is fixed to +e1 and its first turn to +e2, and
    every positive side is counted below each reduced negative side, the
    straight one included.  The result is multiplied by 2d.  The count is
    symmetric in the sides, so the longer one is walked as the negative
    side: it has a step to fix for m = 0, and a turn to fix for m = 1 once
    n >= 2.  A nonempty ``xi`` breaks the symmetry, and its pass walks the
    whole tree.
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
    reduced = xi.neg_length == xi.pos_length == 0 < extent
    if reduced:
        neg_head = origin_key + deltas[0]
        blocked, pos_head = frozenset((origin_key, neg_head)), origin_key
        neg_depth, pos_depth = (m - 1, n) if m >= n else (n - 1, m)
        layout = ("first-turn",)
    else:
        blocked = frozenset(_pack(v, width, extent) for v in xi.vertex_set)
        neg_head = _pack(xi.neg.end, width, extent)
        pos_head = _pack(xi.pos.end, width, extent)
        neg_depth, pos_depth = m - xi.neg_length, n - xi.pos_length
        layout = ()
    counts, _ = _run_engine(
        deltas, blocked, neg_head, neg_depth, pos_head=pos_head,
        pos_depth=pos_depth, reduced=reduced, workers=workers,
        node_budget=node_budget, checkpoint_path=checkpoint_path,
        # the layout tag keeps a checkpoint of another task list out
        signature=_signature(dimension, "two_sided", m, n, key, *layout),
    )
    value = (2 * dimension if reduced else 1) * counts[()][-1]
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
    """c_m(zeta) for every zeta in SAW_k, as a codes -> count map.

    One reduced pass, charged as ``count_saws(dimension, m)`` is: the first
    step is fixed to +e1, the first turn to +e2, and each task's count goes
    to the reduced k-prefix its codes start with.  A prefix takes the count
    of its image under the symmetry g sending its first step to +e1 and its
    first turn to +e2, as c_m(g zeta) = c_m(zeta); the pass hands each
    reduced prefix's count to every preimage.
    """
    if k > m:
        raise ValueError("prefix length exceeds walk length")
    table = table or default_table(dimension)
    if k == 0:
        return {b"": count_saws(dimension, m, table=table, workers=workers,
                                node_budget=node_budget)}
    out = {codes: table.get("prefix", m, codes)
           for codes in enumerate_paths(dimension, k)}
    if None in out.values():
        counts = _origin_counts(dimension, m, prefix_len=k - 1,
                                workers=workers, node_budget=node_budget)
        turn_maps = _first_turn_symmetries(dimension)
        for key, below in counts.items():
            if any(key):  # the prefix turns: one image per (step, turn)
                images = [bytes(g.code_table[c] for c in (0, *key))
                          for g in turn_maps]
            else:
                images = [bytes([step]) * k for step in range(2 * dimension)]
            for codes in images:
                out[codes] = below[-1]
        for codes, value in out.items():
            table.put("prefix", m, codes, value)
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

"""Exact enumeration and counting of self-avoiding walks.

A vertex is a packed integer: each coordinate is offset into [0, 2L] and
given a fixed bit field, so a step is one addition.  Packing is lossless
because every reachable coordinate is bounded by the walk extent L.

Two kernels do all the searching.  ``_count_frontier`` counts: it expands
a batch of walks level by level on a numpy frontier, one row of occupied
keys per walk with its tip last, and adds the walks of every depth below
each walk with ``np.bincount``; the last level is counted, never built,
and can be tallied by endpoint.  Its keys take the narrowest signed dtype
that holds d bit fields (int16, int32 or int64), or Python ints past 63
bits, and a frontier past ``_SLICE_KEYS`` keys is expanded depth-first in
slices, so memory stays bounded at any length.  ``_walk`` visits: it keeps
a set of occupied keys and calls one callback at every vertex it adds
above the last level and another at the last level, in lexicographic
order of the step codes; a false return from the first prunes below that
vertex and an exception ends the search.

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
or resumed from a checkpoint.  Each batch of prefix tasks starts with the
nodes left at that moment, and a level that would overrun them charges one
node past them and stops, so a count that runs out stops after about one
budget per worker.  Counts are exact Python integers; optional checkpoints
keep the counts and nodes of every finished prefix task.
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
_SLICE_KEYS = 1 << 16  # most keys in one frontier slice of the count kernel


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
# the two kernels


class _Found(Exception):
    """Raised by a visitor to end a walk early."""


def _budget(node_budget: int | None = None) -> list:
    """The budget list both kernels charge: [nodes left, limit]."""
    limit = _UNLIMITED if node_budget is None else node_budget
    return [limit, limit]


def _key_dtype(dimension: int, width: int):
    """The narrowest signed numpy dtype holding every key below
    2^(dimension * width); ``object`` (Python ints) past 63 bits."""
    bits = dimension * width
    for dtype in (np.int16, np.int32, np.int64):
        if bits < np.iinfo(dtype).bits:
            return dtype
    return object


def _count_frontier(deltas, walk: tuple, tasks, depth: int, budget: list,
                    dtype, *, pos_depth: int | None = None,
                    ends: dict | None = None) -> np.ndarray:
    """tally[i, j]: the number of j-step extensions of ``walk`` below
    task i, for j past the task's level.

    ``walk`` holds the keys of a walk in order, and a task is the step
    codes of a path from its tip; its level is its length.  Tasks are
    expanded level by level on numpy frontiers, one row of keys per walk
    with its tip last; a task's row joins the frontier at its level.  A
    child (tip + step) is free when no key of its row equals it; only keys
    an odd number of steps before the tip are compared, as the others have
    the tip's parity.  The last level is counted, never built.  With
    ``pos_depth`` set, a row that reaches ``depth`` is a full negative
    side: read backwards, it ends at ``walk``'s first key, the positive
    side's head, and goes on ``pos_depth`` more levels from there.  With
    ``ends`` given, ends[v] gains the number of last-level walks ending at
    v.

    A frontier whose children could hold more than ``_SLICE_KEYS`` keys
    is expanded depth-first in slices whose children hold at most about
    that many, so memory stays bounded at any depth.  Each level charges
    its free children to ``budget``; a level that would overrun it charges
    one node past it and raises.
    """
    last = depth + (pos_depth or 0)
    # int64 holds any number of walks a search can visit
    tally = np.zeros((len(tasks), last + 1), dtype=np.int64)
    moves = np.array(deltas, dtype=dtype)

    def step(rows: np.ndarray, owner: np.ndarray, level: int):
        if level == depth and pos_depth is not None:
            rows = rows[:, ::-1]
        kids = rows[:, -1:] + moves
        near = rows[:, -2::-2]
        # a pass per column is several times faster while rows are short;
        # one broadcast keeps long rows (a long prefix) to a few calls
        if near.shape[1] <= len(near):
            free = np.ones(kids.shape, dtype=bool)
            for key in near.T:
                free &= key[:, None] != kids
        else:
            free = (near[:, None, :] != kids[:, :, None]).all(axis=2)
        found = free.sum(axis=1)
        nodes = int(found.sum())
        if nodes > budget[0]:
            budget[0] = -1
            raise BudgetExceededError(budget[1], budget[1] + 1)
        budget[0] -= nodes
        tally[:, level + 1] += np.bincount(owner, weights=found,
                                           minlength=len(tasks)).astype(np.int64)
        if level + 1 == last:
            if ends is not None:
                keys, hits = np.unique(kids[free], return_counts=True)
                for key, hit in zip(keys.tolist(), hits.tolist()):
                    ends[key] = ends.get(key, 0) + hit
            return None
        parent, code = np.nonzero(free)
        children = np.empty((len(parent), rows.shape[1] + 1), dtype=dtype)
        children[:, :-1] = rows[parent]
        children[:, -1] = kids[parent, code]
        return children, owner[parent]

    def descend(rows: np.ndarray, owner: np.ndarray, level: int) -> None:
        per = max(1, _SLICE_KEYS // ((rows.shape[1] + 1) * len(deltas)))
        for lo in range(0, len(rows), per):
            below = step(rows[lo:lo + per], owner[lo:lo + per], level)
            if below is not None:
                descend(*below, level + 1)

    joining = defaultdict(list)
    for idx, codes in enumerate(tasks):
        if len(codes) < last:
            joining[len(codes)].append(idx)
    base = np.array(walk, dtype=dtype)
    rows = owner = None
    for level in range(min(joining, default=last), last):
        if level in joining:
            new_owner = np.array(joining[level], dtype=np.intp)
            codes = np.array([tasks[i] for i in new_owner],
                             dtype=np.intp).reshape(len(new_owner), level)
            new = np.concatenate(
                (np.broadcast_to(base, (len(codes), len(base))),
                 np.cumsum(moves[codes], axis=1, dtype=dtype) + walk[-1]),
                axis=1)
            rows, owner = ((new, new_owner) if rows is None else
                           (np.concatenate((rows, new)),
                            np.concatenate((owner, new_owner))))
        if rows is None:
            continue
        if len(rows) * (rows.shape[1] + 1) * len(deltas) > _SLICE_KEYS:
            descend(rows, owner, level)
            rows = owner = None
        else:
            below = step(rows, owner, level)
            rows, owner = below if below is not None else (None, None)
    return tally


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


def _count_task(payload):
    """(counts per depth, nodes charged) per task of one batch, as arrays,
    and the nodes the batch charged; the arrays are None when the batch
    ran past the ``nodes_left`` it was given."""
    deltas, walk, dtype, tasks, depth, pos_depth, nodes_left = payload
    budget = _budget(nodes_left)
    try:
        tally = _count_frontier(deltas, walk, tasks, depth, budget, dtype,
                                pos_depth=pos_depth)
    except BudgetExceededError:
        return None, nodes_left - budget[0]
    nodes = tally.sum(axis=1)
    if pos_depth is None:
        return (tally, nodes), nodes_left - budget[0]
    counts = tally[:, depth:]  # counts[:, 0] holds the full negative sides
    counts[:, 0] += [len(codes) == depth for codes in tasks]  # tasks too
    return (counts, nodes), nodes_left - budget[0]


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


def _run_engine(deltas, walk: tuple, head: int, depth: int, *, dtype,
                pos_depth: int | None = None,
                prefix_len: int = 0, reduced: bool = False, workers: int = 1,
                node_budget: int | None = None,
                checkpoint_path: str | None = None,
                signature: str = "") -> tuple[dict[tuple, list[int]], int]:
    """Counts per depth, keyed by their first ``prefix_len`` step codes,
    and the nodes charged: counts[key][j] is the number of j-step
    extensions of ``walk``, the keys of a walk ending at ``head``, that
    start with ``key``.  With ``pos_depth`` set, it is the number of pairs
    of a full ``depth``-step negative side extending ``walk`` and starting
    with ``key``, and a j-step positive side from ``walk``'s first key.

    The first max(``_SPLIT_DEPTH``, ``prefix_len``) levels, at most
    ``depth``, are walked here (one-sided counts up to the split come from
    this walk) and cut into prefix tasks.  ``_count_frontier`` counts
    below them on keys of ``dtype``, in batches run in-process when
    ``workers == 1`` and otherwise on a pool of this call's own: one task
    per batch when a checkpoint is kept, so that a stopped count keeps its
    finished tasks, and else the whole task list in one batch, or four
    interleaved batches per worker on a pool.

    With ``reduced``, ``head`` is the tip of a first step along +e1 and
    only the first-turn-reduced tree is walked: the straight run along +e1
    to full depth, and below each of its vertices the turn to +e2, which
    stands for all 2(d-1) turns.  A key then names the walks that start
    with it up to that symmetry: a walk turning inside the key counts once
    and one turning past it 2(d-1) times.  With ``pos_depth`` set too, the
    reduced tree is the negative side's, and ``walk`` must start at a
    vertex the symmetries fix (the origin).
    """
    budget = _budget(node_budget)
    limit = budget[1]
    split = min(max(_SPLIT_DEPTH, prefix_len), depth)
    size = (depth if pos_depth is None else pos_depth) + 1
    counts: dict[tuple, list[int]] = defaultdict(lambda: [0] * size)
    # (key, weight, codes of the path from ``head``); a full-depth
    # one-sided walk has nothing below it, so it is counted here and is no
    # task
    tasks = [] if split or pos_depth is None else [((), 1, ())]
    codes, occupied = [], set(walk)
    weight = 1  # the walks each vertex below stands for

    def visit(nxt: int) -> bool:
        if pos_depth is None and len(codes) >= prefix_len:
            counts[tuple(codes[:prefix_len])][len(codes)] += weight
        return True

    def leaf(nxt: int) -> None:  # one task below each split vertex
        visit(nxt)
        if pos_depth is not None or len(codes) < depth:
            tasks.append((tuple(codes[:prefix_len]), weight, tuple(codes)))

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
    todo = [i for i in range(len(tasks)) if i not in done]
    many = (len(todo) if checkpoint_path is not None
            else 1 if workers == 1 else 4 * workers)
    batches = iter([todo[i::many] for i in range(min(many, len(todo)))])

    # (task indices, their counts per depth): the loaded and the finished
    finished = [(list(done), [task_counts for task_counts, _ in done.values()])]

    def record(batch: list[int], result, used: int) -> int:
        if result is None:
            return used
        finished.append((batch, result[0]))
        if checkpoint_path is not None:
            for idx, *entry in zip(batch, *(part.tolist() for part in result)):
                done[idx] = entry
                if len(done) % _CHECKPOINT_EVERY == 0:
                    _save_checkpoint(checkpoint_path, signature, done)
        return used

    pool = (ProcessPoolExecutor(max_workers=workers)
            if workers > 1 and len(done) < len(tasks) else None)
    running: dict[Future, list[int]] = {}
    try:
        while True:
            # each batch gets the nodes left when it starts, and at most one
            # per worker runs: a count that runs out stops after about one
            # budget per worker
            while charged <= limit and len(running) < workers:
                batch = next(batches, None)
                if batch is None:
                    break
                payload = (deltas, walk, dtype, [tasks[i][2] for i in batch],
                           depth, pos_depth, limit - charged)
                if pool is None:
                    charged += record(batch, *_count_task(payload))
                else:
                    running[pool.submit(_count_task, payload)] = batch
            if not running:
                break
            ready, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in ready:
                charged += record(running.pop(fut), *fut.result())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if charged > limit:
        if checkpoint_path is not None:
            _save_checkpoint(checkpoint_path, signature, done)
        raise BudgetExceededError(limit, charged, checkpoint_path)
    order = [idx for batch, _ in finished for idx in batch]
    if order:  # weight each task's counts and add them up per key
        task_counts = np.concatenate([
            np.asarray(part, dtype=np.int64).reshape(-1, size)
            for _, part in finished])
        weights = np.array([tasks[idx][1] for idx in order], dtype=np.int64)
        weighted = task_counts * weights[:, None]
        keys: dict[tuple, int] = {}
        ids = np.array([keys.setdefault(tasks[idx][0], len(keys))
                        for idx in order])
        for key, kid in keys.items():
            row = weighted[ids == kid].sum(axis=0).tolist()
            counts[key] = [a + b for a, b in zip(counts[key], row)]
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
        deltas, (origin_key, first), first, n - 1,
        dtype=_key_dtype(dimension, width), prefix_len=prefix_len, reduced=True, workers=workers,
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
        turns = []  # the codes of each turn off the straight run
        for nxt in _spine(first, n - 1, occupied, deltas, budget, codes):
            if not codes[-1]:
                continue  # the straight walks are added below
            if len(codes) == n - 1:
                ends[nxt] = ends.get(nxt, 0) + 1
            else:
                turns.append(tuple(codes))
        _count_frontier(deltas, (origin_key, first), turns, n - 1, budget,
                        _key_dtype(dimension, width), ends=ends)
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
    walk = tuple(_pack(v, width, n) for v in anchored.vertices)
    counts, _ = _run_engine(
        deltas, walk, walk[-1], n - k, dtype=_key_dtype(dimension, width),
        workers=workers,
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
        walk = (origin_key, origin_key + deltas[0])
        neg_depth, pos_depth = (m - 1, n) if m >= n else (n - 1, m)
        layout = ("first-turn",)
    else:  # the middle from its positive end to its negative end
        walk = tuple(_pack(v, width, extent) for v in reversed(xi.vertices))
        neg_depth, pos_depth = m - xi.neg_length, n - xi.pos_length
        layout = ()
    counts, _ = _run_engine(
        deltas, walk, walk[-1], neg_depth,
        dtype=_key_dtype(dimension, width), pos_depth=pos_depth, reduced=reduced, workers=workers,
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

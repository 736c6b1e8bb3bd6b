"""Exact enumeration and counting of self-avoiding walks.

A vertex is a key sum(x_i * base**i), centred at the origin, so a step is
one addition (``_moves``).  A count within distance L of the origin takes
base 2L+1 and the narrowest signed dtype holding its keys (int16, int32 or
int64; Python ints past int64); the samplers' draws take one of three
fixed bases, one per dtype (``sampling._packing``), by the same rule.

One extend step (``_free_steps``, ``_grow``) builds every frontier: rows
of keys, one walk per row with its tip last, extended by the 2d moves,
each new tip compared only with the keys of opposite parity.  The count
kernel ``_count_frontier`` expands batches of walks level by level and
tallies the walks of every depth below each with ``np.bincount``; the
last level is counted, never built, and can be tallied by endpoint or by
pattern occurrence.  Frontiers past ``_SLICE_KEYS`` keys are expanded
depth-first in slices, so memory stays bounded.  ``_frontiers`` builds
levels with their step codes in lexicographic order, for a count's prefix
split, ``enumerate_paths`` and the samplers' one code table per (d, n)
(``sampling._base_codes``), and builds no keys for the last.  Only the
early-exit searches (``has_extension``,
``patterns.is_proper_internal_pattern``) walk depth-first in Python.

Every condition-free pass from the origin (``count_saws``,
``prefix_histogram``, ``endpoint_histogram``,
``patterns.exact_mean_density_grid``) walks the first-turn-reduced tree:
the first step is fixed to +e1 and the first step off the e1 axis to +e2,
so a walk that turns stands for 2(d-1) walks, on top of the 2d first
steps; the straight row takes only codes 0 and 2.  An empty-middle
``count_two_sided`` walks the negative side's reduced tree and every
positive side below it.  Passes under a prefix, an endpoint or a nonempty
middle walk their whole tree.

A node is one vertex of the tree a pass walks.  A node budget charges
every vertex a frontier adds, the prefix split included, so a count fits
it or raises ``BudgetExceededError`` the same way serially, on a process
pool or resumed from a checkpoint.  Each batch of prefix tasks starts with
the nodes left at that moment, and a level that would overrun them
charges one node past them and stops, so a count that runs out stops
after about one budget per worker.  Counts are exact Python integers;
optional checkpoints keep the counts and nodes of every finished task.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import BudgetExceededError, CheckpointIgnoredWarning
from .lattice import (Coords, LatticePoint, Path, TwoSidedPath,
                      _first_turn_symmetries, direction_vectors,
                      empty_two_sided)

_UNLIMITED = 1 << 62
_SPLIT_DEPTH = 3  # prefix length at which a count is cut into tasks
_CHECKPOINT_EVERY = 32  # finished tasks between checkpoint writes
_SLICE_KEYS = 1 << 16  # most keys in one frontier slice of the count kernel


class CountTable:
    """Exact count cache keyed by (kind, n, condition key).

    ``kind`` is one of ``plain``, ``end``, ``prefix``, ``two_sided``.  An
    optional store (anything with ``get``/``put_many`` over the same keys)
    makes the table read-through/write-through.
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
        self.put_many([(kind, n, key, value)])

    def put_many(self, entries) -> None:
        """Store (kind, n, key, value) entries, handing a pass to the store
        in one call."""
        entries = list(entries)
        for kind, n, key, value in entries:
            self._entries[(kind, n, key)] = value
        if self.store is not None:
            self.store.put_many(self.dimension, entries)

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
# vertex keys and the extend step


@lru_cache(maxsize=256)
def _moves(dimension: int, base: int) -> np.ndarray:
    """The key move of each step code under keys sum(x_i * base**i): code
    2a adds base**a, 2a+1 subtracts it.  Keys are injective on coordinates
    with 2|x_i| + 1 <= base and lie within +-(base**dimension - 1) / 2, so
    the moves take the narrowest signed dtype holding that (``object`` past
    int64).  Shared, so read-only."""
    span = base ** dimension
    dtype = next((t for t in (np.int16, np.int32, np.int64)
                  if span < 1 << np.iinfo(t).bits), object)
    moves = np.array([sign * base ** axis for axis in range(dimension)
                      for sign in (1, -1)], dtype=dtype)
    moves.flags.writeable = False
    return moves


def _walk_keys(moves, steps) -> tuple:
    """The keys (Python ints) of the origin-anchored walk with step codes
    ``steps``."""
    return tuple(accumulate((int(moves[c]) for c in steps), initial=0))


def _free_steps(rows: np.ndarray, moves: np.ndarray):
    """(kids, free) for rows of keys, each a walk with its tip last:
    kids[i, c] is row i's tip moved by step code c, and free where no key
    of the row equals it.  Only keys an odd number of steps before the tip
    are compared, as the others have the tip's parity."""
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
    return kids, free


def _grow(rows: np.ndarray, kids: np.ndarray, free: np.ndarray):
    """The free one-step extensions of ``rows`` (see ``_free_steps``) in
    lexicographic order: (parent row, step code, keys) of each."""
    parent, code = np.nonzero(free)  # row-major: parent, then code
    children = np.empty((len(parent), rows.shape[1] + 1), dtype=rows.dtype)
    children[:, :-1] = rows[parent]
    children[:, -1] = kids[parent, code]
    return parent, code, children


def _frontiers(moves: np.ndarray, walk: tuple, levels: int,
               budget: list | None = None, first_turn: bool = False):
    """Yield the step codes (rows, j) of the walks j = 0 .. ``levels`` steps
    past ``walk`` (its keys in order) in lexicographic order, each level the
    free one-step extensions of the last, charged to ``budget`` if given;
    the last level's keys are never built.  With ``first_turn``, row 0 is
    the straight run along +e1 of a first-turn-reduced tree: it goes on or
    turns to +e2."""
    rows = np.array([walk], dtype=moves.dtype)
    codes = np.zeros((1, 0), dtype=np.uint8)
    yield codes
    for level in range(1, levels + 1):
        kids, free = _free_steps(rows, moves)
        if first_turn and len(free):
            free[0, 1] = free[0, 3:] = False
        if budget is not None:
            _charge(budget, int(np.count_nonzero(free)))
        if level < levels:
            parent, code, rows = _grow(rows, kids, free)
        else:
            parent, code = np.nonzero(free)
        grown = np.empty((len(parent), level), dtype=np.uint8)
        grown[:, :-1] = codes[parent]
        grown[:, -1] = code
        codes = grown
        yield codes


# ---------------------------------------------------------------------------
# the two kernels


class _Found(Exception):
    """Raised by a visitor to end a walk early."""


def _budget(node_budget: int | None = None) -> list:
    """The budget list both kernels charge: [nodes left, limit]."""
    limit = _UNLIMITED if node_budget is None else node_budget
    return [limit, limit]


def _charge(budget: list, nodes: int) -> None:
    """Charge ``nodes`` to ``budget``; nodes that would overrun it charge
    one node past it and raise."""
    if nodes > budget[0]:
        budget[0] = -1
        raise BudgetExceededError(budget[1], budget[1] + 1)
    budget[0] -= nodes


def _count_frontier(moves: np.ndarray, walk: tuple, tasks: np.ndarray,
                    depth: int, budget: list, *, pos_depth: int | None = None,
                    run: bool = False, ends: dict | None = None,
                    windows: tuple | None = None) -> np.ndarray:
    """tally[i, j]: the number of j-step extensions of ``walk`` below task
    i, for j past the tasks' level, and in row len(tasks) (with ``run``)
    of those that turn off the run.

    ``walk`` holds the keys of a walk in order, and the tasks, a (T, level)
    array, the step codes of paths from its tip.  They are expanded level
    by level, one row of keys per walk with its tip last (``_free_steps``);
    the last level is counted, never built.  With ``run``, ``walk`` starts
    at the origin and task 0 is the straight walk along +e1 of a
    first-turn-reduced tree: on the negative side its row takes only codes
    0 and 2, and the turn leaves the task for row len(tasks).  With
    ``pos_depth`` set, a row that reaches ``depth`` is a full negative
    side: read backwards, it ends at ``walk``'s first key, the positive
    side's head, and goes on ``pos_depth`` more levels from there.  With
    ``ends``, ends[v] gains the number of last-level walks ending at v.
    With ``windows`` = (ids, weights, k, totals), totals[i, j] gains the
    occurrences in the walks of tally[i, j], where the window of k codes
    (past ``walk``) with base-2d id ids[m], newest code last, occurs
    weights[m] times; each row carries its newest window's id and its
    running count.

    A frontier whose children could hold more than ``_SLICE_KEYS`` keys
    is expanded depth-first in slices of about that many, so memory stays
    bounded at any depth.  Each level charges its free children to
    ``budget`` (``_charge``).
    """
    last = depth + (pos_depth or 0)
    count, level = tasks.shape
    # int64 holds any number of walks a search can visit
    tally = np.zeros((count + 1, last + 1), dtype=np.int64)
    q = len(moves)
    if windows is not None:
        ids, weights, k, totals = windows
        shift = q ** (k - 1)  # a window's id less its oldest code

        def occurring(win):
            at = np.minimum(np.searchsorted(ids, win), len(ids) - 1)
            return np.where(ids[at] == win, weights[at], 0)

    def step(rows, owner, marks, level):
        if level == depth and pos_depth is not None:
            rows = rows[:, ::-1]
        kids, free = _free_steps(rows, moves)
        on_run = run and q > 2 and level < depth and owner[0] == 0
        if on_run:  # row 0 is the run: it goes on or turns to +e2
            free[0, 1] = free[0, 3:] = False

        def add(table, per_row, turn):  # the run's turn is row count's
            table[:, level + 1] += np.bincount(owner, per_row, count + 1).astype(
                np.int64)
            if on_run:
                table[[0, count], level + 1] += (-turn, turn)

        found = free.sum(axis=1)
        _charge(budget, int(found.sum()))
        add(tally, found, 1)
        if windows is not None:
            kid_win = (marks[0] % shift)[:, None] * q + np.arange(q)
            kid_occ = marks[1][:, None] + occurring(kid_win) * (level + 1 >= k)
            add(totals, (kid_occ * free).sum(axis=1), kid_occ[0, 2])
        if level + 1 == last:
            if ends is not None:
                keys, hits = np.unique(kids[free], return_counts=True)
                for key, hit in zip(keys.tolist(), hits.tolist()):
                    ends[key] = ends.get(key, 0) + hit
            return None
        parent, code, children = _grow(rows, kids, free)
        heirs = owner[parent]
        if on_run:
            heirs[1] = count  # the turn is child 1, after the run's own
        if windows is not None:
            marks = (kid_win[parent, code], kid_occ[parent, code])
        return children, heirs, marks

    def descend(rows, owner, marks, level) -> None:
        per = max(1, _SLICE_KEYS // ((rows.shape[1] + 1) * q))
        for lo in range(0, len(rows), per):
            below = step(rows[lo:lo + per], owner[lo:lo + per],
                         tuple(m[lo:lo + per] for m in marks), level)
            if below is not None:
                descend(*below, level + 1)

    if count and level < last:
        marks = ()
        if windows is not None:  # the windows inside the tasks' own codes
            win, occ = np.zeros((2, count), dtype=np.int64)
            for j in range(level):
                win = win % shift * q + tasks[:, j]
                occ += occurring(win) * (j + 1 >= k)
            marks = (win, occ)
        descend(np.concatenate(
            (np.broadcast_to(np.array(walk, dtype=moves.dtype),
                             (count, len(walk))),
             np.cumsum(moves[tasks], axis=1, dtype=moves.dtype) + walk[-1]),
            axis=1), np.arange(count), marks, level)
    return tally


def _walk(head: int, depth: int, occupied: set, moves, budget: list,
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
    for code, move in enumerate(moves):
        nxt = head + move
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
            _walk(nxt, depth - 1, occupied, moves, budget, codes, visit, leaf)
        occupied.discard(nxt)
        codes.pop()


def _stop(nxt: int) -> None:
    """A ``leaf`` callback that ends the walk at the first full extension."""
    raise _Found


# ---------------------------------------------------------------------------
# prefix tasks, parallel reduction, checkpoints


def _count_task(payload):
    """(counts per depth, nodes charged) per task of one batch, as arrays,
    and the nodes the batch charged; the arrays are None when the batch
    ran past the ``nodes_left`` it was given.  The walks turning off the
    run are counted into the run's task 2(d-1) times (see
    ``_count_frontier``)."""
    moves, walk, tasks, depth, pos_depth, run, nodes_left = payload
    budget = _budget(nodes_left)
    try:
        tally = _count_frontier(moves, walk, tasks, depth, budget,
                                pos_depth=pos_depth, run=run)
    except BudgetExceededError:
        return None, nodes_left - budget[0]
    nodes = tally[:-1].sum(axis=1)
    nodes[0] += tally[-1].sum()
    tally[0] += (len(moves) - 2) * tally[-1]
    if pos_depth is None:
        return (tally[:-1], nodes), nodes_left - budget[0]
    counts = tally[:-1, depth:]  # counts[:, 0] holds the full negative sides
    counts[:, 0] += tasks.shape[1] == depth  # the tasks too, when they are
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


# the task layout of first-turn-reduced passes: the frontier's walks at the
# split, in lexicographic order; the tag keeps a checkpoint of another
# layout out
_REDUCED_LAYOUT = "first-turn-lexicographic"


def _signature(*parts) -> str:
    return hashlib.sha256(repr((_SPLIT_DEPTH, *parts)).encode()).hexdigest()[:16]


def _by_key(codes: np.ndarray, prefix_len: int, values: np.ndarray) -> dict:
    """``values`` (one entry per row of ``codes``) summed per key, the
    tuple of a row's first ``prefix_len`` codes."""
    if not prefix_len:
        return {(): values.sum(axis=0)}
    keys, inverse = np.unique(codes[:, :prefix_len], axis=0,
                              return_inverse=True)
    sums = np.zeros((len(keys),) + values.shape[1:], dtype=values.dtype)
    np.add.at(sums, inverse.ravel(), values)
    return dict(zip(map(tuple, keys.tolist()), sums))


def _run_engine(moves: np.ndarray, walk: tuple, depth: int,
                pos_depth: int | None, *, prefix_len: int = 0,
                reduced: bool = False, workers: int = 1,
                node_budget: int | None = None,
                checkpoint_path: str | None = None,
                signature: str = "") -> tuple[dict[tuple, list[int]], int]:
    """Counts per depth, keyed by their first ``prefix_len`` step codes,
    and the nodes charged: counts[key][j] is the number of j-step
    extensions of ``walk`` (its keys under ``moves``, in order) that start
    with ``key``.  With ``pos_depth`` set, it is the number of pairs of a
    full ``depth``-step negative side extending ``walk`` and starting with
    ``key``, and a j-step positive side from ``walk``'s first key.

    The first max(``_SPLIT_DEPTH``, ``prefix_len``) levels, at most
    ``depth``, are built here (``_frontiers``; one-sided counts up to the
    split come from them), and the walks of the last are the tasks, in
    lexicographic order.  ``_count_frontier`` counts below them, in
    batches run in-process when ``workers == 1`` and otherwise on a pool
    of this call's own: one task per batch when a checkpoint is kept, so
    that a stopped count keeps its finished tasks, and else the whole
    task list in one batch, or four interleaved batches per worker.

    With ``reduced``, ``walk`` is the first step along +e1 from the origin
    and only the first-turn-reduced tree is walked: the straight run (task
    0) goes on or turns to +e2, which stands for all 2(d-1) turns.  A key
    then names the walks that start with it up to that symmetry: a walk
    turning inside the key counts once and one turning past it 2(d-1)
    times.
    """
    budget = _budget(node_budget)
    limit = budget[1]
    split = min(max(_SPLIT_DEPTH, prefix_len), depth)
    size = (depth if pos_depth is None else pos_depth) + 1
    counts: dict[tuple, list[int]] = defaultdict(lambda: [0] * size)
    levels = list(_frontiers(moves, walk, split, budget, reduced))

    def weights(codes: np.ndarray) -> np.ndarray:
        """The walks each row of ``codes`` stands for."""
        if not reduced:
            return np.ones(len(codes), dtype=np.int64)
        past = codes.any(axis=1) & ~codes[:, :prefix_len].any(axis=1)
        return np.where(past, len(moves) - 2, 1)

    if pos_depth is None:
        for level in range(prefix_len, split + 1):
            for key, value in _by_key(levels[level], prefix_len,
                                      weights(levels[level])).items():
                counts[key][level] += int(value)
    tasks = levels[split]
    if split == depth and pos_depth is None:
        tasks = tasks[:0]  # a full-depth one-sided walk has nothing below it

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

    pool = None
    if workers > 1 and len(done) < len(tasks):
        # imported here: the process pool pulls in multiprocessing, which a
        # serial count never needs
        from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                        wait)
        pool = ProcessPoolExecutor(max_workers=workers)
    running: dict = {}  # future -> its batch
    try:
        while True:
            # each batch gets the nodes left when it starts, and at most one
            # per worker runs: a count that runs out stops after about one
            # budget per worker
            while charged <= limit and len(running) < workers:
                batch = next(batches, None)
                if batch is None:
                    break
                payload = (moves, walk, tasks[batch], depth, pos_depth,
                           reduced and batch[0] == 0, limit - charged)
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
        codes = tasks[order]
        for key, row in _by_key(codes, prefix_len,
                                task_counts * weights(codes)[:, None]).items():
            counts[key] = [a + b for a, b in zip(counts[key], row.tolist())]
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
    moves = _moves(dimension, 2 * n + 1)
    counts, _ = _run_engine(
        moves, (0, int(moves[0])), n - 1, None, prefix_len=prefix_len,
        reduced=True, workers=workers, node_budget=node_budget,
        checkpoint_path=checkpoint_path,
        signature=_signature(dimension, "plain", n, prefix_len, _REDUCED_LAYOUT),
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
    table.put_many(("plain", k, None, value) for k, value in enumerate(counts))
    return counts[n]


def endpoint_histogram(dimension: int, n: int, *,
                       table: CountTable | None = None,
                       node_budget: int | None = None) -> dict[Coords, int]:
    """Counts of n-step walks grouped by endpoint, from one reduced pass.

    The pass walks the first-turn-reduced tree (see ``_run_engine``): the
    walks along +e1 that turn to +e2, cut into tasks at ``_SPLIT_DEPTH``
    as counts are, and the straight walk.  Each turning walk's endpoint is
    spread over the 2d * 2(d-1) symmetries that send (+e1, +e2) to every
    (first step, first turn) pair, and the 2d straight walks are added.
    """
    table = table or default_table(dimension)
    out: dict[Coords, int] = defaultdict(int)
    if n == 0:
        out[(0,) * dimension] = 1
    else:
        for step in direction_vectors(dimension):
            out[tuple(n * c for c in step)] += 1  # the straight walks
    if n > 1:
        moves = _moves(dimension, 2 * n + 1)
        walk, budget, ends = (0, int(moves[0])), _budget(node_budget), {}
        *_, tasks = _frontiers(moves, walk, min(_SPLIT_DEPTH, n - 2), budget,
                               first_turn=True)
        _count_frontier(moves, walk, tasks, n - 1, budget, run=True, ends=ends)
        del ends[n * int(moves[0])]  # the straight walk's
        # a key's coordinates are its balanced base-(2n+1) digits; every
        # image of a point at once: image[m, i] = signs[m, i] *
        # point[perms[m, i]], as SignedPermutation.apply_point
        base, half = 2 * n + 1, ((2 * n + 1) ** dimension - 1) // 2
        maps = _first_turn_symmetries(dimension)
        perms = np.array([g.perm for g in maps], dtype=np.intp).reshape(-1, dimension)
        signs = np.array([g.signs for g in maps], dtype=np.int64).reshape(-1, dimension)
        for key, value in ends.items():
            point = np.array([(key + half) // base ** axis % base - n
                              for axis in range(dimension)])
            for image in (point[perms] * signs).tolist():
                out[tuple(image)] += value
    table.put_many(("end", n, coords, value) for coords, value in out.items())
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
    moves = _moves(dimension, 2 * n + 1)
    counts, _ = _run_engine(
        moves, _walk_keys(moves, prefix.steps), n - k, None, workers=workers,
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
    moves = _moves(dimension, 2 * (len(steps) + extra_steps) + 1).tolist()
    walk = _walk_keys(moves, steps)
    try:
        _walk(walk[-1], extra_steps, set(walk), moves, _budget(), [], None,
              _stop)
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
    moves = _moves(dimension, 2 * (m + n) + 1)
    reduced = xi.neg_length == xi.pos_length == 0 < m + n
    if reduced:
        walk = (0, int(moves[0]))
        neg_depth, pos_depth = (m - 1, n) if m >= n else (n - 1, m)
        layout = (_REDUCED_LAYOUT,)
    else:  # the middle from its positive end to its negative end
        walk = (_walk_keys(moves, xi.pos.steps)[::-1]
                + _walk_keys(moves, xi.neg.steps)[1:])
        neg_depth, pos_depth = m - xi.neg_length, n - xi.pos_length
        layout = ()
    counts, _ = _run_engine(
        moves, walk, neg_depth, pos_depth, reduced=reduced, workers=workers,
        node_budget=node_budget, checkpoint_path=checkpoint_path,
        signature=_signature(dimension, "two_sided", m, n, key, *layout),
    )
    value = (2 * dimension if reduced else 1) * counts[()][-1]
    table.put("two_sided", m + n, key, value)
    return value


def enumerate_paths(dimension: int, n: int, prefix: Path | None = None) -> list[bytes]:
    """All n-step walks (optionally with a forced prefix) as step codes.

    Canonical order: lexicographic in direction codes.  The walks are
    built level by level past the prefix (``_frontiers``).
    """
    steps = b"" if prefix is None else prefix.steps
    if len(steps) > n:
        raise ValueError("prefix longer than requested length")
    moves = _moves(dimension, 2 * n + 1)
    *_, codes = _frontiers(moves, _walk_keys(moves, steps), n - len(steps))
    if steps:
        full = np.empty((len(codes), n), dtype=np.uint8)
        full[:, :len(steps)] = np.frombuffer(steps, dtype=np.uint8)
        full[:, len(steps):] = codes
        codes = full
    # a void view hands each row out as bytes at once
    return codes.view(f"V{n}").ravel().tolist() if n else [b""]


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
        table.put_many(("prefix", m, codes, value)
                       for codes, value in out.items())
    return out


def truncated_two_point(dimension: int, point: Coords | LatticePoint,
                        max_length: int, mu_hat: float, *,
                        table: CountTable | None = None,
                        node_budget: int | None = None) -> float:
    """Partial two-point sum: sum of c_n(x) * mu_hat^-n for n <= max_length."""
    if max_length < 0:
        raise ValueError("length must be nonnegative")
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
    if n_max < 0:
        raise ValueError("length must be nonnegative")
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

"""Spans around the public functions of each sawlab module, from outside the package.

The tracer wraps every public function where its name is looked up, so it
needs no change to ``src/sawlab``.  The modules import each other's functions
with ``from .x import y``, so ``count_saws`` is bound in ``sawlab.counting``,
``sawlab.cli``, ``sawlab.spectral``, ``sawlab.patterns`` and the ``sawlab``
package itself; each of those bindings is replaced by the same wrapper.
Methods are patched on their class, so calls through ``self`` are traced too.

A wrapped function that is already running records no span for a nested call
of itself: ``SawSampler.uniform`` recurses, and only its outermost call is
one draw.

Spans stay in memory while the job runs and are written out when it ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# Package modules, each one layer.  ``cli`` is the operation boundary and is
# spanned by the job itself; ``reference`` and ``verify`` are the oracles the
# checks use, so they are never wrapped.
LAYERS = ("counting", "spectral", "sampling", "coupling", "patterns",
          "lattice", "store")
ORACLES = ("sawlab.reference", "sawlab.verify")

# Public methods of exported classes that carry layer work.  Names that a
# later version of the package no longer has are skipped.
METHODS = {
    "sampling": {"SawSampler": ("uniform", "two_sided", "escaping",
                                "prefix_conditioned", "uniform_batch")},
    "store": {
        "CountCache": ("__init__", "get", "put"),
        "CorpusWriter": ("__init__", "write", "close"),
        "ArtifactWriter": ("write_json", "write_jsonl", "write_csv",
                           "reserve", "finalize"),
    },
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)


def _walks(result) -> int:
    """Number of walks a counting result stands for."""
    if isinstance(result, bool):
        return 0
    if isinstance(result, int):
        return result
    if isinstance(result, dict):
        return sum(v for v in result.values() if isinstance(v, int))
    if isinstance(result, list):
        return len(result)
    return sum(getattr(row, "count", 0) for row in getattr(result, "rows", ()))


def _observe_walks(info, args, result):
    info["walks"] = _walks(result)


def _observe_batch(info, args, result):
    stats = args[0].last_batch_stats
    info.update(walks=int(result.shape[0]), attempts=stats.attempts,
                accepted=stats.accepted)


def _observe_coupling(info, args, result):
    info.update(blocks=len(result.records),
                failures=sum(not r.success for r in result.records),
                resamples=sum(r.resamples for r in result.records))


# Counters read off a call's arguments and result, keyed by span name.
OBSERVERS = {
    "spectral.build_escape_matrix":
        lambda info, args, result: info.update(pairs=result.full_size ** 2),
    "spectral.perron_fixed_point":
        lambda info, args, result: info.update(iters=result.iterations),
    "sampling.SawSampler.uniform_batch": _observe_batch,
    "coupling.run_one_sided_coupling": _observe_coupling,
    "coupling.run_two_sided_coupling": _observe_coupling,
}


class Tracer:
    """Records spans for one job; ``enabled`` turns recording off for checks."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._running: Counter = Counter()

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, layer, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span the caller opens itself, around a ``with`` block."""
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        observe = OBSERVERS.get(name)
        if layer == "counting":
            observe = _observe_walks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._running[name]:
                return fn(*args, **kwargs)
            tracer._running[name] += 1
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                tracer._running[name] -= 1
            if observe is not None:
                observe(span.info, args, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap the package's public functions and layer methods; returns
        how many bindings were replaced."""
        package = sys.modules["sawlab"]
        wrappers = {}
        for attr in dir(package):
            fn = getattr(package, attr)
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            layer = fn.__module__.rpartition(".")[2]
            if layer in LAYERS:
                wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{attr}", layer))
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sawlab" and not mod_name.startswith("sawlab."):
                continue
            if mod_name in ORACLES:
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    replaced += 1
        for layer, classes in METHODS.items():
            module = sys.modules[f"sawlab.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        name = f"{layer}.{cls_name}.{meth}"
                        setattr(cls, meth, self.wrap(fn, name, layer))
                        replaced += 1
        return replaced

    def write(self, path: str) -> None:
        """Append the spans as JSON lines: name, layer, start, end, parent
        (index within this run), run id and counters."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "name": span.name, "layer": span.layer,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "info": span.info,
                }, sort_keys=True) + "\n")


def _top_time(spans: list[Span], names: set[str]) -> float:
    """Wall time covered by spans with these names, nested ones counted once."""
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            total += span.end - span.start
    return total


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer work, busy time and ratios from one job's spans.

    Self time is a span's duration minus the time its child spans cover.
    """
    self_time: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
    calls: Counter = Counter()
    info: dict[str, Counter] = defaultdict(Counter)
    counting_walks = 0
    under_counting = [False] * len(spans)
    for idx, span in enumerate(spans):
        self_time[span.layer] += span.end - span.start - children[idx]
        calls[span.name] += 1
        info[span.name].update(span.info)
        if span.parent is not None:
            up = spans[span.parent]
            under_counting[idx] = up.layer == "counting" or under_counting[span.parent]
        if span.layer == "counting" and not under_counting[idx]:
            counting_walks += span.info.get("walks", 0)

    def t(*names):
        return _top_time(spans, set(names))

    def total(names, key):
        return sum(info[n][key] for n in names)

    uniform, batch = "sampling.SawSampler.uniform", "sampling.SawSampler.uniform_batch"
    one, two = "coupling.run_one_sided_coupling", "coupling.run_two_sided_coupling"
    build, perron = "spectral.build_escape_matrix", "spectral.perron_fixed_point"
    writer = [f"store.CorpusWriter.{m}" for m in METHODS["store"]["CorpusWriter"]]
    artifacts = [f"store.ArtifactWriter.{m}"
                 for m in METHODS["store"]["ArtifactWriter"]]
    blocks = total((one, two), "blocks")
    attempts = info[batch]["attempts"]
    return {
        "counting.busy_s": self_time["counting"],
        "counting.calls": sum(c for n, c in calls.items()
                              if n.startswith("counting.")),
        "counting.walks_per_s": _rate(counting_walks, self_time["counting"]),
        "spectral.build_s": t(build),
        "spectral.pairs_per_s": _rate(info[build]["pairs"], t(build)),
        "spectral.power_s": t(perron),
        "spectral.power_iters": info[perron]["iters"],
        "spectral.marginal_s": t("spectral.compare_to_marginal"),
        "sampling.scalar_walks": calls[uniform],
        "sampling.scalar_walks_per_s": _rate(calls[uniform], t(uniform)),
        "sampling.escaping_s": t("sampling.SawSampler.escaping"),
        "sampling.batch_walks": info[batch]["walks"],
        "sampling.batch_walks_per_s": _rate(info[batch]["walks"], t(batch)),
        "sampling.batch_acceptance": _rate(info[batch]["accepted"], attempts),
        "coupling.trials": calls[one] + calls[two],
        "coupling.trials_per_s": _rate(calls[one], t(one)),
        "coupling.two_sided_trials_per_s": _rate(calls[two], t(two)),
        "coupling.block_failure_frac": _rate(total((one, two), "failures"), blocks),
        "coupling.resamples": total((one, two), "resamples"),
        "patterns.exact_s": t("patterns.exact_mean_density",
                              "patterns.exact_mean_density_grid"),
        "patterns.mc_s": t("patterns.mc_density_stats"),
        "patterns.reference_s": t("patterns.two_sided_prefix_prob"),
        "patterns.estimators_s": t("patterns.scalar_estimators",
                                   "patterns.escape_power_estimate"),
        "lattice.escapes_calls": calls["lattice.escapes"],
        "lattice.concat_calls": calls["lattice.concat"],
        "lattice.busy_s": self_time["lattice"],
        "store.cache_puts": calls["store.CountCache.put"],
        "store.cache_put_s": t("store.CountCache.put"),
        "store.cache_gets": calls["store.CountCache.get"],
        "store.cache_load_s": t("store.CountCache.__init__"),
        "store.corpus_walks": calls["store.CorpusWriter.write"],
        "store.corpus_write_s": t(*writer),
        "store.artifact_writes": sum(calls[n] for n in artifacts
                                     if not n.endswith(".finalize")),
        "store.artifact_s": t(*artifacts),
        "trace.spans": len(spans),
    }

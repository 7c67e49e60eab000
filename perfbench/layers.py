"""Where the traced run wraps ``reusesim``, and the counters it keeps there.

Functions are wrapped at the names their callers look up: ``reusesim.sim``
imports ``generate``, ``execution_cost`` and ``reuse_cost`` directly, so
those are wrapped in ``reusesim.sim``, and ``reusesim.cli`` calls its own
module-level functions.  No source file of the program changes.
"""

from __future__ import annotations

import heapq

import numpy as np

from tracing import Patches, Tracer

# Layers whose per-call latency quantiles are reported next to calls/self_s.
TIMED_LAYERS = (
    "reuse_store.evict_lfu", "reuse_store.place", "reuse_store.lookup",
    "lsh.insert", "lsh.remove", "lsh.query",
)
OTHER_LAYERS = (
    "lsh.signature", "lsh.candidate_ids", "lsh.init",
    "workload.generate", "core.feature_vector",
    "sim.simulate", "sim.aggregate", "sim.workload_digest", "sim.build_store",
    "cost", "forwarding.decide", "forwarding.complete",
    "cli.build_config", "cli.write_csv", "cli.command",
)
# ``lsh.recall`` checks every this-many-th lookup of a non-empty store; a
# brute-force search at every lookup makes a traced ``hot`` repetition
# several times slower and leaks into the traced spans.
RECALL_EVERY = 16


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def exact_nearest(entries, q) -> int:
    """Id of the stored entry nearest to ``q`` by brute force.

    Distances are computed as ``LshIndex.query`` computes them, and ties go
    to the smallest id, as in the index.
    """
    matrix = np.stack([e.features.values for e in entries])
    dists = np.sqrt(((matrix - np.asarray(q, dtype=np.float64)) ** 2).sum(axis=1))
    best = dists.min()
    return min(e.id for e, d in zip(entries, dists) if d == best)


class LayerCounters:
    """Counts taken at the wrapped boundaries of the store and the index."""

    def __init__(self) -> None:
        self.kinds = {"full": 0, "partial": 0, "miss": 0}
        self.recall_lookups = 0
        self.recall_checked = 0
        self.recall_hits = 0
        self.candidate_calls = 0
        self.candidate_total = 0
        self.entries_peak = 0
        self.events = 0
        self._last_query = None

    # observers: (args, kwargs, result), run with their time excluded
    def on_query(self, args, kwargs, result) -> None:
        self._last_query = result

    def on_candidates(self, args, kwargs, result) -> None:
        self.candidate_calls += 1
        self.candidate_total += len(result)

    def on_lookup(self, args, kwargs, result) -> None:
        store, service = args[0], _arg(args, kwargs, 1, "service")
        self.kinds[result.kind.value] += 1
        if store.entry_count(service):
            self.recall_lookups += 1
            if self.recall_lookups % RECALL_EVERY == 0:
                q = _arg(args, kwargs, 2, "q")
                lsh_best = self._last_query[0][0] if self._last_query else None
                nearest = exact_nearest(store.entries(service), q.values)
                self.recall_checked += 1
                self.recall_hits += lsh_best == nearest
        self._last_query = None

    def on_place(self, args, kwargs, entry_id) -> None:
        store, service = args[0], _arg(args, kwargs, 1, "service")
        self.entries_peak = max(self.entries_peak, store.entry_count(service))

    def metrics(self) -> dict[str, float]:
        lookups = sum(self.kinds.values())
        return {
            "reuse_store.full_hits": self.kinds["full"],
            "reuse_store.partial_hits": self.kinds["partial"],
            "reuse_store.misses": self.kinds["miss"],
            "reuse_store.hit_ratio": (
                (self.kinds["full"] + self.kinds["partial"]) / lookups
                if lookups else 0.0
            ),
            "reuse_store.entries_peak": self.entries_peak,
            "lsh.recall": (
                self.recall_hits / self.recall_checked if self.recall_checked else 0.0
            ),
            "lsh.candidates_per_query": (
                self.candidate_total / self.candidate_calls
                if self.candidate_calls else 0.0
            ),
            "sim.events": self.events,
        }


class _CountingHeapq:
    """Stands in for ``heapq`` inside ``reusesim.sim`` to count popped events."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self, counters: LayerCounters) -> None:
        self._counters = counters

    def heappop(self, heap):
        self._counters.events += 1
        return heapq.heappop(heap)

    def __getattr__(self, name):
        return getattr(heapq, name)


def install(patches: Patches, tracer: Tracer, counters: LayerCounters) -> None:
    """Wrap every traced layer; ``patches.restore()`` undoes all of it."""
    import reusesim.cli as cli
    import reusesim.core as core
    import reusesim.forwarding as forwarding
    import reusesim.lsh as lsh
    import reusesim.reuse_store as reuse_store
    import reusesim.sim as sim

    c = counters
    points = (
        (reuse_store.ReuseStore, "evict_lfu", "reuse_store.evict_lfu", None),
        (reuse_store.ReuseStore, "place", "reuse_store.place", c.on_place),
        (reuse_store.ReuseStore, "lookup", "reuse_store.lookup", c.on_lookup),
        (lsh.LshIndex, "__init__", "lsh.init", None),
        (lsh.LshIndex, "insert", "lsh.insert", None),
        (lsh.LshIndex, "remove", "lsh.remove", None),
        (lsh.LshIndex, "signature", "lsh.signature", None),
        (lsh.LshIndex, "query", "lsh.query", c.on_query),
        (lsh.LshIndex, "candidate_ids", "lsh.candidate_ids", c.on_candidates),
        (core.FeatureVector, "__init__", "core.feature_vector", None),
        (forwarding.EdgeNode, "decide", "forwarding.decide", None),
        (forwarding.EdgeNode, "complete", "forwarding.complete", None),
        (sim, "generate", "workload.generate", None),
        (sim, "simulate", "sim.simulate", None),
        (sim, "_aggregate", "sim.aggregate", None),
        (sim, "workload_digest", "sim.workload_digest", None),
        (sim, "build_store", "sim.build_store", None),
        (sim, "execution_cost", "cost", None),
        (sim, "reuse_cost", "cost", None),
        (cli, "build_config", "cli.build_config", None),
        (cli, "write_tasks_csv", "cli.write_csv", None),
        (cli, "summary_row", "cli.write_csv", None),
        (cli, "cmd_run", "cli.command", None),
        (cli, "cmd_sweep", "cli.command", None),
    )
    for owner, attr, name, observe in points:
        patches.replace(
            owner, attr, lambda fn, name=name, observe=observe: tracer.wrap(name, fn, observe)
        )
    patches.replace(sim, "heapq", lambda _: _CountingHeapq(counters))

"""In-memory span recorder that wraps the simulator's public functions.

Each wrapped call records a span: its name, start, end and the index of the
span that was open when it began (its parent). Spans are plain lists kept in
memory and written out once, when the run ends. A layer's self time is its
duration minus the durations of its child spans; calls within one thread
never overlap, so the children of a span are disjoint.

Functions are patched under the name their caller looks up: ``server.py``
imports ``local_train`` and friends into its own namespace, so patching
``fedswap.clients`` alone would record nothing.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from fedswap import harness, server

# (module, attribute, span name) for every call the traced run records
TARGETS = (
    (server, "local_train", "clients.train"),
    (server, "local_train_fedprox", "clients.train"),
    (server, "evaluate", "clients.eval"),
    (server, "build_distance_matrix", "clustering.distance"),
    (server, "cluster_to_two", "clustering.cluster"),
    (server, "build_clustered_plan", "exchange.plan"),
    (server, "build_random_plan", "exchange.plan"),
    (server, "build_round_robin_plan", "exchange.plan"),
    (server, "weighted_average", "params.aggregate"),
    (server, "derive_seed", "server.derive_seed"),
    (server, "run_round", "server.round"),
    (harness, "derive_seed", "server.derive_seed"),
    (harness, "build_clients", "harness.build_clients"),
    (harness, "run_simulation", "server.sim"),
    (harness, "write_metrics_csv", "harness.write"),
)

# a span is the list [name, start, end, parent index]
START, END = 1, 2


class Tracer:
    """Records spans for calls made while :meth:`patched` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """fn wrapped in a span; observe(args, result) runs after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, observers: dict | None = None):
        """Wrap every TARGETS entry; observers maps span names to observe hooks."""
        observers = observers or {}
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for module, attr, name in TARGETS:
                setattr(module, attr,
                        self.wrap(name, getattr(module, attr), observers.get(name)))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def layer_totals(self, roots: set[int]) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name under the given root spans: call count, summed
        duration and summed self time; plus the share of the roots' time
        that their direct children cover."""
        child_time = [0.0] * len(self.spans)
        under = [False] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                under[i] = under[parent] or parent in roots
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if not under[i]:
                continue
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        root_time = sum(self.spans[r][END] - self.spans[r][START] for r in roots)
        coverage = sum(child_time[r] for r in roots) / root_time if root_time else 0.0
        return totals, coverage

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

"""Spans around the calls into vigil's layers, for the traced run.

:class:`Tracer` replaces public functions on vigil's modules with wrappers
that record a span (name, start, end, parent, operation id, size) and
restores them afterwards.  Spans stay in memory until ``dump``.  A span's
name is ``<layer>.<function>``, the layer being the module that defines
the function.

``OnlineMonitor.feed`` runs once per token, so it gets no span per call:
each monitor that ``monitor_online`` returns adds up its feed time in one
``monitor.feed`` span per operation.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import vigil.bisim
import vigil.cli
import vigil.detector
import vigil.families
import vigil.monitor
import vigil.speclang


def _states(result):
    return len(result[0].states)


# (module, attribute, span name, size of the call or None)
PATCHES = [
    (vigil.cli, "main", "cli.main", None),
    (vigil.cli, "bisimilar", "bisim.bisimilar",
     lambda args, result: len(args[0].states) + len(args[2].states)),
    (vigil.cli, "minimal_violation_words", "detector.minimal_violation_words", None),
    (vigil.cli, "monitor_lasso", "monitor.monitor_lasso",
     lambda args, result: len(args[2].prefix) + len(args[2].period)),
    (vigil.cli, "check_universal_family", "families.check_universal_family", None),
    (vigil.speclang, "parse", "speclang.parse", None),
    (vigil.speclang, "compile", "speclang.compile", lambda args, result: _states(result)),
    (vigil.speclang, "prefix_free_kernel", "speclang.prefix_free_kernel",
     lambda args, result: len(result.states)),
    (vigil.speclang, "pattern_is_prefix_free", "speclang.pattern_is_prefix_free", None),
    (vigil.speclang, "machine_to_detector", "families.machine_to_detector", None),
    (vigil.families, "machine_to_detector", "families.machine_to_detector", None),
    (vigil.speclang, "canonical_form", "detector.canonical_form", None),
    (vigil.detector, "canonical_form", "detector.canonical_form", None),
    (vigil.detector, "detector_from_explicit_set", "detector.detector_from_explicit_set",
     lambda args, result: _states(result)),
    (vigil.detector, "minimal_violation_words", "detector.minimal_violation_words", None),
    (vigil.bisim, "bisimilar", "bisim.bisimilar",
     lambda args, result: len(args[0].states) + len(args[2].states)),
    (vigil.families, "check_universal_family", "families.check_universal_family", None),
    (vigil.families, "universal_detector_for", "families.universal_detector_for", None),
    (vigil.monitor, "transfer_to_universal", "monitor.transfer_to_universal", None),
    (vigil.monitor, "monitor_lasso", "monitor.monitor_lasso",
     lambda args, result: len(args[2].prefix) + len(args[2].period)),
]

NAME, OP, PARENT, START, END, SIZE = range(6)


class Tracer:
    """Spans of one traced run; ``op`` is the operation they belong to."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name) -> list:
        """A new span, child of the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter()
        span = [name, self.op, parent, now, now, None]
        self.spans.append(span)
        return span

    def _wrap(self, name, fn, size):
        def traced(*args, **kwargs):
            span = self.open(name)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                span[SIZE] = size(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_online(self, fn):
        def traced(*args, **kwargs):
            live = fn(*args, **kwargs)
            span = self.open("monitor.feed")
            span[SIZE] = 0
            feed = live.feed

            def timed_feed(symbol):
                start = time.perf_counter()
                try:
                    return feed(symbol)
                finally:
                    span[END] += time.perf_counter() - start
                    span[SIZE] += 1

            live.feed = timed_feed
            return live

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name, size in PATCHES:
            original = getattr(module, attr, None)
            if original is None:  # no longer on this path; its metric reads 0
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, size))
        for module in (vigil.cli, vigil.monitor):
            original = module.monitor_online
            self._saved.append((module, "monitor_online", original))
            module.monitor_online = self._wrap_online(original)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "op", "parent", "start", "end", "size"],
                       "spans": self.spans}, handle)


def self_times(spans) -> dict:
    """Self time of each span: its duration minus its children's."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return dict(enumerate(own))


def layer_self_by_op(spans) -> dict:
    """{layer: [self seconds of that layer in each operation that used it]}"""
    own = self_times(spans)
    per_op = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        per_op[s[OP]][s[NAME].split(".")[0]] += own[i]
    out = defaultdict(list)
    for layers in per_op.values():
        for layer, seconds in layers.items():
            out[layer].append(seconds)
    return out

"""Spans around the calls the benchmark makes into each module.

The program itself is not edited: each public function is replaced, for the
duration of a traced pass, by a wrapper in the module namespace where its
caller looks it up.  A span records name, start, end, parent span, pass id
and the counters observed at that boundary.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "pass": self.pass_id, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name, observe=None):
        """Register a wrapper for ``module.attr``; ``install`` applies it.

        ``name`` is the span name, or a function of (args, kwargs) giving
        it.  ``observe(args, kwargs, result)`` returns counters for the span.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as rec:
                result = original(*args, **kwargs)
                if observe is not None:
                    rec["attrs"].update(observe(args, kwargs, result))
                return result

        self._patches.append((module, attr, original, traced))

    def install(self):
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_totals(spans: list[dict]) -> dict[tuple, dict[str, float]]:
    """Per (pass, span name): count, inclusive and self seconds, counters.

    Counters are summed, except names starting with ``max_``, which keep
    the largest value seen.
    """
    own = self_times(spans)
    out: dict[tuple, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        acc = out[(s["pass"], s["name"])]
        acc["calls"] += 1
        acc["s"] += s["end"] - s["start"]
        acc["self_s"] += own[s["id"]]
        for key, value in s["attrs"].items():
            if isinstance(value, str):
                continue
            if key.startswith("max_"):
                acc[key] = max(acc[key], value)
            else:
                acc[key] += value
    return out

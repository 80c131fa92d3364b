"""In-process spans around calls into basinflow's modules.

Timing wrappers are installed on module attributes for the length of one
``with Tracer() as tracer:`` block and removed at its end.  Spans are kept
in memory as plain lists and written out by the caller.

A layer's self time is its span's duration minus the spans it directly
encloses.  Probe spans (``layer=False``) break a layer's time down
further, as ``splu`` does inside ``estimator.solve``; they are recorded
with their parent but not subtracted from it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        # Each span: {"name", "parent", "start", "end", "layer", "counts",
        # "count_s"}; count_s is time spent in the span's counter callback.
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, layer: bool = True,
             count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``name`` is a span name or a function of the call's arguments
        returning one.  ``count(counts, result, *args, **kwargs)`` may add
        counters to the span once the call returns.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {
                "name": name(*args, **kwargs) if callable(name) else name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "layer": layer,
                "counts": {}, "count_s": 0.0,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                t0 = time.perf_counter()
                count(span["counts"], result, *args, **kwargs)
                span["count_s"] = time.perf_counter() - t0
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name.

        Counter callbacks run inside the parent's interval; their time is
        the tracer's, so it is charged to no span.
        """
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"]
        for span in self.spans:
            parent = span["parent"]
            if parent is not None:
                inner = span["end"] - span["start"] if span["layer"] else 0.0
                out[self.spans[parent]["name"]] -= inner + span["count_s"]
        return dict(out)

    def counts(self) -> dict[str, float]:
        """Counters summed over spans, keyed ``<span name>.<counter>``."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            for key, value in span["counts"].items():
                out[f"{span['name']}.{key}"] += value
        return dict(out)

    def dump(self) -> list[dict]:
        """Spans relative to the first start, for the results file."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{"trace_id": self.trace_id, "name": s["name"],
                 "parent": s["parent"], "layer": s["layer"],
                 "start_s": s["start"] - t0, "end_s": s["end"] - t0,
                 "count_s": s["count_s"], "counts": s["counts"]}
                for s in self.spans]

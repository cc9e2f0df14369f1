"""Spans around the calls into each edgectx layer, recorded from outside.

The benchmark replaces module attributes with timing wrappers for the
length of a traced run; nothing in ``src/`` knows about it. Each span is
``[name, start_ns, end_ns, parent, request, attrs]`` where ``parent`` is
the index of the enclosing span on the same thread (or -1) and
``request`` names the unit of work the span belongs to (one reading, one
sync, one sweep fold, one retrain). Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from stats import percentile


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._request_seq = 0
        # re-entrant: a signal handler may dump while its thread holds it
        self._lock = threading.RLock()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: str) -> None:
        """Attribute spans opened on this thread from now on to ``request``."""
        self._local.request = request

    def new_request(self, prefix: str) -> str:
        with self._lock:
            self._request_seq += 1
            request = f"{prefix}{self._request_seq}"
        self.set_request(request)
        return request

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None, before=None):
        """Run ``fn`` inside a span.

        ``attrs(args, kwargs, result, error, before)`` runs after the span
        closes, so its cost is not in the span; ``before(args)`` runs
        before it opens and hands state over to ``attrs``.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        span = [name, 0, 0, stack[-1] if stack else -1,
                getattr(self._local, "request", None), None]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        result = error = None
        prior = before(args) if before is not None else None
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result, error, prior)
            elif error is not None:
                span[5] = {"error": type(error).__name__}

    def wrap(self, owner, attr: str, name: str, *, attrs=None, before=None,
             request_prefix: str | None = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until ``restore``.

        With ``request_prefix`` every call starts a new request.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if request_prefix is not None:
                tracer.new_request(request_prefix)
            return tracer.call(name, original, args, kwargs, attrs, before)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str | Path) -> None:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with self._lock:
            spans = list(self.spans)
        tmp.write_text(json.dumps(spans, separators=(",", ":")),
                       encoding="utf-8")
        os.replace(tmp, path)


# -- reduction ---------------------------------------------------------------


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent run on the parent's thread one after another,
    so their covered time is the sum of their durations clipped to the
    parent's interval.
    """
    covered = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0 and span[2]:
            p = spans[parent]
            covered[parent] += max(0, min(span[2], p[2]) - max(span[1], p[1]))
    return [max(0, s[2] - s[1] - covered[i]) for i, s in enumerate(spans)]


class SpanSummary:
    """Per-name durations, self times and attrs of span lists, one list per
    process (parent indices point into their own list)."""

    def __init__(self, *span_lists: list[list]) -> None:
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.selfs: dict[str, list[int]] = defaultdict(list)
        self.attrs: dict[str, list[dict]] = defaultdict(list)
        for spans in span_lists:
            for span, own in zip(spans, self_times_ns(spans)):
                if span[2] == 0:  # still open when a killed server dumped
                    continue
                name = span[0]
                self.durations[name].append(span[2] - span[1])
                self.selfs[name].append(own)
                self.attrs[name].append(span[5] or {})

    def calls(self, name: str, where=None) -> int:
        return len(self._pick(self.durations, name, where))

    def busy_s(self, name: str, where=None) -> float:
        return sum(self._pick(self.durations, name, where)) / 1e9

    def self_s(self, name: str, where=None) -> float:
        return sum(self._pick(self.selfs, name, where)) / 1e9

    def p50_us(self, name: str, where=None) -> float:
        durs = self._pick(self.durations, name, where)
        return percentile(durs, 0.50) / 1e3 if durs else 0.0

    def attr_values(self, name: str, key: str) -> list:
        return [a[key] for a in self.attrs.get(name, ()) if key in a]

    def _pick(self, table, name, where):
        values = table.get(name, [])
        if where is None:
            return values
        return [v for v, a in zip(values, self.attrs[name]) if where(a)]

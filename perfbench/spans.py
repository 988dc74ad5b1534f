"""Span recording for the traced benchmark run.

Spans are recorded from outside the package: :class:`Tracer` swaps a
module attribute or class method for a wrapper that times each call and
restores the original afterwards. Nothing under ``src/`` knows about it.

A span is a small list ``[name, start_ns, end_ns, thread, parent, rid,
ok]``. ``parent`` is the enclosing span on the same thread (or None);
``rid`` is the request id, shared by the n-th client request and the
n-th server update on one in-order connection; ``ok`` is False when the
call raised.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
import types

NAME, START, END, THREAD, PARENT, RID, OK = range(7)


class Tracer:
    """Collects spans in memory while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.update_count = 0
        self.update_bytes = 0
        self.empty_updates = 0
        self._local = threading.local()
        self._next_rid: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, request_scoped: bool = False, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request_scoped`` starts a new request id per call, counted per
        bound object (``args[0]``): one per session on the client, one
        per server on the server side. ``on_result(args, result)`` sees
        every successful call.
        """
        original = getattr(owner, attr)
        spans = self.spans
        local = self._local
        next_rid = self._next_rid
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if request_scoped:
                key = id(args[0])
                rid = (key, next_rid.get(key, 0))
                next_rid[key] = rid[1] + 1
            else:
                rid = parent[RID] if parent is not None else None
            span = [name, clock(), 0, get_ident(), parent, rid, False]
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
                span[OK] = True
            finally:
                span[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def count_update(self, args, payload: bytes) -> None:
        """``on_result`` hook for ``encode_framebuffer_update``."""
        self.update_count += 1
        self.update_bytes += len(payload)
        if len(args[0]) == 0:
            self.empty_updates += 1

    def patch_module_sleep(self, module, name: str) -> None:
        """Trace ``module.time.sleep`` by giving the module its own
        namespace in place of the shared ``time`` module."""
        proxy = types.SimpleNamespace(
            **{attr: getattr(time, attr) for attr in dir(time) if not attr.startswith("_")}
        )
        self._restore.append((module, "time", module.time))
        module.time = proxy
        self.patch(proxy, "sleep", name)

    def unpatch(self) -> None:
        self._next_rid.clear()
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unpatch()


# -- arithmetic over recorded spans ----------------------------------------


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start))
    total = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times_ns(spans) -> dict[int, int]:
    """Self time of every span, keyed by ``id(span)``: its duration minus
    the part of its interval that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append((span[START], span[END]))
    return {
        id(span): span[END] - span[START] - covered_ns(span[START], span[END], children.get(id(span), ()))
        for span in spans
    }


class SpanStats:
    """Per-name lookups over one window's finished spans."""

    def __init__(self, spans):
        self.spans = [span for span in spans if span[END]]
        self._self = self_times_ns(self.spans)
        self._by_name: dict[str, list[list]] = {}
        for span in self.spans:
            self._by_name.setdefault(span[NAME], []).append(span)

    def ok(self, name: str) -> list[list]:
        return [span for span in self._by_name.get(name, ()) if span[OK]]

    def failed_count(self, name: str) -> int:
        return sum(1 for span in self._by_name.get(name, ()) if not span[OK])

    def median_us(self, name: str) -> float:
        durations = [span[END] - span[START] for span in self.ok(name)]
        return statistics.median(durations) / 1000.0 if durations else 0.0

    def median_self_us(self, name: str) -> float:
        selves = [self._self[id(span)] for span in self.ok(name)]
        return statistics.median(selves) / 1000.0 if selves else 0.0

    def total_self_us(self, name: str) -> float:
        return sum(self._self[id(span)] for span in self._by_name.get(name, ())) / 1000.0

    def count(self, name: str) -> int:
        return len(self.ok(name))

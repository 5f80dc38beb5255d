"""In-memory span tracing for the traced benchmark pass.

Spans are recorded from here, around the calls into each layer's public
functions, by swapping the function for a timing wrapper while the
traced pass runs (:meth:`Tracer.wrap`) and putting the original back
afterwards (:meth:`Tracer.restore`).  Nothing in ``src/`` knows about
it, and the untraced passes that produce the end-to-end numbers never
see a wrapper.

A span is ``[name, start_ns, end_ns, parent, op, thread]``; ``parent``
indexes the span list (-1 for a root) and is the span that was open on
the same thread when this one started, so spans on one thread nest
strictly and a layer's *self time* is its duration minus its direct
children's durations.  ``op`` is the operation the span belongs to
(a fuzz item, a job hash); a span without one of its own inherits its
parent's.  Spans stay in memory until :meth:`Tracer.write`.
Recording is switched on for the timed region of the pass only.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, OP, THREAD = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        #: wrappers record only while this is set (the timed region):
        #: the checks after a pass call the same functions
        self.active = False
        self._open = threading.local()
        self._lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str, op: object = None) -> int:
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][OP]
        span = [name, 0, 0, parent, op, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._open.stack.pop()

    # -- patching -------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             op: Optional[Callable[[tuple, dict], object]] = None,
             before: Optional[Callable[[tuple, dict], None]] = None,
             after: Optional[Callable[[tuple, object], None]] = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a class (methods) or a module (functions).  A
        function is also replaced in every loaded ``repro`` module that
        imported it by name, because ``from x import f`` binds a second
        reference the defining module's attribute does not reach.
        ``op(args, kwargs)`` names the operation, ``before`` may edit
        ``kwargs``, ``after(args, result)`` reads counters once the call
        has returned; both hooks run outside the span.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = self.begin(name, op(args, kwargs) if op else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                module for modname, module in list(sys.modules.items())
                if modname.startswith("repro.") and module is not owner
                and module.__dict__.get(attr) is original]
        for holder in holders:
            self._originals.append((holder, attr, original))
            setattr(holder, attr, traced)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._originals):
            setattr(holder, attr, original)
        self._originals.clear()

    # -- analysis -------------------------------------------------------

    def self_ns(self) -> List[int]:
        """Self time of every span: duration minus direct children."""
        out = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[END] - span[START]
        return out

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, summed self seconds, summed duration."""
        table: Dict[str, Dict[str, float]] = {}
        for span, self_ns in zip(self.spans, self.self_ns()):
            row = table.setdefault(
                span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_ns / 1e9
            row["total_s"] += (span[END] - span[START]) / 1e9
        return table

    def write(self, path: str, summary: Dict[str, object]) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op", "thread"],
                       "summary": summary, "spans": self.spans}, fh)

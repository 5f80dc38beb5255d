"""Chrome / Perfetto ``trace_event`` timeline export.

Converts a recorded simulation trace into the JSON `trace event
format`_ that ``chrome://tracing`` and https://ui.perfetto.dev load
directly, so a run can be inspected as a zoomable timeline: one
process row per CPU, with core / load-store-unit / cache tracks, slices
for memory operations in flight, and instants for squashes, fills and
invalidations.

Mapping:

* one simulated **cycle** is one **microsecond** of trace time (the
  format's native unit), so timeline distances read directly as cycle
  counts;
* paired events become complete slices (``ph: "X"``):
  ``load_issue``/``load_complete`` and ``store_issue``/
  ``store_complete`` on the LSU track (matched by instruction ``seq``),
  ``slb_insert``/``slb_retire`` on a speculation track — the visible
  lifetime of each speculative load — and the directory's
  ``txn_start``/``txn_finish`` (matched by ``txn`` id) on the fabric
  process;
* everything else (``retire``, ``squash``, ``mispredict``, ``fill``,
  ``inval``, ``prefetch``, ...) becomes a thread-scoped instant
  (``ph: "i"``);
* ``ph: "M"`` metadata events name the processes and threads.

:func:`export_span_trace` writes the other timeline this package
knows: host spans on the wall clock, one process row per pid — a
``repro.verify`` campaign, its sweep run and each item, stamped by
:func:`repro.sim.sweep.run_sweep` in whichever process ran it.

:func:`validate_trace_events` is a dependency-free structural checker
for the subset of the spec this exporter emits; CI runs it over the
exported file so a malformed timeline fails the build rather than
failing silently in the viewer.

.. _trace event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from ..sim.trace import TraceEvent, TraceRecorder

#: (open kind, close kind) pairs rendered as duration slices, matched
#: by the ``seq`` (CPU events) or ``txn`` (directory events) detail
#: field within one source.
SLICE_PAIRS: Dict[str, str] = {
    "load_issue": "load_complete",
    "store_issue": "store_complete",
    "slb_insert": "slb_retire",
    "txn_start": "txn_finish",
}


def _pair_key(detail: Dict[str, Any]) -> Any:
    return detail.get("seq", detail.get("txn"))


def _slice_name(opener: TraceEvent) -> str:
    """A display name for a paired slice: instruction tag where known,
    directory message kind for transactions, else the event family."""
    name = (opener.detail.get("tag") or opener.detail.get("op")
            or opener.kind.rsplit("_", 1)[0])
    return str(name)

#: trace_event thread ids within each CPU's process
TID_CORE = 0
TID_LSU = 1
TID_SLB = 2
TID_CACHE = 3

#: synthetic process id for machine-wide sources (directory, network)
FABRIC_PID = 1000

_THREAD_NAMES = {TID_CORE: "core", TID_LSU: "lsu",
                 TID_SLB: "slb", TID_CACHE: "cache"}


def _locate(source: str) -> Tuple[int, int]:
    """Map an event source to a (pid, tid) pair."""
    if source.startswith("cpu"):
        head, _, unit = source.partition("/")
        try:
            pid = int(head[3:])
        except ValueError:
            return FABRIC_PID, 0
        return pid, (TID_LSU if unit == "lsu" else TID_CORE)
    if source.startswith("cache"):
        try:
            return int(source[5:]), TID_CACHE
        except ValueError:
            return FABRIC_PID, 0
    return FABRIC_PID, 0


def _args(detail: Dict[str, Any]) -> Dict[str, Any]:
    """Event details as JSON-safe slice arguments."""
    return {k: (v if isinstance(v, (int, float, str, bool)) or v is None
                else str(v))
            for k, v in detail.items()}


def to_trace_events(
    trace: Union[TraceRecorder, List[TraceEvent]],
    label: str = "repro",
    breakdowns: Any = None,
) -> Dict[str, Any]:
    """Convert a recorded trace to a trace_event JSON object.

    ``breakdowns`` (optional) is the run's per-CPU CycleAccountant
    blame — :class:`~repro.obs.accounting.CycleBreakdown` objects or
    plain ``{cause: cycles}`` dicts, one per CPU — rendered as a
    Perfetto counter track (``ph: "C"``) per CPU.  The accountant
    records whole-run totals, not a time series, so the track ramps
    from zero to the final attribution over the trace span.
    """
    events = trace.events if isinstance(trace, TraceRecorder) else list(trace)
    out: List[Dict[str, Any]] = []
    pids_seen: Dict[int, None] = {}
    tids_seen: Dict[Tuple[int, int], None] = {}
    #: (source, open-kind, seq) -> opening event, for slice pairing
    open_slices: Dict[Tuple[str, str, Any], TraceEvent] = {}
    last_cycle = max((ev.cycle for ev in events), default=0)

    def emit(record: Dict[str, Any], pid: int, tid: int) -> None:
        pids_seen.setdefault(pid)
        tids_seen.setdefault((pid, tid))
        record["pid"] = pid
        record["tid"] = tid
        out.append(record)

    def slice_tid(kind: str, tid: int) -> int:
        return TID_SLB if kind.startswith("slb") else tid

    for ev in events:
        pid, tid = _locate(ev.source)
        if ev.kind in SLICE_PAIRS:
            open_slices[(ev.source, ev.kind, _pair_key(ev.detail))] = ev
            continue
        closer = next((op for op, cl in SLICE_PAIRS.items()
                       if cl == ev.kind), None)
        if closer is not None:
            key = (ev.source, closer, _pair_key(ev.detail))
            opener = open_slices.pop(key, None)
            if opener is None:
                # completion without a recorded issue (a hand-cut
                # stream lost the opener): render as an instant instead
                emit({"name": ev.kind, "ph": "i", "s": "t",
                      "ts": ev.cycle, "cat": "memory",
                      "args": _args(ev.detail)}, pid, slice_tid(ev.kind, tid))
                continue
            name = _slice_name(opener)
            emit({"name": name, "ph": "X",
                  "ts": opener.cycle, "dur": max(ev.cycle - opener.cycle, 1),
                  "cat": "memory",
                  "args": _args({**opener.detail, **ev.detail})},
                 pid, slice_tid(ev.kind, tid))
            continue
        emit({"name": ev.kind, "ph": "i", "s": "t", "ts": ev.cycle,
              "cat": "sim", "args": _args(ev.detail)}, pid, tid)

    # slices still open at the end of the trace (e.g. a store that
    # never completed before max_cycles): close them at the last cycle
    for (source, kind, _seq), opener in open_slices.items():
        pid, tid = _locate(source)
        emit({"name": _slice_name(opener), "ph": "X", "ts": opener.cycle,
              "dur": max(last_cycle - opener.cycle, 1), "cat": "memory",
              "args": _args({**opener.detail, "unterminated": True})},
             pid, slice_tid(kind, tid))

    if breakdowns:
        for cpu, bd in enumerate(breakdowns):
            causes = bd if isinstance(bd, dict) else bd.as_dict()
            totals = {str(cause): int(cycles)
                      for cause, cycles in sorted(causes.items())}
            if not totals:
                continue
            emit({"name": "cycle_blame", "ph": "C", "ts": 0, "cat": "blame",
                  "args": {cause: 0 for cause in totals}}, cpu, TID_CORE)
            emit({"name": "cycle_blame", "ph": "C", "ts": last_cycle,
                  "cat": "blame", "args": totals}, cpu, TID_CORE)

    meta: List[Dict[str, Any]] = []
    for pid in sorted(pids_seen):
        name = "fabric" if pid == FABRIC_PID else f"cpu{pid}"
        meta.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                     "args": {"name": name}})
    for pid, tid in sorted(tids_seen):
        tname = ("events" if pid == FABRIC_PID
                 else _THREAD_NAMES.get(tid, "events"))
        meta.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                     "args": {"name": tname}})

    other: Dict[str, Any] = {"exporter": label, "cycles_per_us": 1}
    if isinstance(trace, TraceRecorder):
        other["dropped"] = trace.dropped
        other["max_events"] = trace.max_events
        other["truncated"] = bool(trace.dropped)

    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def export_chrome_trace(
    trace: Union[TraceRecorder, List[TraceEvent]],
    path: str,
    label: str = "repro",
    breakdowns: Any = None,
) -> Dict[str, Any]:
    """Convert and write a trace; returns the converted object."""
    obj = to_trace_events(trace, label=label, breakdowns=breakdowns)
    _write(obj, path)
    return obj


#: one host span: (name, pid, start_us, end_us, args), wall clock
WallSpan = Tuple[str, int, int, int, Mapping[str, Any]]


def export_span_trace(spans: Sequence[WallSpan], path: str,
                      process_names: Mapping[int, str]) -> Dict[str, Any]:
    """Write host spans as a trace_event file; returns the object.

    ``ts`` is wall-clock microseconds, so spans from different
    processes line up; it is rebased so the earliest span starts at 0
    (the Perfetto UI dislikes epoch-scale offsets).  Every pid gets a
    ``process_name`` (``process_names[pid]``, else ``pid N``) and an
    ``orchestration`` thread.
    """
    origin = min((start for _, _, start, _, _ in spans), default=0)
    meta: List[Dict[str, Any]] = []
    for pid in sorted({span[1] for span in spans} | set(process_names)):
        meta.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                     "args": {"name": process_names.get(pid, f"pid {pid}")}})
        meta.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
                     "args": {"name": "orchestration"}})
    obj = {
        "traceEvents": meta + [
            {"name": name, "ph": "X", "ts": start - origin,
             "dur": max(0, end - start), "pid": pid, "tid": 0,
             "cat": "orchestration", "args": dict(args)}
            for name, pid, start, end, args in spans],
        "displayTimeUnit": "ms",
    }
    _write(obj, path)
    return obj


def _write(obj: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


# ----------------------------------------------------------------------
# Structural validation (used by tests and the CI smoke step)
# ----------------------------------------------------------------------

_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid"),
    "M": ("name", "pid", "args"),
    "C": ("name", "ts", "pid", "tid", "args"),
}


def validate_trace_events(obj: Any) -> List[str]:
    """Check an object against the trace_event subset we emit.

    Returns a list of human-readable problems; empty means valid.
    """
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _REQUIRED:
            errors.append(f"{where}: unknown or missing ph {ph!r}")
            continue
        for key in _REQUIRED[ph]:
            if key not in ev:
                errors.append(f"{where}: ph={ph} missing {key!r}")
        for key in ("ts", "dur"):
            if key in ev and not isinstance(ev[key], (int, float)):
                errors.append(f"{where}: {key} must be a number")
            elif key in ev and ev[key] < 0:
                errors.append(f"{where}: {key} must be non-negative")
        if ph == "i" and ev.get("s", "t") not in ("g", "p", "t"):
            errors.append(f"{where}: instant scope must be g/p/t, "
                          f"got {ev.get('s')!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args must be an object")
    return errors


def trace_warnings(obj: Any) -> List[str]:
    """Non-fatal completeness warnings for a (structurally valid) trace.

    A bounded recorder (``--trace-limit``) keeps the run's first events
    and drops the rest; the exporter records that in ``otherData`` and
    this reports it, so CI and triage know the timeline is a prefix of
    the run, not the whole run.
    """
    warnings: List[str] = []
    other = obj.get("otherData") if isinstance(obj, dict) else None
    if not isinstance(other, dict):
        return warnings
    dropped = other.get("dropped", 0)
    if other.get("truncated") or dropped:
        limit = other.get("max_events")
        warnings.append(
            f"trace is incomplete: recorder dropped {dropped} event(s) "
            f"past its bound"
            + (f" (--trace-limit {limit})" if limit else ""))
    return warnings


def validate_trace_file(path: str) -> List[str]:
    """Validate a trace_event JSON file; returns problems (empty = ok)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_trace_events(obj)


def trace_file_warnings(path: str) -> List[str]:
    """Completeness warnings for a trace_event JSON file (see
    :func:`trace_warnings`); unreadable files report no warnings —
    the validator owns hard errors."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []
    return trace_warnings(obj)

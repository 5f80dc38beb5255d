"""ASCII timing diagrams for analytical schedules.

Renders a :class:`~repro.core.timing.ScheduleResult` as a Gantt-style
text chart — one row per access, ``#`` for the demand service window,
``p`` for a prefetch in flight — so the pipelining structure the
paper's examples describe is visible at a glance::

    lock L    |####################|
    write A   |....................#|          (prefetch: p..p)

Used by the examples and handy in a REPL when exploring schedules.
"""

from __future__ import annotations

from typing import List

from ..core.timing import ScheduleResult


def render_schedule(
    result: ScheduleResult,
    width: int = 72,
    show_prefetches: bool = True,
) -> str:
    """Render the schedule as an ASCII Gantt chart.

    Time is scaled to at most ``width`` columns; each access occupies
    one row from its issue to its completion cycle.
    """
    total = max(result.total_cycles, 1)
    scale = min(1.0, width / total)

    def col(cycle: int) -> int:
        return max(0, min(int((cycle - 1) * scale), width - 1))

    label_width = max(len(t.label) for t in result.timings)
    header = (f"{result.model_name}"
              f"{' + prefetch' if result.prefetch else ''}"
              f"{' + speculation' if result.speculation else ''}"
              f" — {result.total_cycles} cycles"
              f" (each column ≈ {1 / scale:.1f} cycles)" if scale < 1.0 else
              f"{result.model_name} — {result.total_cycles} cycles")
    lines: List[str] = [header]
    for t in result.timings:
        row = [" "] * width
        if show_prefetches and t.prefetch_issue is not None:
            for c in range(col(t.prefetch_issue), col(t.prefetch_complete) + 1):
                row[c] = "p"
        start, end = col(t.issue), col(t.complete)
        for c in range(start, end + 1):
            row[c] = "#"
        marker = "*" if t.speculative else " "
        lines.append(f"{t.label:<{label_width}} {marker}|{''.join(row)}|"
                     f" {t.issue}..{t.complete}")
    lines.append(f"{'':<{label_width}}  |{'-' * width}|")
    if any(t.speculative for t in result.timings):
        lines.append("(* = speculative load; p = prefetch in flight)")
    elif show_prefetches and any(t.prefetch_issue is not None
                                 for t in result.timings):
        lines.append("(p = prefetch in flight)")
    return "\n".join(lines)


def compare_schedules(results: List[ScheduleResult], width: int = 72) -> str:
    """Stack several schedules of the same segment for comparison."""
    return "\n\n".join(render_schedule(r, width=width) for r in results)

"""Plain-text tables and charts for experiment reports.

No plotting dependencies: every figure the paper implies is rendered as
an aligned text table or an ASCII bar chart, which also makes the
report output diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

Cell = Union[str, int, float, None]


@dataclass
class Table:
    """A titled grid with a header row."""

    title: str
    columns: Sequence[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> "Table":
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))
        return self

    def add_note(self, note: str) -> "Table":
        self.notes.append(note)
        return self

    def cell(self, row: int, column: str) -> Cell:
        return self.rows[row][list(self.columns).index(column)]

    def column_values(self, column: str) -> List[Cell]:
        idx = list(self.columns).index(column)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        def fmt(cell: Cell) -> str:
            if cell is None:
                return "-"
            if isinstance(cell, float):
                return f"{cell:.2f}"
            return str(cell)

        grid = [list(self.columns)] + [[fmt(c) for c in row] for row in self.rows]
        widths = [max(len(row[i]) for row in grid) for i in range(len(self.columns))]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(grid[0], widths)))
        lines.append(sep)
        for row in grid[1:]:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def bar_chart(
    title: str,
    data: Mapping[str, float],
    width: int = 50,
    unit: str = "",
) -> str:
    """Render a horizontal ASCII bar chart, scaled to the max value."""
    if not data:
        return f"{title}\n(no data)"
    label_width = max(len(k) for k in data)
    peak = max(data.values()) or 1.0
    lines = [title, "=" * len(title)]
    for label, value in data.items():
        bar = "#" * max(1 if value > 0 else 0, int(round(value / peak * width)))
        suffix = f" {value:g}{unit}"
        lines.append(f"{label.ljust(label_width)} |{bar}{suffix}")
    return "\n".join(lines)


def series_chart(
    title: str,
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    x_label: str = "x",
    width: int = 12,
) -> str:
    """Render multiple y-series against shared x values as a table.

    (The paper has no plots; sweeps print as aligned series so the
    crossover structure is readable.)
    """
    table = Table(title, [x_label] + list(series.keys()))
    for i, x in enumerate(xs):
        table.add_row(x, *(s[i] for s in series.values()))
    return table.render()


def speedup_table(
    title: str,
    baseline: Mapping[str, float],
    improved: Mapping[str, float],
    baseline_name: str = "baseline",
    improved_name: str = "improved",
) -> Table:
    """A baseline-vs-improved table with a speedup column."""
    table = Table(title, ["configuration", baseline_name, improved_name, "speedup"])
    for key in baseline:
        b, i = baseline[key], improved.get(key)
        speedup = (b / i) if i else None
        table.add_row(key, b, i, speedup)
    return table

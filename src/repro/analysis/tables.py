"""Plain-text tables for experiment reports.

No plotting dependencies: every figure the paper implies is rendered as
an aligned text table, which also makes the report output diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

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


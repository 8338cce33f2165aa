"""Shared experiment plumbing: result containers and table formatting."""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping, Sequence
from typing import Any

__all__ = [
    "ExperimentResult",
    "format_table",
    "near_square_factors",
]

def near_square_factors(p: int) -> tuple[int, int]:
    """Factor ``p = a * b`` with ``a <= b`` and ``a`` as large as possible.

    Used to shape 2D task patterns and 2D tori of a given processor count
    (e.g. 216 -> (12, 18)). Primes degrade to (1, p), which callers avoid by
    choosing composite sweep points.
    """
    a = int(p**0.5)
    while a > 1 and p % a:
        a -= 1
    return a, p // a


def format_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Render dict-rows as an aligned text table (numbers get 4 sig figs)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: Any) -> str:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return str(value)
        if isinstance(value, int):
            return str(value)
        return f"{value:.4g}"

    cells = [[fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(columns)]
    lines = [
        "  ".join(c.rjust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in cells)
    return "\n".join(lines)


@dataclasses.dataclass
class ExperimentResult:
    """Outcome of one table/figure reproduction."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]]
    notes: str = ""

    def to_text(self) -> str:
        """Human-readable report (header, table, notes)."""
        parts = [f"== {self.experiment_id}: {self.title} ==", format_table(self.rows)]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def to_json(self) -> str:
        """Machine-readable report."""
        return json.dumps(dataclasses.asdict(self))

    def column(self, name: str) -> list[Any]:
        """Extract one column across rows (for assertions in tests/benches)."""
        return [r[name] for r in self.rows]

"""Shared helpers for the experiment harnesses.

Every experiment module exposes a ``run_*`` function returning a result
dataclass with a ``rows()`` method (list of dicts — one per table row or
figure series point) and a ``summary()`` string; the benchmarks and the
EXPERIMENTS.md generator consume both.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render rows as a fixed-width text table (the bench output format).

    Columns are the ordered union of every row's keys (first-seen order),
    so heterogeneous rows — e.g. a summary row carrying an extra metric —
    render every field instead of silently dropping columns the first
    row happens to lack.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = []
    seen = set()
    for row in rows:
        for key in row.keys():
            if key not in seen:
                seen.add(key)
                columns.append(key)
    rendered: List[List[str]] = [[_cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)

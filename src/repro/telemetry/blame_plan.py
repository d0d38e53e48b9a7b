"""The sharded blame sweep — the *assembly half* of miss-blame analysis.

:mod:`repro.telemetry.blame` is the pure analysis engine (span walk,
cause taxonomy, mergeable reports).  Robustness cells run with the
``blame`` observer (:mod:`repro.telemetry.observers`) are blamed in the
worker; :func:`blame_sweep` rebuilds their per-cell parts and merges
them in the parent, for ``repro run robustness_* --blame``.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from .blame import BlameReport


def blame_sweep(cells: Sequence[Tuple[Any, Any, dict]]) -> "BlameSweep":
    """The sweep of robustness cells run with the ``blame`` observer,
    given as ``(unit, part, outputs)`` in unit order."""
    parts = []
    for unit, row, outputs in cells:
        kwargs = dict(unit.kwargs)
        (blame,) = outputs["blame"]  # a robustness cell builds one system
        parts.append(
            {
                "fault": kwargs["fault"],
                "scheduler": kwargs["scheduler"],
                "released": row["released"],
                "missed": row["missed"],
                "blame": blame["blame"],
                "misses": blame["misses"],
            }
        )
    return BlameSweep(parts)


class BlameSweep:
    """Assembled blame shards: per-cell rows plus a merged report."""

    def __init__(self, parts: Sequence[dict]) -> None:
        self.parts = list(parts)  # canonical unit order
        self.merged = BlameReport.merge([p["blame"] for p in self.parts])

    def rows(self) -> List[dict]:
        rows = []
        for part in self.parts:
            blame = part["blame"]
            top = "-"
            if blame["per_cause"]:
                top = max(
                    blame["per_cause"],
                    key=lambda c: (blame["per_cause"][c]["lost_ns"], c),
                )
            rows.append(
                {
                    "fault": part["fault"],
                    "scheduler": part["scheduler"],
                    "released": part["released"],
                    "missed": part["missed"],
                    "observed": blame["observed"],
                    "explained": blame["explained"],
                    "lost_ms": round(
                        sum(e["lost_ns"] for e in blame["per_cause"].values())
                        / 1e6,
                        3,
                    ),
                    "top_cause": top,
                }
            )
        return rows

    def summary(self) -> str:
        from ..report.ascii import render_blame_table

        lines = ["blame sweep (spans + root-cause attribution):"]
        for row in self.rows():
            lines.append(
                f"  {row['fault']:<10} {row['scheduler']:<7} "
                f"missed={row['missed']:>4} "
                f"explained={row['explained']}/{row['observed']} "
                f"lost={row['lost_ms']:.1f}ms top={row['top_cause']}"
            )
        lines.append("")
        lines.append(render_blame_table(self.merged.snapshot()))
        return "\n".join(lines)

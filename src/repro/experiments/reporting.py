"""Result tabulation: ASCII tables and speedups."""

from __future__ import annotations

import math

from repro.errors import ConfigError

__all__ = [
    "format_table",
    "add_speedup_column",
    "geometric_mean",
]


def _render(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 100:
            return f"{value:.1f}"
        if magnitude >= 0.01:
            return f"{value:.3f}"
        return f"{value:.3e}"
    return str(value)


def format_table(
    rows: list[dict],
    columns: list[str] | None = None,
    title: str | None = None,
) -> str:
    """Render row dictionaries as a fixed-width ASCII table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "-" * len(header)
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in rendered
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, rule, body])
    return "\n".join(parts)


def add_speedup_column(
    rows: list[dict],
    value_column: str,
    group_columns: tuple[str, ...] = ("model", "cache_ratio"),
) -> list[dict]:
    """Annotate rows with their ``speedup`` over kTransformers.

    Speedup is ``baseline_value / value`` within each group (higher is
    better for latency metrics), matching the paper's "speedup vs
    kTransformers" presentation in Figs. 7/8. Rows of a group without a
    kTransformers row stay unannotated.
    """
    def group(row: dict) -> tuple:
        return tuple(row.get(col) for col in group_columns)

    baselines = {
        group(row): float(row[value_column])
        for row in rows
        if row.get("strategy") == "ktransformers"
    }
    annotated = []
    for row in rows:
        base, value = baselines.get(group(row)), float(row[value_column])
        speedup = {"speedup": base / value} if base is not None and value > 0 else {}
        annotated.append({**row, **speedup})
    return annotated


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the conventional aggregate for speedups)."""
    if not values:
        raise ConfigError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ConfigError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))

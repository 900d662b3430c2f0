"""Text rendering of figure data (series of x/y points).

The paper's figures are line plots; since the benchmark harness runs in a
terminal, each figure is regenerated as its underlying data series plus an
optional coarse ASCII sparkline so trends are visible at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "format_series_table", "sparkline"]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


@dataclass
class Series:
    """One labelled curve of a figure."""

    label: str
    xs: list
    ys: list
    metadata: dict = field(default_factory=dict)

def sparkline(values):
    """Unicode sparkline of a numeric sequence (empty string for < 2 points)."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size < 2 or np.allclose(values.max(), values.min()):
        return ""
    normalised = (values - values.min()) / (values.max() - values.min())
    indices = np.clip((normalised * (len(_SPARK_CHARS) - 1)).round().astype(int),
                      0, len(_SPARK_CHARS) - 1)
    return "".join(_SPARK_CHARS[i] for i in indices)


def format_series_table(series_list, x_label="x", y_label="y", title=None):
    """Render several :class:`Series` as aligned text with sparklines."""
    lines = []
    if title:
        lines.append(title)
    for series in series_list:
        lines.append(f"[{series.label}]  {y_label} vs {x_label}   {sparkline(series.ys)}")
        xs = "  ".join(f"{x:8.3f}" if isinstance(x, float) else f"{x!s:>8}" for x in series.xs)
        ys = "  ".join(f"{y:8.3f}" if isinstance(y, float) else f"{y!s:>8}" for y in series.ys)
        lines.append(f"  {x_label:>12}: {xs}")
        lines.append(f"  {y_label:>12}: {ys}")
    return "\n".join(lines)

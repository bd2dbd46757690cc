"""Plain-text rendering of paper-style result tables."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.engine.metrics import METRIC_NAMES

__all__ = [
    "METRIC_LABELS", "format_risk_table", "format_value", "format_pool_table", "hms",
]

#: Metric names as the paper's tables print them.
METRIC_LABELS = {
    "elapsed_time": "Elapsed Time",
    "records_accessed": "Records Accessed",
    "records_used": "Records Used",
    "disk_ios": "Disk I/O",
    "message_count": "Message Count",
    "message_bytes": "Message Bytes",
}


def format_value(value: float) -> str:
    """Render a predictive-risk value; NaN prints as Null (Figure 16)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "Null"
    return f"{value:7.3f}"


def format_risk_table(
    columns: Mapping[str, Mapping[str, float]],
    metric_names: Sequence[str] = METRIC_NAMES,
    title: str = "",
) -> str:
    """Render a metrics-by-variants predictive-risk table.

    ``columns`` maps column label (e.g. "Euclidean", "3NN", "4 nodes") to
    a per-metric risk dict — the layout of the paper's Tables I-III and
    Figure 16.
    """
    labels = list(columns)
    width = max((len(str(label)) for label in labels), default=8) + 2
    lines = []
    if title:
        lines.append(title)
    header = f"{'Metric':<18}" + "".join(
        f"{str(label):>{max(width, 10)}}" for label in labels
    )
    lines.append(header)
    lines.append("-" * len(header))
    for metric in metric_names:
        row = f"{METRIC_LABELS.get(metric, metric):<18}"
        for label in labels:
            row += f"{format_value(columns[label].get(metric)):>{max(width, 10)}}"
        lines.append(row)
    return "\n".join(lines)


def hms(seconds: float) -> str:
    """Format seconds as hh:mm:ss (the paper's Figure 2 style)."""
    seconds = max(float(seconds), 0.0)
    hours, remainder = divmod(int(round(seconds)), 3600)
    minutes, secs = divmod(remainder, 60)
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"


def format_pool_table(rows) -> str:
    """Render the Figure 2 query-pool table."""
    lines = [
        f"{'type':<14}{'count':>8}{'mean':>12}{'min':>12}{'max':>12}",
        "-" * 58,
    ]
    for row in rows:
        lines.append(
            f"{row.category:<14}{row.count:>8}"
            f"{hms(row.mean_s):>12}{hms(row.min_s):>12}{hms(row.max_s):>12}"
        )
    return "\n".join(lines)

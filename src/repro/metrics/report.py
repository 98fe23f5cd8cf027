"""ASCII reporting helpers for the experiment harness.

The paper presents its evaluation as bar charts (runtime per configuration,
split writer/reader bars for serial runs) and tables.  The experiment
modules print text renderings of the same artifacts via these helpers.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width text table."""
    if not headers:
        raise ConfigurationError("table needs headers")
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_bar_chart(
    values: Mapping[str, float],
    width: int = 48,
    unit: str = "s",
    title: Optional[str] = None,
    splits: Optional[Mapping[str, Tuple[float, float]]] = None,
) -> str:
    """Render a horizontal bar chart.

    Parameters
    ----------
    values:
        Label -> bar length (e.g. makespan per configuration).
    splits:
        Optional label -> (writer, reader) pair; when provided for a label
        the bar is drawn as ``=`` (writer) followed by ``#`` (reader), the
        paper's split-bar presentation for serial runs.
    """
    if not values:
        raise ConfigurationError("bar chart needs at least one value")
    if width < 8:
        raise ConfigurationError("bar chart width must be >= 8")
    peak = max(values.values())
    if peak <= 0:
        raise ConfigurationError("bar chart values must include a positive one")
    label_width = max(len(label) for label in values)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in values.items():
        length = max(1, round(width * value / peak)) if value > 0 else 0
        split = splits.get(label) if splits else None
        if split is not None and (split[0] + split[1]) > 0:
            writer_part, reader_part = split
            writer_len = round(length * writer_part / (writer_part + reader_part))
            bar = "=" * writer_len + "#" * (length - writer_len)
        else:
            bar = "#" * length
        lines.append(f"{label.ljust(label_width)} | {bar} {value:.3f}{unit}")
    return "\n".join(lines)

"""Plain-text rendering of tables and time series.

The paper's artifacts are a pair of tables (Figs. 8 and 9) and two
idle/collected evolution plots (Fig. 10); these helpers render both to
monospace text, which is what ``python -m repro.harness fig8|fig9|fig10``
prints.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: str = "",
) -> str:
    """Render an aligned monospace table."""
    columns = len(headers)
    widths = [len(header) for header in headers]
    for row in rows:
        for index in range(columns):
            cell = str(row[index]) if index < len(row) else ""
            widths[index] = max(widths[index], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        padded = [
            str(cells[index] if index < len(cells) else "").ljust(widths[index])
            for index in range(columns)
        ]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append(separator)
    lines.extend(fmt_row([str(cell) for cell in row]) for row in rows)
    return "\n".join(lines)


def render_series(
    series: Sequence[Tuple[float, int, int]],
    *,
    title: str = "",
    height: int = 12,
    width: int = 72,
    labels: Tuple[str, str] = ("idle", "collected"),
) -> str:
    """ASCII plot of the Fig. 10 curves (idle ``.`` / collected ``#``).

    ``series`` is a list of ``(time, idle_count, collected_count)``.
    """
    if not series:
        return f"{title}\n(empty series)"
    t_max = max(point[0] for point in series) or 1.0
    y_max = max(max(point[1], point[2]) for point in series) or 1
    grid = [[" "] * width for _ in range(height)]
    for time, idle, collected in series:
        x = min(width - 1, int(time / t_max * (width - 1)))
        for value, glyph in ((idle, "."), (collected, "#")):
            y = min(height - 1, int(value / y_max * (height - 1)))
            row = height - 1 - y
            grid[row][x] = glyph
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"y: 0..{y_max} activities | x: 0..{t_max:.0f}s | "
        f"'.'={labels[0]} '#'={labels[1]}"
    )
    lines.extend("".join(row) for row in grid)
    return "\n".join(lines)

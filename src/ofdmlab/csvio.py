"""Deterministic CSV output: fixed column order, 17-significant-digit floats."""

from __future__ import annotations

import math
from pathlib import Path

from .errors import NumericError


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def check_finite(header: list[str], rows: list[tuple], unwritten: str = "no CSV written"):
    """NumericError naming the first float in ``rows`` that is not finite."""
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericError(f"{name} is {value} at {header[0]} = {row[0]}; {unwritten}")


def write_csv(path, header: list[str], rows: list[tuple]) -> str:
    """Write and also return the rendered text (handy for byte comparisons)."""
    text = render_csv(header, rows)
    if path is not None:
        Path(path).write_text(text)
    return text

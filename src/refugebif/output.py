"""Deterministic CSV emission: round-trip floats, '#'-prefixed comment lines.

A failed write raises the ``OSError`` as is; the CLI reports it with exit 1.
"""

from __future__ import annotations

from pathlib import Path


def fmt(value) -> str:
    """Shortest decimal representation that round-trips the value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    return repr(float(value))


def write_csv(path, header, rows, footer_comments=()) -> None:
    """Write one CSV file (header, data rows, trailing comment lines)."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    for comment in footer_comments:
        lines.append(f"# {comment}")
    path.write_text("\n".join(lines) + "\n")

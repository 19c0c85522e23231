"""Deterministic CSV/JSON output helpers for experiments.

Floats are written with 17 significant digits so every value round-trips and
downstream tolerance checks are reproducible; output bytes depend only on the
data, never on wall time, platform or locale (UTF-8, "\\n" line ends). A CSV
table is streamed: each row is formatted and written as it arrives, so the
writer holds one row at a time whatever the table's length.
"""
from __future__ import annotations

import json


def fmt_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, columns, rows) -> None:
    """Write a header line of ``columns`` and one line per row of ``rows``,
    an iterable of sequences in column order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt_value, row)) + "\n")


def write_json(path, payload) -> None:
    """Write ``payload`` as sorted, indented JSON; exact numbers (Fraction, Q2) as floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n")

"""Comparison of hawkent's outputs with precomputed reference values.

The reference values come from :mod:`oracle` (mpmath at 40 digits) and
reach the workload process as plain floats, so this module needs
neither mpmath nor numpy.  Every function returns ``None`` when the
output is right and a one-line description of the first problem
otherwise.

The tolerance is hawkent's own verify gate: 1e-9 absolute.  The
column names are spelled out here rather than read from hawkent, so a
change to hawkent's schema shows as a failure.
"""

from __future__ import annotations

import json
import math

ATOL = 1e-9

MODEL_COLUMNS = (
    "alpha",
    "omega",
    "temperature",
    "C_A_I",
    "C_A_II",
    "C_I_II",
    "EoF_A_I",
    "EoF_A_II",
    "EoF_I_II",
    "MI_A_I",
    "MI_A_II",
    "MI_I_II",
    "minPT_A_I",
    "minPT_A_II",
    "minPT_I_II",
)

FIGURE_COLUMNS = {
    1: ("C_A_I", "C_A_II", "C_I_II"),
    2: ("EoF_A_I", "EoF_A_II", "EoF_I_II"),
    3: ("MI_A_I", "MI_A_II", "MI_I_II"),
}

STATE_MEASURES = ("concurrence", "eof", "mutual_information", "min_pt_eigenvalue")


def compare_rows(got, want, columns, where: str) -> str | None:
    """Row count, row width, and every value within ``ATOL``."""
    if len(got) != len(want):
        return f"{where}: {len(got)} rows, expected {len(want)}"
    for k, (row, ref) in enumerate(zip(got, want)):
        if len(row) != len(columns):
            return f"{where} row {k}: {len(row)} values, expected {len(columns)}"
        for name, value, expected in zip(columns, row, ref):
            if not (isinstance(value, float) and math.isfinite(value)):
                return f"{where} row {k} {name}: {value!r} is not a finite float"
            if abs(value - expected) > ATOL:
                return f"{where} row {k} {name}: {value!r} vs reference {expected!r}"
    return None


def parse_csv(text: str) -> tuple[list[str], list[list[float]]] | str:
    """Header and float rows of a CSV table, or a description of the defect."""
    if not text.endswith("\n"):
        return "CSV does not end with a newline"
    lines = text[:-1].split("\n")
    try:
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return f"CSV cell is not a number: {exc}"
    return lines[0].split(","), rows


def check_csv(text: str, want, columns, where: str = "CSV") -> str | None:
    parsed = parse_csv(text)
    if isinstance(parsed, str):
        return f"{where}: {parsed}"
    header, rows = parsed
    if tuple(header) != tuple(columns):
        return f"{where}: header {header} differs from {list(columns)}"
    return compare_rows(rows, want, columns, where)


def check_json(text: str, want, where: str = "JSON") -> str | None:
    try:
        payload = json.loads(text)
        records = payload["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"{where}: not a sweep payload: {exc!r}"
    rows = []
    for k, record in enumerate(records):
        if tuple(record) != MODEL_COLUMNS:
            return f"{where} row {k}: keys {list(record)} differ from the CSV columns"
        rows.append(list(record.values()))
    return compare_rows(rows, want, MODEL_COLUMNS, where)


def check_rows(rows, want) -> str | None:
    """Returned ``SweepRow`` tuples against the reference, at full precision."""
    return compare_rows([list(r) for r in rows], want, MODEL_COLUMNS, "rows")


def check_closed(rows, csv_text: str, json_text: str, want) -> str | None:
    """Returned rows, both emissions, and CSV/JSON agreement cell by cell."""
    problem = (
        check_rows(rows, want)
        or check_csv(csv_text, want, MODEL_COLUMNS)
        or check_json(json_text, want)
    )
    if problem:
        return problem
    csv_rows = parse_csv(csv_text)[1]
    json_rows = [list(r.values()) for r in json.loads(json_text)["rows"]]
    for k, (a, b) in enumerate(zip(csv_rows, json_rows)):
        if a != b:
            return f"row {k}: CSV {a} and JSON {b} disagree"
    return None


def check_figure(text: str, which: int, want) -> str | None:
    """``hawkent figure N`` output: temperature plus one measure family."""
    columns = ("temperature", *FIGURE_COLUMNS[which])
    picked = [[row[MODEL_COLUMNS.index(name)] for name in columns] for row in want]
    return check_csv(text, picked, columns, f"figure {which}")


def check_state(values, want) -> str | None:
    """The four measures of one state, in ``STATE_MEASURES`` order."""
    return compare_rows([list(values)], [want], STATE_MEASURES, "state")

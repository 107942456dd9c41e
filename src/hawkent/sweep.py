"""Parameter sweeps over the three-mode model, with CSV/JSON emission.

A sweep varies exactly one of (alpha, omega, temperature) over an
ascending grid while the other two stay fixed.  The linear grid is
``np.linspace``'s; the log grid is one Python pass over libm's ``pow``,
within 4.5 ulp of the exact points on grids of up to 6 decades (see
:func:`grid_values`), so neither depends on numpy's SIMD dispatch.  The
grid's points are one ``(N, 3)`` block, the grid down the varied column
and each fixed value down its own, and the whole grid is evaluated as
one table: the thermal weights take libm's ``exp`` in one pass over the
column of every point, each closed form is then one numpy expression
over the ``(N,)`` columns, and the rows are read off the ``(N, 15)``
table.  The cells have the bits of :func:`~hawkent.model.closed_forms`
at each point, whatever the grid around it.  In verify mode the model's one
state builder, :func:`~hawkent.model._amplitudes`, builds every point's
amplitudes from the table's ``(alpha, omega, T)`` columns alone, on its
own path to the thermal weights;
:func:`~hawkent.measures._factor_measures` measures all ``3N`` pair
states from them at once, in one LAPACK call, and the result is
compared with the table's ``(N, 3, 4)`` view of the closed forms.  The
run aborts on the first disagreement beyond ``VERIFY_ATOL`` (1e-12,
absolute) in grid order (a NaN on either side is a disagreement), so
emitted numbers are never untested: neither the closed-form algebra
nor the thermal weights it starts from.  The spectral route never
reads a closed-form value or weight, and the emitted values are the
closed forms either way.

A sweep result renders its cells once.  :func:`run_sweep` returns a
:class:`SweepRows`, a tuple of :class:`SweepRow` whose CSV body is
rendered on first use and kept with the rows, and both emitters write
from that body; any other rows given to an emitter are made into a
:class:`SweepRows` first.  The body comes from :func:`_render_rows`: it
checks every row's width, then one ``%`` call on a template of all the
lines renders every cell with 12 significant digits, and one text
replace on the result folds ``-0.0`` into ``0.0``.  All CSV,
:func:`emit_csv`'s and the CLI's figure tables, is a header, then one
line of comma-separated cells per row.
JSON values are the CSV cells' own text: the body is split into its
cells, which are interleaved with the keys of the ``indent=1`` layout in
one ``str.join``, and two text fix-ups make them strict JSON numbers: a
cell with 12 integer digits, which ends in a bare ``.``, gets a trailing
``0``, and ``nan``, ``inf`` and ``-inf`` take ``json``'s ``NaN``,
``Infinity`` and ``-Infinity``.  The fix-ups run only when the text can
need them: when it holds an ``n`` or a ``.`` that ends a cell (see
:func:`_json_records`).  Every JSON value is therefore its CSV cell,
and parses to the exact value of that cell.  JSON written alone pays
for the split and join on top of the render: about 40 us more for 40
rows than rendering them straight into JSON took (in-process best of
9, 2-vCPU x86_64), where a result written in both formats saves a
whole render.  The head, the config echo, is one module-level template
in the same layout, keyed by the fields of :class:`SweepSpec` and then
``format``, ``out``, ``verify`` and ``mass``; one ``json.dumps`` call
encodes all the values, each as ``json.dumps`` writes it alone.  The
gates of :class:`SweepSpec` and :class:`RunConfig` leave only strings,
finite floats, ints, bools and None there, which ``json.dumps`` writes
as the ``indent=1`` layout does.  :func:`format_number` renders single
values with the same cell format, for the CLI's text reports.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import astuple, dataclass, fields
from functools import cached_property, partial
from typing import IO

import numpy as np

from .measures import _factor_measures
from .model import LimitReport, ModePair, _amplitudes, _closed_table, check_params, hawking_temperature

__all__ = [
    "CSV_COLUMNS",
    "VERIFY_ATOL",
    "VerificationError",
    "SweepSpec",
    "RunConfig",
    "SweepRow",
    "SweepRows",
    "format_number",
    "grid_values",
    "evaluate_point",
    "run_sweep",
    "emit_csv",
    "emit_json",
]

VERIFY_ATOL = 1e-12

CSV_COLUMNS = (
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

_PAIRS = (ModePair.A_I, ModePair.A_II, ModePair.I_II)
_MEASURES = ("concurrence", "EoF", "mutual information", "min PT eigenvalue")
_VARIABLES = ("alpha", "omega", "temperature")


class VerificationError(RuntimeError):
    """Closed-form and spectral values disagreed beyond tolerance."""


@dataclass(frozen=True)
class SweepSpec:
    """One varied parameter on an ascending grid, two held fixed.

    The field named by ``vary`` must be None; the other two must carry
    valid fixed values.  ``min``, ``max`` and the fixed values are
    stored as :func:`~hawkent.model.check_params` returns them, ``steps`` as an int.
    """

    vary: str
    min: float
    max: float
    steps: int
    scale: str = "linear"
    alpha: float | None = None
    omega: float | None = None
    temperature: float | None = None

    def __post_init__(self):
        if self.vary not in _VARIABLES:
            raise ValueError(f"vary must be one of {_VARIABLES}, got {self.vary!r}")
        varied = _VARIABLES.index(self.vary)
        # the grid is ascending and each allowed range an interval, so its ends decide
        for end in ("min", "max"):
            object.__setattr__(self, end, check_params(**{self.vary: getattr(self, end)})[varied])
        if not self.min < self.max:
            raise ValueError(f"need min < max, got [{self.min!r}, {self.max!r}]")
        try:
            steps = operator.index(self.steps)
        except TypeError:
            steps = 0
        if steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps!r}")
        object.__setattr__(self, "steps", steps)
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.min <= 0.0:
            raise ValueError(f"log scale needs min > 0, got {self.min!r}")
        if getattr(self, self.vary) is not None:
            raise ValueError(f"{self.vary} is the varied parameter and cannot also be fixed")
        for i, name in enumerate(_VARIABLES):
            if i == varied:
                continue
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"fixed parameter {name} is required when varying {self.vary}")
            object.__setattr__(self, name, check_params(**{name: value})[i])


def _verify_flag(verify) -> bool:
    """``verify`` as a Python bool: a bool or a numpy bool, else ``ValueError`` naming it."""
    if not isinstance(verify, (bool, np.bool_)):
        raise ValueError(f"verify must be a bool, got {verify!r}")
    return bool(verify)


@dataclass(frozen=True)
class RunConfig:
    """A sweep plus emission settings, each field checked when the config is built.

    ``sweep`` must be a :class:`SweepSpec`, ``output_format`` ``'csv'``
    or ``'json'``, ``out`` None or a ``str``, and ``verify`` a bool (a
    numpy bool is stored as a Python bool); a bad field raises
    ``ValueError`` naming it.  ``mass``, echoed into JSON output, is None
    or the black-hole mass whose Hawking temperature is the sweep's fixed
    temperature, so a temperature sweep takes none: a bad mass raises
    :func:`~hawkent.model.hawking_temperature`'s own error, and a mass
    of another temperature ``ValueError`` naming both values.  It is
    stored as a Python float.
    """

    sweep: SweepSpec
    output_format: str = "csv"
    out: str | None = None
    verify: bool = True
    mass: float | None = None

    def __post_init__(self):
        if not isinstance(self.sweep, SweepSpec):
            raise ValueError(f"sweep must be a SweepSpec, got {self.sweep!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output_format must be 'csv' or 'json', got {self.output_format!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"out must be None or a str, got {self.out!r}")
        object.__setattr__(self, "verify", _verify_flag(self.verify))
        if self.mass is not None:
            temperature = hawking_temperature(self.mass)
            if temperature != self.sweep.temperature:
                raise ValueError(f"mass {self.mass!r} has Hawking temperature {temperature!r}, "
                                 f"but the sweep's temperature is {self.sweep.temperature!r}")
            object.__setattr__(self, "mass", float(self.mass))


class SweepRow(namedtuple("SweepRow", [c.lower().replace("minpt", "min_pt") for c in CSV_COLUMNS])):
    """One parameter point and its twelve measures, in the order of ``CSV_COLUMNS``.

    Field names are the column names in lower case, ``minPT`` spelled
    ``min_pt``: ``alpha``, ..., ``c_a_i``, ..., ``min_pt_i_ii``.
    """

    __slots__ = ()

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


# a row from 15 values in C, without _make's Python-level length check
_new_row = partial(tuple.__new__, SweepRow)


class SweepRows(tuple):
    """A tuple of :class:`SweepRow`, as :func:`run_sweep` returns it, whose cells are rendered once.

    ``csv_body`` is the CSV text of the rows without the header,
    rendered on first use and then kept with the rows: both
    :func:`emit_csv` and :func:`emit_json` write from it, so a result
    emitted in both formats is formatted once.  Built from other rows,
    for the emitters, it holds them as given, and ``csv_body`` checks
    their widths.
    """

    @cached_property
    def csv_body(self) -> str:
        """The rows' CSV lines, without the header; see :func:`_render_rows`."""
        return _render_rows(self, len(CSV_COLUMNS))


def _sweep_rows(rows) -> SweepRows:
    """``rows`` as a :class:`SweepRows`: itself if it is one, else a new one holding its rows."""
    return rows if isinstance(rows, SweepRows) else SweepRows(rows)


# 12 significant digits, trailing zeros kept
_CELL = "%#.12g"
# the text before each cell of a row in the JSON rows array, in json.dump(..., indent=1)'s layout:
# the first row's first key opens the first record, a later row's also closes the record before it
_JSON_FIRST_KEY = f"  {{\n   {json.dumps(CSV_COLUMNS[0])}: "
_JSON_KEYS = ("\n  },\n" + _JSON_FIRST_KEY, *(f",\n   {json.dumps(c)}: " for c in CSV_COLUMNS[1:]))
# the JSON head up to the rows array, with and without a config echo, in the same layout
_SPEC_FIELDS = tuple(f.name for f in fields(SweepSpec))
_spec_values = operator.attrgetter(*_SPEC_FIELDS)
_ECHO_KEYS = (*_SPEC_FIELDS, "format", "out", "verify", "mass")
_JSON_HEAD = '{\n "config": {\n' + ",\n".join(f"  {json.dumps(k)}: %s" for k in _ECHO_KEYS) + '\n },\n "rows": '
_JSON_HEAD_NO_CONFIG = '{\n "config": null,\n "rows": '


def _render(template: str, values: tuple) -> str:
    """``template % values`` with every ``-0.0`` printed as ``0.0``.

    Under ``%#.12g`` only ``-0.0`` renders as ``-0.00000000000``: a
    nonzero value below 1e-4 takes exponent form, and from 1e-4 up a
    nonzero digit comes by the fifth decimal place.
    """
    return (template % values).replace("-0.00000000000", "0.00000000000")


def format_number(x: float) -> str:
    """Render a float with 12 significant digits."""
    return _render(_CELL, (x,))


def grid_values(spec: SweepSpec) -> np.ndarray:
    """Ascending ``float64`` grid of the varied parameter, both ends exact.

    The linear grid is ``np.linspace``'s, from correctly rounded ``*``
    and ``+`` alone.  The log grid takes libm's ``pow`` in one Python
    pass, each point from its nearer end: with ``n = steps - 1`` and
    ``r = max/min``, point ``k`` is ``min * r ** (k/n)`` up to
    ``k = n/2`` and ``max / r ** ((n-k)/n)`` above.  Against 40-digit
    mpmath it is within 4.5 ulp of the exact point over 4000 random
    grids of up to 6 decades and 2-60 steps (``np.geomspace``: 42 ulp);
    the rounding of ``k/n`` makes the error grow with ``log(max/min)``,
    to 162 ulp at 300 decades.  Where ``max/min`` overflows, the
    interior points are ``exp(log(min) + (k/n) * log(max/min))``, whose
    every step is finite, within 2200 ulp.  The grid is allocated
    before the pass, so one too large to hold raises ``ValueError`` at
    once.
    """
    if spec.scale == "linear":
        return np.linspace(spec.min, spec.max, spec.steps)
    grid = np.empty(spec.steps)
    low, high, n = spec.min, spec.max, spec.steps - 1
    ratio = high / low
    if ratio < math.inf:
        half = n // 2 + 1
        upper = range(n - half, -1, -1)  # n - k for the points above the middle, ascending in k
        grid[:] = [low * ratio ** (k / n) for k in range(half)] + [high / ratio ** (j / n) for j in upper]
    else:
        start = math.log(low)
        span = math.log(high) - start
        # the ends are given: exp(log(max)) may round past the largest float
        grid[0], grid[-1] = low, high
        grid[1:-1] = [math.exp(start + span * (k / n)) for k in range(1, n)]
    return grid


def _verify(table: np.ndarray) -> None:
    """Recompute every row through the spectral route and compare.

    ``table`` holds the ``(N, 15)`` rows; the spectral side reads only
    their ``(alpha, omega, T)``, from which it builds the states.  Raises
    :class:`VerificationError` for the first (point, pair, measure), in
    grid order, whose closed-form and spectral values differ by more
    than ``VERIFY_ATOL``.
    """
    n = len(table)
    spectral = _factor_measures(_amplitudes(*table[:, :3].T))
    # CSV columns after the parameters run measure by measure, pair by pair
    closed = table[:, 3:].reshape(n, 4, len(_PAIRS)).transpose(0, 2, 1)
    # NaN on either side fails: it is never within the tolerance
    agree = np.abs(closed - spectral) <= VERIFY_ATOL
    if not agree.all():
        k, p, j = np.argwhere(~agree)[0]
        alpha, omega, temperature = table[k, :3].tolist()
        raise VerificationError(
            f"closed-form vs spectral mismatch at alpha={alpha:.12g}, "
            f"omega={omega:.12g}, temperature={temperature:.12g}: "
            f"{_PAIRS[p].value} {_MEASURES[j]}: {closed[k, p, j]:.15g} vs {spectral[k, p, j]:.15g}"
        )


# a table row's C and MI cells, in the order of the fields of ``LimitValues``
_LIMIT_CELLS = [3, 4, 5, 9, 10, 11]


def _verify_limits(report: LimitReport) -> None:
    """Check both columns of ``report`` through the spectral route, as :func:`_verify` checks a table.

    The report's T = 0 and T -> infinity values take the place of the C
    and MI cells of the table rows at ``(alpha, 1, 0)`` and
    ``(alpha, 1, inf)``, and both rows go through :func:`_verify`, their
    other cells with them.  T = inf is no model input, but both routes
    take it: ``w/T`` is 0 there, so both thermal weights are
    ``1/sqrt(2)``, those of the limit.  Raises
    :class:`VerificationError` for the first cell, T = 0 first, whose
    values differ by more than ``VERIFY_ATOL``.
    """
    table = _closed_table([(report.alpha, 1.0, 0.0), (report.alpha, 1.0, math.inf)])
    table[:, _LIMIT_CELLS] = [astuple(report.zero_temperature), astuple(report.infinite_temperature)]
    _verify(table)


def _rows(points, verify: bool) -> SweepRows:
    """The rows of an ``(N, 3)`` block of checked points from one table, cross-checked if ``verify``."""
    table = _closed_table(points)
    if verify:
        _verify(table)
    return SweepRows(map(_new_row, table.tolist()))


def evaluate_point(
    alpha: float, omega: float, temperature: float, verify: bool = True
) -> SweepRow:
    """Closed-form measures at one point, optionally cross-checked.

    The parameters are range-checked first, then ``verify`` as
    :class:`RunConfig` checks it.  The row is the one-row table of a
    sweep at the point.  With ``verify`` on, the three pair states of
    the point go through the same stacked spectral check as a sweep, as
    a batch of one; a gap above ``VERIFY_ATOL`` raises
    :class:`VerificationError` naming the point and the measure.
    """
    return _rows([check_params(alpha, omega, temperature)], _verify_flag(verify))[0]


def run_sweep(config: RunConfig) -> SweepRows:
    """Evaluate the sweep grid in ascending order: a tuple of :class:`SweepRow`.

    The whole grid is evaluated as one table, of one ``(N, 3)`` block
    of points (see the module docstring); ``SweepSpec`` has already
    range-checked it.  A block too large to allocate raises
    ``ValueError`` naming ``steps``.  With
    ``config.verify`` on, the table is then checked in one stacked
    spectral pass.  The rows, and so the emitted bytes, are the same as
    from :func:`evaluate_point` called on each grid value in turn.
    """
    spec = config.sweep
    try:
        points = np.empty((spec.steps, len(_VARIABLES)))
    except (MemoryError, ValueError) as exc:  # numpy raises ValueError past its largest dimension
        raise ValueError(f"steps {spec.steps} is too many to allocate the grid: {exc}") from None
    for i, name in enumerate(_VARIABLES):
        points[:, i] = grid_values(spec) if name == spec.vary else getattr(spec, name)
    return _rows(points, config.verify)


def _render_rows(rows, width: int) -> str:
    """The CSV lines of ``rows``: each row's cells, comma-separated, on a line of its own.

    Raises ``ValueError`` for the first row whose width is not
    ``width``, so a bad row is caught before anything is rendered.  All
    lines are rendered by one ``%`` call on a template of all the lines,
    one ``%#.12g`` conversion per cell, with every ``-0.0`` printed as
    ``0.0``.
    """
    cells = []
    for i, row in enumerate(rows):
        start = len(cells)
        cells += row
        if len(cells) - start != width:
            raise ValueError(f"row {i} has {len(cells) - start} values, expected {width}")
    return _render((",".join([_CELL] * width) + "\n") * (len(cells) // width), tuple(cells))


def _csv_text(names, rows) -> str:
    """CSV text: the header ``names``, then one line of comma-separated cells per row of ``rows``."""
    return ",".join(names) + "\n" + _render_rows(rows, len(names))


def emit_csv(rows: Iterable[SweepRow], stream: IO[str]) -> None:
    """Write the fixed 15-column schema with 12-digit values.

    ``rows`` is a :class:`SweepRows`, whose ``csv_body`` is written
    after the header, or any iterable of rows, which is made into one.
    Every row is rendered before anything is written, so a row of the
    wrong width raises ``ValueError`` and leaves ``stream`` untouched.
    """
    stream.write(",".join(CSV_COLUMNS) + "\n" + _sweep_rows(rows).csv_body)


def _json_records(body: str) -> str:
    """The JSON row records of a ``csv_body``, each value its cell's text as a strict JSON number.

    A cell ending in a bare ``.`` gets a trailing ``0``, and ``nan``,
    ``inf`` and ``-inf`` take ``json``'s ``NaN``, ``Infinity`` and
    ``-Infinity``.  These fix-ups run only when ``body`` holds an ``n``,
    which only ``nan`` and ``inf`` do, or a ``.`` before a ``,`` or a
    newline; otherwise they would find nothing.  The cells are then
    split apart and interleaved with the keys in one ``str.join``.
    """
    text = body.replace("\n", ",")  # so a "." ends its cell only before a ","
    if "n" in text or ".," in text:
        text = text.replace(".,", ".0,").replace("nan", "NaN").replace("inf", "Infinity")
    cells = text.split(",")
    cells.pop()  # the empty text after the last line's separator
    parts = [""] * (2 * len(cells))
    parts[::2] = _JSON_KEYS * (len(cells) // len(CSV_COLUMNS))
    parts[1::2] = cells
    parts[0] = _JSON_FIRST_KEY
    parts.append("\n  }")
    return "".join(parts)


def emit_json(rows: Iterable[SweepRow], stream: IO[str], config: RunConfig | None = None) -> None:
    """Write a top-level object with a config echo and a rows array, in ``json.dump``'s ``indent=1`` layout.

    ``rows`` is taken as :func:`emit_csv` takes it.  The head is the
    config echo (or null), its values encoded by one ``json.dumps`` call
    and filled into one template (see the module docstring).  Each row
    is an object from column name to the row's CSV cell, read off the
    rows' ``csv_body`` (see :func:`_json_records`), so each value parses
    to ``float()`` of its CSV cell and the two formats agree exactly.
    Rows of the wrong width raise ``ValueError`` before anything is
    written.
    """
    body = _sweep_rows(rows).csv_body  # raises on a bad row before anything is written
    if config is None:
        head = _JSON_HEAD_NO_CONFIG
    else:
        echo = (*_spec_values(config.sweep), config.output_format, config.out, config.verify, config.mass)
        # json.dumps writes a NUL inside a string as \u0000, so a raw NUL can only be a separator
        head = _JSON_HEAD % tuple(json.dumps(echo, separators=("\0", ":"))[1:-1].split("\0"))
    if not body:
        stream.write(head + "[]\n}\n")
        return
    stream.write(head + "[\n" + _json_records(body) + "\n ]\n}\n")

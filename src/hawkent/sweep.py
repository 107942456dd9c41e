"""Parameter sweeps over the three-mode model, with CSV/JSON emission.

A sweep varies exactly one of (alpha, omega, temperature) over an
ascending grid while the other two stay fixed.  Each grid point yields
one row of twelve measures (four per mode pair) from one call of
:func:`~hawkent.model.closed_forms`, which computes the thermal weights
once per point.  In verify mode the whole grid is then recomputed
through the spectral route in one pass: the amplitudes of every point
come from the same thermal weights, the reduced states of every point
and pair are built as one ``(N, 3, 4, 4)`` stack, :func:`measure_stack`
measures them all at once, and the run aborts on the first
disagreement beyond 1e-9 in grid order, so emitted numbers are never
untested.  The spectral route never reads a closed-form value, and the
emitted values are the closed forms either way.

Numbers are rendered with 12 significant digits in both formats; JSON
values are rounded to the same digits, so the two emissions of one run
agree to better than 1e-12.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import IO

import numpy as np

from .measures import measure_stack
from .model import ModePair, _amplitudes, check_params, closed_forms, pair_states

__all__ = [
    "CSV_COLUMNS",
    "VERIFY_ATOL",
    "VerificationError",
    "SweepSpec",
    "RunConfig",
    "SweepRow",
    "format_number",
    "grid_values",
    "evaluate_point",
    "run_sweep",
    "emit_csv",
    "emit_json",
]

VERIFY_ATOL = 1e-9

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
    valid fixed values.
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
        if not (math.isfinite(self.min) and math.isfinite(self.max) and self.min < self.max):
            raise ValueError(f"need min < max, got [{self.min!r}, {self.max!r}]")
        try:
            steps = operator.index(self.steps)
        except TypeError:
            steps = 0
        if steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.min <= 0.0:
            raise ValueError(f"log scale needs min > 0, got {self.min!r}")
        if getattr(self, self.vary) is not None:
            raise ValueError(f"{self.vary} is the varied parameter and cannot also be fixed")
        bounds = {
            "alpha": (0.0 < self.min and self.max < 1.0, "inside (0, 1)"),
            "omega": (self.min > 0.0, "positive"),
            "temperature": (self.min >= 0.0, "non-negative"),
        }
        ok, req = bounds[self.vary]
        if not ok:
            raise ValueError(f"{self.vary} grid must stay {req}, got [{self.min!r}, {self.max!r}]")
        for name in _VARIABLES:
            if name == self.vary:
                continue
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"fixed parameter {name} is required when varying {self.vary}")
            check_params(**{name: value})


@dataclass(frozen=True)
class RunConfig:
    """A sweep plus emission settings.

    ``mass`` records the black-hole mass when the fixed temperature was
    derived from one; it is informational and echoed into JSON output.
    """

    sweep: SweepSpec
    output_format: str = "csv"
    out: str | None = None
    verify: bool = True
    mass: float | None = None

    def __post_init__(self):
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output_format must be 'csv' or 'json', got {self.output_format!r}")


class SweepRow(namedtuple("SweepRow", [c.lower().replace("minpt", "min_pt") for c in CSV_COLUMNS])):
    """One parameter point and its twelve measures, in the order of ``CSV_COLUMNS``.

    Field names are the column names in lower case, ``minPT`` spelled
    ``min_pt``: ``alpha``, ..., ``c_a_i``, ..., ``min_pt_i_ii``.
    """

    __slots__ = ()

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


def format_number(x: float) -> str:
    """Render a float with 12 significant digits."""
    if x == 0.0:
        x = 0.0  # fold -0.0 into 0.0
    return format(x, "#.12g")


def grid_values(spec: SweepSpec) -> np.ndarray:
    """Ascending grid of the varied parameter."""
    if spec.scale == "log":
        return np.geomspace(spec.min, spec.max, spec.steps)
    return np.linspace(spec.min, spec.max, spec.steps)


def _verify(rows: list[SweepRow]) -> None:
    """Recompute every row through the spectral route and compare.

    Raises :class:`VerificationError` for the first (point, pair,
    measure), in grid order, whose closed-form and spectral values
    differ by more than ``VERIFY_ATOL``.
    """
    amplitudes = _amplitudes([r[:3] for r in rows])
    states = np.stack([pair_states(amplitudes, pair) for pair in _PAIRS], axis=1)
    spectral = measure_stack(states.reshape(-1, 4, 4)).reshape(len(rows), len(_PAIRS), 4)
    # CSV columns after the parameters run measure by measure, pair by pair
    closed = np.array(rows)[:, 3:].reshape(len(rows), 4, len(_PAIRS)).transpose(0, 2, 1)
    failing = np.argwhere(np.abs(closed - spectral) > VERIFY_ATOL)
    if failing.size:
        k, p, j = failing[0]
        row = rows[k]
        raise VerificationError(
            f"closed-form vs spectral mismatch at alpha={row.alpha:.12g}, "
            f"omega={row.omega:.12g}, temperature={row.temperature:.12g}: "
            f"{_PAIRS[p].value} {_MEASURES[j]}: {closed[k, p, j]:.15g} vs {spectral[k, p, j]:.15g}"
        )


def evaluate_point(
    alpha: float, omega: float, temperature: float, verify: bool = True
) -> SweepRow:
    """Closed-form measures at one point, optionally cross-checked.

    The parameters are range-checked first.  With ``verify`` on, the
    three pair states of the point go through the same stacked spectral
    check as a sweep, as a batch of one; a gap above ``VERIFY_ATOL``
    raises :class:`VerificationError` naming the point and the measure.
    """
    check_params(alpha, omega, temperature)
    row = SweepRow(alpha, omega, temperature, *closed_forms(alpha, omega, temperature))
    if verify:
        _verify([row])
    return row


def run_sweep(config: RunConfig) -> list[SweepRow]:
    """Evaluate the sweep grid in ascending order.

    Each row comes from one :func:`closed_forms` call at its grid point;
    ``SweepSpec`` has already range-checked the whole grid.  With
    ``config.verify`` on, the whole grid is then checked in one stacked
    spectral pass.  The rows, and so the emitted bytes, are the same as
    from :func:`evaluate_point` called on each grid value in turn.
    """
    spec = config.sweep
    point = [getattr(spec, name) for name in _VARIABLES]
    varied = _VARIABLES.index(spec.vary)
    rows = []
    for value in grid_values(spec).tolist():
        point[varied] = value
        rows.append(SweepRow(*point, *closed_forms(*point)))
    if config.verify:
        _verify(rows)
    return rows


def emit_csv(rows: list[SweepRow], stream: IO[str]) -> None:
    """Write the fixed 15-column schema with 12-digit values."""
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        stream.write(",".join(format_number(v) for v in row) + "\n")


def emit_json(rows: list[SweepRow], stream: IO[str], config: RunConfig | None = None) -> None:
    """Write a top-level object with a config echo and a rows array.

    Row values are rounded to the same 12 significant digits as the CSV
    rendering, so the two formats agree numerically.
    """
    payload = {
        "config": None if config is None else {**asdict(config.sweep), **{
            "format": config.output_format,
            "out": config.out,
            "verify": config.verify,
            "mass": config.mass,
        }},
        "rows": [
            {name: float(format_number(v)) for name, v in zip(CSV_COLUMNS, row)}
            for row in rows
        ],
    }
    json.dump(payload, stream, indent=1)
    stream.write("\n")

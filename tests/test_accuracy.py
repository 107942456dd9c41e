"""Printed cells against a high-precision evaluation of the closed forms.

The reference evaluates each measure in mpmath at 60 digits from the
same floats the CLI evaluates: the parameters as given, and every grid
value from ``grid_values``, never from the printed cells.  Its
formulas avoid every cancellation the float forms may have: the EoF
takes its small probability ``C^2 / (2 (1 + sqrt(1 - C^2)))`` and
``log1p``, the min PT eigenvalue ``-C^2 / (2 (d + sqrt(d^2 + C^2)))``,
and the mutual informations run at enough extra digits to resolve
their O(f+^2) differences of entropies.

A float cell must lie within ``_rel_bound`` of the exact value: a few
eps, plus the ``x / 2`` eps that rounding ``x = w / T`` once carries
into ``f+ = exp(-x / 2) / ...`` and on into C (``x / 4``), EoF and
min PT (``x / 2``).  Its 12-digit text must be the exact value rounded
to 12 digits.  Only a cell named in ``NEAR_BOUNDARY`` (none is today)
may print the other neighbour of a rounding boundary that lies within
its bound of the exact value.  An exact value below the smallest normal
double has fewer than 53 bits there, or none: its cell must only lie
below the smallest normal double too.
"""

import csv
import io
import json
import math
from decimal import ROUND_HALF_EVEN, Decimal

import mpmath
import numpy as np
import pytest

from hawkent.cli import build_parser, figure_command
from hawkent.model import _closed_table, asymptotic_limits, hawking_temperature
from hawkent.sweep import CSV_COLUMNS, RunConfig, SweepSpec, grid_values, run_sweep
from output_corpus import CORPUS_PATH, INVOCATIONS

DIGITS = 60
EPS = np.finfo(float).eps
SMALLEST_NORMAL = np.finfo(float).tiny
# labels of the cells whose exact value lies within its bound of a 12-digit rounding boundary
NEAR_BOUNDARY = frozenset()

C_COLUMNS = CSV_COLUMNS[3:6]
EOF_COLUMNS = CSV_COLUMNS[6:9]
MI_COLUMNS = CSV_COLUMNS[9:12]
MIN_PT_COLUMNS = CSV_COLUMNS[12:15]
FIGURE_DEFAULTS = {"alpha": 1.0 / math.sqrt(2.0), "omega": 1.0, "t_max": 10.0, "steps": 200}


def _weights_squared(omega, temperature):
    """Exact ``(f-^2, f+^2)``; a temperature of ``inf`` is the hot limit."""
    if temperature == 0.0:
        return mpmath.mpf(1), mpmath.mpf(0)
    if math.isinf(temperature):
        return mpmath.mpf(0.5), mpmath.mpf(0.5)
    e = mpmath.exp(-mpmath.mpf(omega) / mpmath.mpf(temperature))
    return 1 / (1 + e), e / (1 + e)


def _h2(p):
    """Binary entropy in bits, accurate for a ``p`` of any size."""
    if p == 0:
        return mpmath.mpf(0)
    return -(p * mpmath.log(p) + (1 - p) * mpmath.log1p(-p)) / mpmath.log(2)


def _exact(alpha, omega, temperature, columns):
    """Exact values of ``columns`` at the float point ``(alpha, omega, temperature)``."""
    with mpmath.workdps(DIGITS):
        fm2, fp2 = _weights_squared(omega, temperature)
        a = mpmath.mpf(alpha)
        a2 = a * a
        pure = 2 * a * mpmath.sqrt(1 - a2)
        c = [pure * mpmath.sqrt(fm2), pure * mpmath.sqrt(fp2), 2 * a2 * mpmath.sqrt(fm2 * fp2)]
        values = dict(zip(C_COLUMNS, c))
        values.update(zip(EOF_COLUMNS, [_h2(x * x / (2 * (1 + mpmath.sqrt(1 - x * x)))) for x in c]))
        # each partial transpose's block [[d, C/2], [C/2, 0]], d never 0 where C is
        d = [a2 * fp2, a2 * fm2, 1 - a2]
        values.update(zip(MIN_PT_COLUMNS, [-x * x / (2 * (y + mpmath.sqrt(y * y + x * x))) for x, y in zip(c, d)]))
    if set(columns) & set(MI_COLUMNS):
        # s_a and s_i agree to O(f+^2), so resolve f+^2 below the working digits
        extra = int(-mpmath.log10(fp2)) if fp2 else 0
        with mpmath.workdps(DIGITS + extra):
            fm2, fp2 = _weights_squared(omega, temperature)
            a2 = mpmath.mpf(alpha) ** 2
            s_a, s_i, s_ii = _h2(a2), _h2(a2 * fm2), _h2(a2 * fp2)
            mi = [s_a + s_i - s_ii, s_a + s_ii - s_i, s_i + s_ii - s_a]
        values.update(zip(MI_COLUMNS, [+x for x in mi]))
    return [values[name] for name in columns]


# the largest errors measured, beyond x / 2 eps, were 3.3 eps over figures 1 and 2 at
# their defaults, and 3.3 eps on C and EoF and 2.7 eps on min PT over the corpus
FIGURE_ULPS = 8.0
CORPUS_ULPS = 8.0


def _rel_bound(ulps, omega, temperature):
    """The bound on a cell's relative error at ``(omega, temperature)``: ``ulps + x / 2`` eps."""
    x = omega / temperature if 0.0 < temperature < math.inf else 0.0
    return (ulps + x / 2.0) * EPS


def _round12(x):
    """``x`` rounded to 12 significant digits, half to even."""
    if x == 0:
        return Decimal(0)
    d = Decimal(mpmath.nstr(x, 40, min_fixed=1, max_fixed=0))
    return d.quantize(Decimal(1).scaleb(d.adjusted() - 11), ROUND_HALF_EVEN)


def _wrong_cells(cells, ulps):
    """Descriptions of the cells that fail the check.

    ``cells`` yields ``(label, point, value, text, exact)``: a float
    cell, its ``(alpha, omega, T)``, its printed text and its exact value.
    """
    wrong = []
    for label, (_, omega, temperature), value, text, exact in cells:
        bound = _rel_bound(ulps, omega, temperature)
        with mpmath.workdps(DIGITS):
            if abs(exact) < SMALLEST_NORMAL:
                if not abs(value) < SMALLEST_NORMAL:
                    wrong.append(f"{label}: {value!r} for {mpmath.nstr(exact, 15)}")
                continue
            error = abs(mpmath.mpf(value) - exact) / abs(exact)
            if error > bound:
                wrong.append(f"{label}: {value!r} is {float(error):.3g} off {mpmath.nstr(exact, 20)}")
                continue
            if label in NEAR_BOUNDARY:
                # either 12-digit neighbour of a boundary within the bound of the exact value
                allowed = {_round12(exact * (1 - bound)), _round12(exact * (1 + bound))}
                if len(allowed) == 1 or Decimal(text) not in allowed:
                    wrong.append(f"{label}: prints {text}, exact {mpmath.nstr(exact, 20)}, named in NEAR_BOUNDARY")
            elif Decimal(text) != _round12(exact):
                wrong.append(f"{label}: prints {text}, exact {mpmath.nstr(exact, 20)}")
    return wrong


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _grid_points(spec):
    """The ``(alpha, omega, T)`` points of a sweep, in grid order."""
    fixed = [spec.alpha, spec.omega, spec.temperature]
    varied = ("alpha", "omega", "temperature").index(spec.vary)
    return [(*fixed[:varied], x, *fixed[varied + 1:]) for x in grid_values(spec).tolist()]


def _table_cells(label, points, printed, columns):
    """The check's cells of a table printed as ``printed``, one dict of texts per point."""
    for point, row, text in zip(points, _closed_table(points).tolist(), printed, strict=True):
        values = dict(zip(CSV_COLUMNS, row))
        for name, exact in zip(columns, _exact(*point, columns)):
            yield f"{label} | {point} | {name}", point, values[name], text[name], exact


def _figure_cells(which, columns, alpha, omega, t_max, steps):
    spec = SweepSpec(vary="temperature", min=0.01, max=t_max, steps=steps, scale="log",
                     alpha=alpha, omega=omega)
    points = _grid_points(spec)
    printed = _csv_rows(figure_command(which, alpha, omega, t_max, steps))
    label = f"figure {which}"
    for point, text in zip(points, printed, strict=True):
        # the temperature cell is the grid value itself
        yield f"{label} | {point} | temperature", point, point[2], text["temperature"], mpmath.mpf(point[2])
    yield from _table_cells(label, points, printed, [c for c in columns if c in printed[0]])


def _sweep_spec(args):
    """The grid of a parsed ``sweep`` invocation."""
    temperature = args.temperature if args.mass is None else hawking_temperature(args.mass)
    return SweepSpec(vary=args.vary, min=args.min, max=args.max, steps=args.steps, scale=args.scale,
                     alpha=args.alpha, omega=args.omega, temperature=temperature)


def _invocation_cells(argv, columns=C_COLUMNS + EOF_COLUMNS):
    """The check's cells of every ``columns`` value that ``hawkent argv`` prints; ``limits`` prints C."""
    args = build_parser().parse_args(argv)
    label = " ".join(argv)
    if args.command == "figure":
        yield from _figure_cells(args.which, columns, args.alpha, args.omega, args.t_max, args.steps)
        return
    if args.command == "limits":
        report = asymptotic_limits(args.alpha)
        lines = args.handler(args).splitlines()[2:5]
        for temperature, limit in ((0.0, report.zero_temperature), (math.inf, report.infinite_temperature)):
            exact = _exact(args.alpha, 1.0, temperature, C_COLUMNS)
            values = (limit.c_a_i, limit.c_a_ii, limit.c_i_ii)
            for name, line, value, x in zip(C_COLUMNS, lines, values, exact, strict=True):
                text = line.split()[1 + (temperature != 0.0)]
                yield f"{label} | T={temperature} | {name}", (args.alpha, 1.0, temperature), value, text, x
        return
    if args.command == "measure":
        temperature = args.temperature if args.mass is None else hawking_temperature(args.mass)
        points = [(args.alpha, args.omega, temperature)]
        printed = [dict(line.split(" = ") for line in args.handler(args).splitlines())]
    else:
        points = _grid_points(_sweep_spec(args))
        text = args.handler(args)
        # parse_float keeps each JSON number's text
        printed = json.loads(text, parse_float=str)["rows"] if args.format == "json" else _csv_rows(text)
    yield from _table_cells(label, points, printed, columns)


def _prints_c_or_eof(argv):
    return argv[0] in ("measure", "sweep", "limits") or argv[:2] in (["figure", "1"], ["figure", "2"])


CORPUS_CASES = [
    pytest.param(argv, id=" ".join(argv))
    for argv, record in zip(INVOCATIONS, json.loads(CORPUS_PATH.read_text(encoding="utf-8")))
    if record["exit"] == 0 and _prints_c_or_eof(argv)
]


@pytest.mark.parametrize("which", [1, 2])
def test_figure_cells_match_mpmath(which):
    columns = {1: C_COLUMNS, 2: EOF_COLUMNS}[which]
    cells = list(_figure_cells(which, columns, **FIGURE_DEFAULTS))
    assert len(cells) == 4 * FIGURE_DEFAULTS["steps"]
    wrong = _wrong_cells(cells, FIGURE_ULPS)
    assert not wrong, f"{len(wrong)} wrong cells:\n" + "\n".join(wrong)


@pytest.mark.xfail(
    strict=True,
    reason="D22: s_a + s_ii - s_i and s_i + s_ii - s_a cancel; figure 3 prints 123 MI cells wrong",
)
def test_figure_3_mi_cells_match_mpmath():
    wrong = _wrong_cells(_figure_cells(3, MI_COLUMNS, **FIGURE_DEFAULTS), FIGURE_ULPS)
    assert not wrong, f"{len(wrong)} wrong cells:\n" + "\n".join(wrong)


@pytest.mark.parametrize("argv", CORPUS_CASES)
def test_corpus_c_and_eof_cells_match_mpmath(argv):
    cells = list(_invocation_cells(argv))
    assert cells
    wrong = _wrong_cells(cells, CORPUS_ULPS)
    assert not wrong, f"{len(wrong)} wrong cells:\n" + "\n".join(wrong)


@pytest.mark.parametrize("argv", [case for case in CORPUS_CASES if case.values[0][0] in ("measure", "sweep")])
def test_corpus_min_pt_cells_match_mpmath(argv):
    cells = list(_invocation_cells(argv, MIN_PT_COLUMNS))
    assert cells
    wrong = _wrong_cells(cells, CORPUS_ULPS)
    assert not wrong, f"{len(wrong)} wrong cells:\n" + "\n".join(wrong)


# the default figure grid at three alphas, and the grid of every corpus sweep
SIGN_SPECS = [
    SweepSpec(vary="temperature", min=0.01, max=10.0, steps=200, scale="log", alpha=alpha, omega=1.0)
    for alpha in (FIGURE_DEFAULTS["alpha"], 0.3, 0.9)
] + [_sweep_spec(build_parser().parse_args(case.values[0])) for case in CORPUS_CASES
     if case.values[0][0] == "sweep"]


def test_min_pt_is_negative_exactly_where_c_is_nonzero():
    # Peres: a two-qubit state is entangled iff its partial transpose has a negative
    # eigenvalue, so each pair's C and min PT cells agree wherever C^2 is resolved
    wrong = []
    for spec in SIGN_SPECS:
        for row in run_sweep(RunConfig(sweep=spec)):
            for pair, c, min_pt in zip(("A_I", "A_II", "I_II"), row[3:6], row[12:15]):
                if (c * c >= SMALLEST_NORMAL and not min_pt < 0.0
                        or c == 0.0 and (min_pt, math.copysign(1.0, min_pt)) != (0.0, 1.0)):
                    wrong.append(f"{spec} | {row[:3]} | {pair}: C {c!r}, min PT {min_pt!r}")
    assert not wrong, f"{len(wrong)} cells disagree:\n" + "\n".join(wrong)

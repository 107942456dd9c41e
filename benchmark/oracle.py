"""High-precision reference values for the benchmark's output checks.

Everything here runs in mpmath at 40 significant digits and shares no
code with hawkent.

Model rows.  Every pair reduction of the three-mode state
``alpha f- |000> + alpha f+ |011> + sqrt(1-alpha^2) |110>`` is an X state:
populations ``p00, p01, p10, p11`` on the diagonal and the coherences
``z = <00|rho|11>`` and ``y = <01|rho|10>``.  The reference takes the
paper's thermal weights, forms the three X states and evaluates the
generic X-state formulas for concurrence, entanglement of formation,
mutual information and the smallest partial-transpose eigenvalue.

Arbitrary states.  The four measures of a 4x4 density matrix are
evaluated from its exact float64 entries with mpmath eigensolvers:
Wootters' concurrence from the spectrum of the Hermitian matrix
``sqrt(rho) rho~ sqrt(rho)``.  At 40 digits the square roots of its
eigenvalue dust are about 1e-20, not the ~1e-8 a float64 evaluation of
``sqrt(eig(rho rho~))`` gives on rank-deficient states.
"""

from __future__ import annotations

import json

import mpmath
from mpmath import mp

import checks

DPS = 40

# sigma_y (x) sigma_y, which is real.
_SPIN_FLIP = ((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))


def _entropy(probs) -> mpmath.mpf:
    """Shannon entropy in bits; dust below zero counts as zero."""
    return -sum((p * mpmath.log(p, 2) for p in probs if p > 0), mpmath.mpf(0))


def _block(p, q, c) -> tuple:
    """Eigenvalues of ``[[p, c], [conj(c), q]]``, the small one cancellation-free."""
    mean = (p + q) / 2
    big = mean + mpmath.sqrt(((p - q) / 2) ** 2 + abs(c) ** 2)
    small = (p * q - abs(c) ** 2) / big if big > 0 else mpmath.mpf(0)
    return small, big


def _eof(c) -> mpmath.mpf:
    root = mpmath.sqrt(max(mpmath.mpf(0), 1 - c * c))
    return _entropy(((1 + root) / 2, (1 - root) / 2))


def _x_state_measures(p00, p01, p10, p11, z, y) -> tuple:
    c = 2 * max(mpmath.mpf(0), abs(z) - mpmath.sqrt(p01 * p10), abs(y) - mpmath.sqrt(p00 * p11))
    joint = _entropy(_block(p00, p11, z) + _block(p01, p10, y))
    first = _entropy((p00 + p01, p10 + p11))
    second = _entropy((p00 + p10, p01 + p11))
    # transposing the second qubit swaps the two coherences between blocks
    min_pt = min(_block(p00, p11, y) + _block(p01, p10, z))
    return c, _eof(c), first + second - joint, min_pt


def model_row(alpha: float, omega: float, temperature) -> list[float]:
    """The 15 CSV columns at one point; ``temperature`` may be an mpf."""
    with mp.workdps(DPS):
        a = mpmath.mpf(alpha)
        x = mpmath.mpf(omega) / mpmath.mpf(temperature)
        f_minus = 1 / mpmath.sqrt(mpmath.exp(-x) + 1)
        f_plus = 1 / mpmath.sqrt(mpmath.exp(x) + 1)
        b = mpmath.sqrt(1 - a * a)
        a2, b2 = a * a, b * b
        fm2, fp2 = f_minus**2, f_plus**2
        zero = mpmath.mpf(0)
        pairs = (
            # A_I: |u><u| + a^2 f+^2 |01><01|, u = a f- |00> + b |11>
            _x_state_measures(a2 * fm2, a2 * fp2, zero, b2, a * f_minus * b, zero),
            # A_II: a^2 f-^2 |00><00| + |v><v|, v = a f+ |01> + b |10>
            _x_state_measures(a2 * fm2, a2 * fp2, b2, zero, zero, a * f_plus * b),
            # I_II: |w><w| + b^2 |10><10|, w = a f- |00> + a f+ |11>
            _x_state_measures(a2 * fm2, zero, b2, a2 * fp2, a2 * f_minus * f_plus, zero),
        )
        measures = [float(pairs[p][m]) for m in range(4) for p in range(3)]
        return [float(alpha), float(omega), float(temperature), *measures]


def log_grid(t_min: float, t_max: float, steps: int) -> list[mpmath.mpf]:
    """``steps`` log-spaced temperatures from ``t_min`` to ``t_max``, both included."""
    with mp.workdps(DPS):
        lo, hi = mpmath.log(t_min), mpmath.log(t_max)
        return [mpmath.exp(lo + (hi - lo) * k / (steps - 1)) for k in range(steps)]


def sweep_rows(alpha: float, omega: float, grid) -> list[list[float]]:
    return [model_row(alpha, omega, t) for t in grid]


def _matrix(entries) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpc(re, im) for re, im in row] for row in entries])


def state_measures(entries) -> list[float]:
    """Concurrence, EoF, mutual information and min PT eigenvalue of a state.

    ``entries`` is a 4x4 nested list of ``(re, im)`` float pairs, taken
    as exact.  Eigenvalue dust below zero is clamped to zero, as for a
    physical state.
    """
    with mp.workdps(DPS):
        rho = _matrix(entries)
        rho = (rho + rho.H) / 2
        evals, vecs = mp.eighe(rho)
        evals = [max(e, 0) for e in evals]
        root = vecs * mpmath.diag([mpmath.sqrt(e) for e in evals]) * vecs.H
        flip = mpmath.matrix(_SPIN_FLIP)
        tilde = flip * rho.conjugate() * flip
        herm = root * tilde * root
        lams = sorted((max(e, 0) for e in mp.eighe((herm + herm.H) / 2, eigvals_only=True)), reverse=True)
        roots = [mpmath.sqrt(v) for v in lams]
        c = max(mpmath.mpf(0), roots[0] - roots[1] - roots[2] - roots[3])
        first = mpmath.matrix(2, 2)
        second = mpmath.matrix(2, 2)
        pt = mpmath.matrix(4, 4)
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        v = rho[2 * i1 + i2, 2 * j1 + j2]
                        if i2 == j2:
                            first[i1, j1] += v
                        if i1 == j1:
                            second[i2, j2] += v
                        pt[2 * j1 + i2, 2 * i1 + j2] = v
        mi = (
            _entropy(mp.eighe(first, eigvals_only=True))
            + _entropy(mp.eighe(second, eigvals_only=True))
            - _entropy(evals)
        )
        min_pt = min(mp.eighe(pt, eigvals_only=True))
        return [float(c), float(_eof(c)), float(mi), float(min_pt)]


def self_test() -> str | None:
    """Show that the oracle and the checks accept right values and reject wrong ones.

    Returns ``None`` on success, else what went wrong.  The reference is
    first tested against values known in closed form; then a table that
    matches it must pass every check, and the same table with one value
    moved by 1e-8 (ten times the gate) must fail each of them.
    """
    half = 2.0**-0.5
    bell = [[(0.5 if i in (0, 3) and j in (0, 3) else 0.0, 0.0) for j in range(4)] for i in range(4)]
    known = {
        "Bell state": (state_measures(bell), [1.0, 1.0, 2.0, -0.5]),
        # T -> 0 leaves only A_I entangled: C = 2 alpha sqrt(1 - alpha^2) = 1
        "T = 0 limit": (model_row(half, 1.0, 1e-6)[3:6], [1.0, 0.0, 0.0]),
    }
    for label, (got, want) in known.items():
        if any(abs(g - w) > 1e-15 for g, w in zip(got, want)):
            return f"oracle self-test: {label} gives {got}, expected {want}"

    grid = log_grid(0.01, 100.0, 5)
    want = sweep_rows(0.3, 2.0, grid)
    rows = [list(r) for r in want]
    csv_text = _csv(checks.MODEL_COLUMNS, rows)
    json_text = _json(rows)
    figure_rows = [[r[checks.MODEL_COLUMNS.index(n)] for n in ("temperature", *checks.FIGURE_COLUMNS[2])] for r in rows]
    figure_text = _csv(("temperature", *checks.FIGURE_COLUMNS[2]), figure_rows)
    state_want = state_measures(bell)

    def verdicts(rows, csv_text, json_text, figure_text, state):
        return {
            "rows": checks.check_rows(rows, want),
            "closed": checks.check_closed(rows, csv_text, json_text, want),
            "figure": checks.check_figure(figure_text, 2, want),
            "state": checks.check_state(state, state_want),
        }

    for name, problem in verdicts(rows, csv_text, json_text, figure_text, state_want).items():
        if problem is not None:
            return f"check self-test: exact {name} output rejected: {problem}"

    bumped = [list(r) for r in rows]
    bumped[2][7] += 1e-8
    bumped_figure = [list(r) for r in figure_rows]
    bumped_figure[2][2] += 1e-8
    wrong = verdicts(
        bumped,
        _csv(checks.MODEL_COLUMNS, bumped),
        _json(bumped),
        _csv(("temperature", *checks.FIGURE_COLUMNS[2]), bumped_figure),
        [state_want[0] + 1e-8, *state_want[1:]],
    )
    wrong["csv only"] = checks.check_closed(rows, _csv(checks.MODEL_COLUMNS, bumped), json_text, want)
    wrong["json only"] = checks.check_closed(rows, csv_text, _json(bumped), want)
    wrong["header"] = checks.check_closed(rows, csv_text.replace("C_A_II,C_I_II", "C_I_II,C_A_II"), json_text, want)
    wrong["row count"] = checks.check_closed(rows[:-1], csv_text, json_text, want)
    for name, problem in wrong.items():
        if problem is None:
            return f"check self-test: {name} output off by 1e-8 was accepted"
    return None


def _csv(columns, rows) -> str:
    lines = [",".join(columns)] + [",".join(format(v, "#.12g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(rows) -> str:
    records = [dict(zip(checks.MODEL_COLUMNS, (float(format(v, "#.12g")) for v in row))) for row in rows]
    return json.dumps({"rows": records})

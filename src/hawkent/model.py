"""Three-mode Dirac field state near a Schwarzschild horizon.

An inertial observer prepares ``alpha|00> + sqrt(1-alpha^2)|11>``
between her own fermionic mode A and a partner mode.  For an observer
hovering outside the horizon the partner mode splits into an exterior
part (mode I) and a causally disconnected interior part (mode II), and
the exterior vacuum acquires a thermal character at the Hawking
temperature ``T = 1/(8 pi M)``.  Pauli exclusion caps each mode at one
excitation, so the joint state lives in an 8-dimensional space with
basis ``|m>_A |n>_I |p>_II`` indexed by ``4m + 2n + p``:

    |psi> = alpha f- |000> + alpha f+ |011> + sqrt(1-alpha^2) |110>

with the thermal weights ``f- = (exp(-w/T) + 1)^(-1/2)`` and
``f+ = (exp(+w/T) + 1)^(-1/2)``, satisfying ``f-^2 + f+^2 = 1``.

Every pairwise measure of this family has a closed form in ``alpha``
and ``w/T``.  The closed forms are exposed alongside the generic
spectral route (the measures in :mod:`hawkent.measures` of each pair
state ``L L^dagger``), so the two can be cross-checked at any
parameter point; the sweep driver does exactly that in verify mode.
The routes share no thermal weight: the closed forms take theirs from
libm, every spectral route from the Bogoliubov angle in the one state
builder, :func:`_amplitudes`, so a wrong weight shows as a gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .measures import DensityMatrix, _FACTOR_ENTRIES, _binary_entropies, validate_density

__all__ = [
    "check_params",
    "ModePair",
    "ModelParams",
    "ThermalFactors",
    "LimitValues",
    "LimitReport",
    "hawking_temperature",
    "thermal_factors",
    "tripartite_state",
    "reduced_density",
    "pair_states",
    "closed_forms",
    "closed_form_concurrence",
    "closed_form_min_pt_eigenvalue",
    "closed_form_eof",
    "closed_form_mutual_information",
    "asymptotic_limits",
]


def _finite(x) -> bool:
    """``math.isfinite(x)``, and False for a Python int too large to become a float."""
    # not a bound of the largest float: numpy casts it to float32 input's type, and warns
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_SKIPPED = object()  # the default of a parameter left out; an explicit None is checked


def check_params(alpha=_SKIPPED, omega=_SKIPPED, temperature=_SKIPPED) -> tuple[float | None, ...]:
    """Range check of the model parameters; a parameter left out is skipped.

    ``alpha`` must lie strictly inside (0, 1), ``omega`` must be positive
    and finite, ``temperature`` non-negative and finite, where finite
    means finite as a float.  Raises ValueError naming the first
    parameter out of range.  NaN fails every comparison, and None or a
    ``str`` raises TypeError.  Returns ``(alpha, omega, temperature)``
    as Python floats, each checked as given and then taken by
    ``float()``; a skipped parameter is None.
    """
    if alpha is not _SKIPPED and not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    if omega is not _SKIPPED and not (0.0 < omega and _finite(omega)):
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if temperature is not _SKIPPED and not (0.0 <= temperature and _finite(temperature)):
        raise ValueError(f"temperature must be non-negative and finite, got {temperature!r}")
    return tuple([None if x is _SKIPPED else float(x) for x in (alpha, omega, temperature)])


class ModePair(Enum):
    """The three cuts of the tripartite state."""

    A_I = "A_I"
    A_II = "A_II"
    I_II = "I_II"


@dataclass(frozen=True)
class ModelParams:
    """Point in parameter space.

    ``alpha`` is the initial superposition weight, strictly inside
    (0, 1); ``omega`` the mode frequency (> 0); ``temperature`` the
    Hawking temperature (>= 0, with 0 meaning the flat-space limit).
    Only the ratio ``omega / temperature`` enters any measure.  The
    fields are stored as :func:`check_params` returns them.
    """

    alpha: float
    omega: float
    temperature: float

    def __post_init__(self):
        checked = check_params(self.alpha, self.omega, self.temperature)
        for name, value in zip(("alpha", "omega", "temperature"), checked):
            object.__setattr__(self, name, value)

    @cached_property
    def _closed_forms(self) -> tuple[float, ...]:
        # the four closed_form_* views of one point share one evaluation, of the checked fields
        return tuple(_closed_table([(self.alpha, self.omega, self.temperature)])[0, 3:].tolist())


@dataclass(frozen=True)
class ThermalFactors:
    """Fermionic weights ``(f-, f+)`` with ``f-^2 + f+^2 = 1``."""

    f_minus: float
    f_plus: float


@dataclass(frozen=True)
class LimitValues:
    """Concurrence and mutual information of the three pairs."""

    c_a_i: float
    c_a_ii: float
    c_i_ii: float
    mi_a_i: float
    mi_a_ii: float
    mi_i_ii: float


@dataclass(frozen=True)
class LimitReport:
    """Closed-form values at T = 0 and T -> infinity.

    ``accessible_mi_ratio`` is I(A,I) at infinite temperature divided
    by its T = 0 value, ``H2(a^2) / (2 H2(a^2))``: exactly 1/2 in
    floating point wherever ``alpha^2`` is nonzero.  Where ``alpha^2``
    underflows to 0 both values are 0.0, and the ratio is NaN.
    """

    alpha: float
    zero_temperature: LimitValues
    infinite_temperature: LimitValues
    accessible_mi_ratio: float


def hawking_temperature(mass: float) -> float:
    """``T = 1 / (8 pi M)`` in geometric units (G = c = hbar = k = 1), as a Python float.

    A numpy mass, such as a ``float32``, is taken as a Python float first.
    """
    if not (0.0 < mass and _finite(mass)):
        raise ValueError(f"mass must be positive and finite, got {mass!r}")
    mass = float(mass)
    denominator = 8.0 * math.pi * mass
    # past about 1.4e306 the product overflows; the reordered form keeps T
    # nonzero there, and is taken only there because it rounds differently
    if math.isfinite(denominator):
        temperature = 1.0 / denominator
    else:
        temperature = 1.0 / (8.0 * math.pi) / mass
    if not math.isfinite(temperature):
        raise ValueError(f"mass {mass!r} is too small: its Hawking temperature overflows")
    return temperature


# -x and -x / 2 as products: scaling by -1 and -0.5 rounds as negating and halving do
_EXPONENT_SCALES = np.array([[-1.0], [-0.5]])


def _weights(omega: np.ndarray, temperature: np.ndarray) -> np.ndarray:
    """``(2, N)`` rows ``f-`` and ``f+`` at ``(N,)`` columns of checked ``omega`` and ``T``.

    Evaluated through ``x = w/T`` so that large ratios underflow
    gracefully instead of overflowing.  At T = 0, and wherever ``w/T``
    overflows, ``x`` is ``inf`` and the pair is exactly (1, 0).  Both
    exponentials, of ``-x`` and ``-x / 2``, are libm's, taken in one
    pass over the columns; the rest is numpy's (see :func:`_closed_table`).
    """
    with np.errstate(divide="ignore", over="ignore"):
        x = omega / temperature
    exponents = (_EXPONENT_SCALES * x).ravel().tolist()
    weights = np.fromiter(map(math.exp, exponents), float, len(exponents)).reshape(2, -1)
    root = np.sqrt(1.0 + weights[0])
    weights[0] = 1.0
    return weights / root


def thermal_factors(omega: float, temperature: float) -> ThermalFactors:
    """Thermal weights at frequency ``omega`` and temperature ``T``.

    ``f- = (exp(-w/T) + 1)^(-1/2)`` and ``f+ = (exp(w/T) + 1)^(-1/2)``;
    at T = 0 the pair is exactly (1, 0).
    """
    _, omega, temperature = check_params(omega=omega, temperature=temperature)
    return ThermalFactors(*_weights(np.array([omega]), np.array([temperature]))[:, 0].tolist())


def _amplitudes(alpha, omega, temperature) -> np.ndarray:
    """``(N, 8)`` amplitudes of ``|psi>`` from ``(N,)`` arrays of alpha, omega and T.

    The one builder of the state, and so of every spectral route.  Each
    point's thermal weights come from the Bogoliubov angle of the
    Unruh-mode vacuum, ``r = atan(exp(-w / (2T)))``, as ``f- = cos r``
    and ``f+ = sin r``, computed in numpy: a different path from the
    libm weights of the closed forms.  The exponent is taken as
    ``(w / T) / 2``, as ``2T`` would overflow for T above about 9e307.
    At T = 0, ``w / T`` is ``inf``, so ``r`` is exactly 0.
    """
    with np.errstate(divide="ignore", over="ignore"):
        angle = np.arctan(np.exp(-(omega / temperature) / 2.0))
    amplitudes = np.zeros((len(alpha), 8))
    amplitudes[:, 0] = alpha * np.cos(angle)  # |000>
    amplitudes[:, 3] = alpha * np.sin(angle)  # |011>
    amplitudes[:, 6] = np.sqrt((1.0 - alpha) * (1.0 + alpha))  # |110>
    return amplitudes


def tripartite_state(params: ModelParams) -> np.ndarray:
    """Amplitude vector of ``|psi>`` in the ``4m + 2n + p`` basis; see :func:`_amplitudes`."""
    return _amplitudes(*np.array([[params.alpha], [params.omega], [params.temperature]]))[0]


def pair_states(amplitudes, pair: ModePair) -> np.ndarray:
    """Two-mode states of a stack of amplitude vectors, one per vector.

    ``amplitudes`` has shape ``(N, 8)`` in the ``4m + 2n + p`` basis;
    the result has shape ``(N, 4, 4)`` and is not validated.  Each is
    ``L L^dagger`` for the pair's 4x2 factor ``L``, gathered as
    :func:`~hawkent.measures._factor_measures` gathers it.
    """
    factor = np.asarray(amplitudes).reshape(-1, 8)[:, _FACTOR_ENTRIES[list(ModePair).index(pair)]]
    return factor @ factor.conj().swapaxes(-1, -2)


def reduced_density(params: ModelParams, pair: ModePair) -> DensityMatrix:
    """Two-mode state obtained by tracing out the third mode."""
    return validate_density(pair_states(tripartite_state(params), pair)[0], (2, 2))


def _closed_table(points) -> np.ndarray:
    """Sweep rows of an ``(N, 3)`` block of checked ``(alpha, omega, T)`` points.

    ``points`` is any array-like of that shape, such as a list of
    tuples.  Returns the ``(N, 15)`` table of rows in the order of the
    sweep's CSV columns, each point followed by the twelve closed forms
    of :func:`closed_forms`.  The table's rule for bits is libm for
    ``exp``, ``log2`` and ``log1p``, numpy for ``+ - * /`` and ``sqrt``:
    the thermal weights (:func:`_weights`) take libm's ``exp`` in one
    pass over the whole column, as numpy's ``exp`` differs from libm's
    in the last bit on some arguments, and the entropies take libm's
    ``log2`` and ``log1p``.  Each closed form is
    then one numpy expression over the columns, every square a product,
    in the order of operations of the scalar formulas.  Those numpy
    operations are correctly rounded, so a point's cells have the same
    bits whatever the batch around it.  The EoF takes the binary entropy
    of the small probability ``C^2 / (2 (1 + sqrt(1 - C^2)))``, which
    equals ``(1 - sqrt(1 - C^2)) / 2`` without cancelling for small
    ``C``: the EoF keeps its digits while that probability is a normal
    float, for C above about 3e-154.
    """
    points = np.asarray(points, float)
    alpha, omega, temperature = points.T
    weights = _weights(omega, temperature)  # f-, f+
    f2 = weights * weights
    a2 = alpha * alpha
    b2 = (1.0 - alpha) * (1.0 + alpha)
    n = len(points)
    table = np.empty((n, 15))
    table[:, :3] = points
    two_alpha = 2.0 * alpha
    pure = two_alpha * np.sqrt(b2)
    table[:, 3:5] = (pure * weights).T
    table[:, 5] = two_alpha * alpha * weights[0] * weights[1]
    cc = table[:, 3:6] * table[:, 3:6]
    # EoF from the concurrence, then S(A) = H2(a^2), S(I) = H2(a^2 f-^2), S(II) = H2(a^2 f+^2)
    p = np.empty((n, 6))
    p[:, :3] = cc / (2.0 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - cc))))
    p[:, 3] = a2
    p[:, 4:] = (a2 * f2).T
    entropies = _binary_entropies(p)
    table[:, 6:9] = entropies[:, :3]
    s_a, s_i, s_ii = entropies[:, 3:].T
    table[:, 9] = s_a + s_i - s_ii
    table[:, 10] = s_a + s_ii - s_i
    table[:, 11] = s_i + s_ii - s_a
    # d of the A_I, A_II and I_II partial transposes, a^2 f+^2, a^2 f-^2 and
    # 1 - a^2: p's last three columns, reversed, as p is not read again
    d = p[:, 5:2:-1]
    d[:, 2] = b2
    table[:, 12:] = np.divide(-0.5 * cc, d + np.sqrt(d * d + cc), out=np.zeros((n, 3)), where=cc > 0.0)
    return table


def closed_forms(alpha: float, omega: float, temperature: float) -> tuple[float, ...]:
    """The twelve pair measures at one point, as explicit functions of the inputs.

    Returned in the order of the sweep's CSV columns: concurrence, EoF,
    mutual information and min PT eigenvalue, each for A_I, A_II, I_II.
    This is the one-row view of the table a sweep evaluates, so the
    values are bit for bit a sweep's at the same point; for many points
    a sweep is much cheaper per point than calls of this function.

    Concurrence: A_I and A_II keep the pure-state value
    ``2 alpha sqrt(1-alpha^2)`` scaled by ``f-`` and ``f+``.  The I_II
    reduction is an X state whose only coherence is
    ``<00|rho|11> = alpha^2 f- f+`` and whose |01>/|10> populations
    vanish, so its concurrence is twice that coherence.  EoF follows
    from the concurrence.

    Mutual information, in bits: every marginal and every pair
    reduction of ``|psi>`` has a two-point spectrum, so each term is a
    binary entropy: ``S(rho_A) = H2(alpha^2)``,
    ``S(rho_I) = H2(alpha^2 f-^2)``, ``S(rho_II) = H2(alpha^2 f+^2)``,
    and the pair entropy equals the entropy of the traced-out mode.

    Min PT eigenvalue: the transpose moves each reduction's coherence
    ``C/2`` off-axis, into the block ``[[d, C/2], [C/2, 0]]`` with ``d``
    ``alpha^2 f+^2``, ``alpha^2 f-^2``, ``1 - alpha^2`` (A_I, A_II, I_II).
    Its lower eigenvalue is ``-C^2 / (2 (d + sqrt(d^2 + C^2)))``, without
    the cancellation of ``(d - sqrt(d^2 + C^2)) / 2``; +0.0 where C is 0.
    """
    return tuple(_closed_table([check_params(alpha, omega, temperature)])[0, 3:].tolist())


def _closed_form(measure: int, params: ModelParams, pair: ModePair) -> float:
    return params._closed_forms[3 * measure + list(ModePair).index(pair)]


def closed_form_concurrence(params: ModelParams, pair: ModePair) -> float:
    """Concurrence of the pair; see :func:`closed_forms`."""
    return _closed_form(0, params, pair)


def closed_form_eof(params: ModelParams, pair: ModePair) -> float:
    """Entanglement of formation of the pair; see :func:`closed_forms`."""
    return _closed_form(1, params, pair)


def closed_form_mutual_information(params: ModelParams, pair: ModePair) -> float:
    """Mutual information of the pair, in bits; see :func:`closed_forms`."""
    return _closed_form(2, params, pair)


def closed_form_min_pt_eigenvalue(params: ModelParams, pair: ModePair) -> float:
    """Smallest partial-transpose eigenvalue of the pair; see :func:`closed_forms`."""
    return _closed_form(3, params, pair)


def asymptotic_limits(alpha: float) -> LimitReport:
    """Values of both temperature extremes.

    At T = 0 all correlation sits in A_I.  Those values are the C and MI
    cells of the closed forms' row at T = 0, bit for bit (``omega`` does
    not enter there).  As T -> infinity the thermal weights equalise at
    ``1/sqrt(2)``, which no table row reaches, so these values are exact
    formulas: the A_I values drop to ``C = alpha sqrt(2 (1 - alpha^2))``
    and ``I = H2(alpha^2)``, exactly half the T = 0 mutual information,
    while A_II mirrors A_I and the I_II pair reaches ``C = alpha^2`` and
    ``I = 2 H2(alpha^2 / 2) - H2(alpha^2)``.  The ratio of the two A_I
    mutual informations is taken from them (see :class:`LimitReport`).
    """
    alpha = check_params(alpha=alpha)[0]
    row = _closed_table([(alpha, 1.0, 0.0)])[0].tolist()
    a2 = alpha * alpha
    h_a2, h_half = _binary_entropies(np.array([[a2, a2 / 2.0]], float))[0].tolist()
    c_hot = alpha * math.sqrt(2.0 * ((1.0 - alpha) * (1.0 + alpha)))
    zero = LimitValues(*row[3:6], *row[9:12])
    hot = LimitValues(c_hot, c_hot, a2, h_a2, h_a2, 2.0 * h_half - h_a2)
    # 0/0 where alpha^2 underflows: both mutual informations are then 0.0
    ratio = hot.mi_a_i / zero.mi_a_i if zero.mi_a_i > 0.0 else math.nan
    return LimitReport(alpha, zero, hot, ratio)

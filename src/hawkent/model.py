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
spectral route (partial trace of the projector, then the measures in
:mod:`hawkent.measures`), so the two can be cross-checked at any
parameter point; the sweep driver does exactly that in verify mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .measures import DensityMatrix, binary_entropy, validate_density

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
    "closed_form_concurrence",
    "closed_form_min_pt_eigenvalue",
    "closed_form_eof",
    "closed_form_mutual_information",
    "asymptotic_limits",
]


def check_params(alpha=None, omega=None, temperature=None) -> None:
    """Range check of the model parameters; a parameter left None is skipped.

    ``alpha`` must lie strictly in (0, 1), ``omega`` must be positive
    and finite, ``temperature`` non-negative and finite.  Raises
    ValueError naming the first parameter out of range.  NaN fails
    every chained comparison, so no separate finiteness test is needed.
    """
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    if omega is not None and not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive, got {omega!r}")
    if temperature is not None and not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be non-negative, got {temperature!r}")


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
    Only the ratio ``omega / temperature`` enters any measure.
    """

    alpha: float
    omega: float
    temperature: float

    def __post_init__(self):
        check_params(self.alpha, self.omega, self.temperature)


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
    by its T = 0 value; it equals exactly 1/2 for every alpha.
    """

    alpha: float
    zero_temperature: LimitValues
    infinite_temperature: LimitValues
    accessible_mi_ratio: float


def hawking_temperature(mass: float) -> float:
    """``T = 1 / (8 pi M)`` in geometric units (G = c = hbar = k = 1)."""
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be positive, got {mass!r}")
    return 1.0 / (8.0 * math.pi * mass)


def thermal_factors(omega: float, temperature: float) -> ThermalFactors:
    """Thermal weights at frequency ``omega`` and temperature ``T``.

    ``f- = (exp(-w/T) + 1)^(-1/2)`` and ``f+ = (exp(w/T) + 1)^(-1/2)``.
    At T = 0 the pair is exactly (1, 0).  Evaluated through
    ``x = w/T`` so that large ratios underflow gracefully instead of
    overflowing.
    """
    check_params(omega=omega, temperature=temperature)
    if temperature == 0.0:
        return ThermalFactors(f_minus=1.0, f_plus=0.0)
    x = omega / temperature
    denom = math.sqrt(1.0 + math.exp(-x))
    return ThermalFactors(f_minus=1.0 / denom, f_plus=math.exp(-x / 2.0) / denom)


def tripartite_state(params: ModelParams) -> np.ndarray:
    """Amplitude vector of ``|psi>`` in the ``4m + 2n + p`` basis."""
    f = thermal_factors(params.omega, params.temperature)
    amp = np.zeros(8)
    amp[0] = params.alpha * f.f_minus  # |000>
    amp[3] = params.alpha * f.f_plus  # |011>
    amp[6] = math.sqrt(1.0 - params.alpha**2)  # |110>
    return amp


# einsum subscripts over psi[n, A, I, II] that trace out the third mode
_TRACE_OUT = {
    ModePair.A_I: "nabc,nxyc->nabxy",
    ModePair.A_II: "nabc,nxbz->nacxz",
    ModePair.I_II: "nabc,nayz->nbcyz",
}


def pair_states(amplitudes, pair: ModePair) -> np.ndarray:
    """Two-mode states of a stack of amplitude vectors, one per vector.

    ``amplitudes`` has shape ``(N, 8)`` in the ``4m + 2n + p`` basis;
    the result has shape ``(N, 4, 4)`` and is not validated.
    """
    psi = np.asarray(amplitudes).reshape(-1, 2, 2, 2)
    return np.einsum(_TRACE_OUT[pair], psi, psi.conj()).reshape(-1, 4, 4)


def reduced_density(params: ModelParams, pair: ModePair) -> DensityMatrix:
    """Two-mode state obtained by tracing out the third mode."""
    return validate_density(pair_states(tripartite_state(params), pair)[0], (2, 2))


def closed_form_concurrence(params: ModelParams, pair: ModePair) -> float:
    """Concurrence of the pair as an explicit function of the inputs.

    A_I and A_II keep the pure-state value ``2 alpha sqrt(1-alpha^2)``
    scaled by ``f-`` and ``f+`` respectively.  The I_II reduction is an
    X state whose only coherence is ``<00|rho|11> = alpha^2 f- f+`` and
    whose |01>/|10> populations vanish, so its concurrence is twice
    that coherence.
    """
    f = thermal_factors(params.omega, params.temperature)
    a = params.alpha
    root = math.sqrt(1.0 - a * a)
    if pair is ModePair.A_I:
        return 2.0 * a * root * f.f_minus
    if pair is ModePair.A_II:
        return 2.0 * a * root * f.f_plus
    if pair is ModePair.I_II:
        return 2.0 * a * a * f.f_minus * f.f_plus
    raise ValueError(f"unknown mode pair {pair!r}")


def closed_form_min_pt_eigenvalue(params: ModelParams, pair: ModePair) -> float:
    """Smallest partial-transpose eigenvalue of the pair.

    Each reduction couples one diagonal population ``d`` to the
    coherence ``c`` moved off-axis by the transpose, giving the block
    eigenvalue ``(d - sqrt(d^2 + 4 c^2)) / 2``.
    """
    f = thermal_factors(params.omega, params.temperature)
    a2 = params.alpha**2
    b2 = 1.0 - a2
    fm2 = f.f_minus**2
    fp2 = f.f_plus**2
    if pair is ModePair.A_I:
        d = a2 * fp2
        cc4 = 4.0 * a2 * b2 * fm2
    elif pair is ModePair.A_II:
        d = a2 * fm2
        cc4 = 4.0 * a2 * b2 * fp2
    elif pair is ModePair.I_II:
        d = b2
        cc4 = 4.0 * a2 * a2 * fm2 * fp2
    else:
        raise ValueError(f"unknown mode pair {pair!r}")
    return 0.5 * (d - math.sqrt(d * d + cc4))


def closed_form_eof(params: ModelParams, pair: ModePair) -> float:
    """Entanglement of formation from the closed-form concurrence."""
    c = closed_form_concurrence(params, pair)
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def closed_form_mutual_information(params: ModelParams, pair: ModePair) -> float:
    """Mutual information of the pair, in bits.

    Every marginal and every pair reduction of ``|psi>`` has a two-point
    spectrum, so each term is a binary entropy:
    ``S(rho_A) = H2(alpha^2)``, ``S(rho_I) = H2(alpha^2 f-^2)``,
    ``S(rho_II) = H2(alpha^2 f+^2)``, and the pair entropy equals the
    entropy of the traced-out third mode.
    """
    f = thermal_factors(params.omega, params.temperature)
    a2 = params.alpha**2
    s_a = binary_entropy(a2)
    s_i = binary_entropy(a2 * f.f_minus**2)
    s_ii = binary_entropy(a2 * f.f_plus**2)
    if pair is ModePair.A_I:
        return s_a + s_i - s_ii
    if pair is ModePair.A_II:
        return s_a + s_ii - s_i
    if pair is ModePair.I_II:
        return s_i + s_ii - s_a
    raise ValueError(f"unknown mode pair {pair!r}")


def asymptotic_limits(alpha: float) -> LimitReport:
    """Exact values of both temperature extremes.

    At T = 0 all correlation sits in A_I; as T -> infinity the thermal
    weights equalise at ``1/sqrt(2)`` and the A_I values drop to
    ``C = alpha sqrt(2 (1 - alpha^2))`` and ``I = H2(alpha^2)``, exactly
    half the T = 0 mutual information, while A_II mirrors A_I and the
    I_II pair reaches ``C = alpha^2`` and
    ``I = 2 H2(alpha^2 / 2) - H2(alpha^2)``.
    """
    check_params(alpha=alpha)
    a2 = alpha * alpha
    b2 = 1.0 - a2
    zero = LimitValues(
        c_a_i=2.0 * alpha * math.sqrt(b2),
        c_a_ii=0.0,
        c_i_ii=0.0,
        mi_a_i=2.0 * binary_entropy(a2),
        mi_a_ii=0.0,
        mi_i_ii=0.0,
    )
    c_hot = alpha * math.sqrt(2.0 * b2)
    infinite = LimitValues(
        c_a_i=c_hot,
        c_a_ii=c_hot,
        c_i_ii=a2,
        mi_a_i=binary_entropy(a2),
        mi_a_ii=binary_entropy(a2),
        mi_i_ii=2.0 * binary_entropy(a2 / 2.0) - binary_entropy(a2),
    )
    return LimitReport(
        alpha=alpha,
        zero_temperature=zero,
        infinite_temperature=infinite,
        accessible_mi_ratio=0.5,
    )

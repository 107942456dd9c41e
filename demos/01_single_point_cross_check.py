"""One parameter point, two independent routes.

Prepare the three-mode state at alpha^2 = 0.5 and a Hawking
temperature equal to the mode frequency, then compute every pairwise
measure twice: once from the closed forms, once through the generic
spectral pipeline (each pair state built as ``L L^dagger`` from a factor
of the amplitudes, then eigendecompositions).  The routes share no
thermal weight: the closed forms take ``f-`` and ``f+`` from libm (the
values printed below), while the state's amplitudes take them from the
Bogoliubov angle ``r = atan(exp(-w/(2T)))`` as ``cos r`` and ``sin r``.
So the two columns agree to machine precision only if both the
closed-form algebra and the thermal weights are right.
"""

import math

from hawkent.measures import measure_set
from hawkent.model import (
    ModelParams,
    ModePair,
    closed_form_concurrence,
    closed_form_eof,
    closed_form_min_pt_eigenvalue,
    closed_form_mutual_information,
    reduced_density,
    thermal_factors,
    tripartite_state,
)

# a balanced superposition, probed at omega / T = 1
params = ModelParams(alpha=1.0 / math.sqrt(2.0), omega=1.0, temperature=1.0)

f = thermal_factors(params.omega, params.temperature)
amp = tripartite_state(params)
print(f"alpha^2 = {params.alpha**2:.3f}, omega = {params.omega}, T = {params.temperature}")
print(f"thermal weights: f- = {f.f_minus:.12f}, f+ = {f.f_plus:.12f}")
print(f"state support: |000> {amp[0]:.6f}, |011> {amp[3]:.6f}, |110> {amp[6]:.6f}")
print()

header = f"{'pair':<6}{'measure':<14}{'closed form':>18}{'spectral':>18}{'gap':>10}"
print(header)
print("-" * len(header))
for pair in ModePair:
    closed = (
        ("C", closed_form_concurrence(params, pair)),
        ("EoF", closed_form_eof(params, pair)),
        ("MI", closed_form_mutual_information(params, pair)),
        ("min PT", closed_form_min_pt_eigenvalue(params, pair)),
    )
    ms = measure_set(reduced_density(params, pair))
    spectral = (ms.concurrence, ms.eof, ms.mutual_information, ms.min_pt_eigenvalue)
    for (name, want), got in zip(closed, spectral):
        print(f"{pair.value:<6}{name:<14}{want:>18.12f}{got:>18.12f}{abs(want - got):>10.1e}")

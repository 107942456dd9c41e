"""Seeded inputs of the four workloads.

Only the standard library's ``random`` is used, so the same seed gives
the same inputs whatever numpy is installed.  Each workload cycles
through a pool of distinct inputs; hawkent keeps no cache, so the pool
size does not change the work per operation, only the reference
computation before the run.
"""

from __future__ import annotations

import random

# The sweep shape of acceptance criterion 3: one seeded (alpha, omega),
# a log grid over the whole temperature range.
GRID_T = (0.01, 100.0)
GRID_STEPS = 40
ALPHA_RANGE = (0.05, 0.95)
OMEGA_DECADES = (-1.0, 1.0)

# `hawkent figure N` defaults: omega = 1, 200 log-spaced T in [0.01, 10].
FIGURE_T = (0.01, 10.0)
FIGURE_STEPS = 200
FIGURE_OMEGA = 1.0

POOL = {"figure": 4, "grid": 12, "closed": 12, "states": 64}


def _sweeps(rng: random.Random, count: int) -> list[dict]:
    return [
        {"alpha": rng.uniform(*ALPHA_RANGE), "omega": 10.0 ** rng.uniform(*OMEGA_DECADES)}
        for _ in range(count)
    ]


def ginibre_state(rng: random.Random, rank: int) -> list[list[tuple[float, float]]]:
    """``G G^dagger / tr`` for a 4 x rank complex Gaussian ``G``, exactly Hermitian.

    Returned as a 4x4 nested list of ``(re, im)`` pairs.
    """
    g = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(rank)] for _ in range(4)]
    m = [[sum(g[i][k] * g[j][k].conjugate() for k in range(rank)) for j in range(4)] for i in range(4)]
    trace = sum(m[i][i].real for i in range(4))
    m = [[v / trace for v in row] for row in m]
    # (m + m^dagger) / 2 entry by entry: the two triangles come out exact conjugates
    h = [[(m[i][j] + m[j][i].conjugate()) / 2 for j in range(4)] for i in range(4)]
    return [[(v.real, v.imag) for v in row] for row in h]


def make_inputs(workload: str, seed: int) -> list[dict]:
    rng = random.Random(seed)
    count = POOL[workload]
    if workload == "figure":
        return [{"which": rng.choice((1, 2, 3)), "alpha": rng.uniform(*ALPHA_RANGE)} for _ in range(count)]
    if workload in ("grid", "closed"):
        return _sweeps(rng, count)
    # ranks 1..4 in equal shares
    return [{"rank": 1 + k % 4, "matrix": ginibre_state(rng, 1 + k % 4)} for k in range(count)]

"""measure_stack on generic states, against the benchmark's 40-digit oracle.

The other spectral tests check structure: the rank cut, symmetries, the
factor route's agreement with the generic route.  Here the four
measures of seeded Ginibre states of rank 1 to 4 are compared with
mpmath values of the same float64 entries.  ``benchmark/oracle.py``
shares no code with hawkent; it and ``benchmark/inputs.py`` are loaded
straight from their files, without writing bytecode next to them.
"""

import importlib.util
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from hawkent.measures import measure_stack

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

# Largest absolute error per rank (rows 1-4) and measure (C, EoF, MI,
# min PT), in units of eps, on these 200 states.  The MI of a low-rank
# state carries x log2 x of the joint spectrum's rounding dust, about
# 24 eps per eigenvalue of 1e-16.  The bounds are twice these, so that
# another LAPACK build has room; they are never to be widened.
WORST_EPS = np.array([
    [4.0, 5.5, 90.0, 2.0],
    [7.5, 9.0, 69.0, 1.5],
    [3.88, 5.0, 31.0, 1.0],
    [5.0, 4.5, 5.0, 1.38],
])


def _load(name, **modules):
    """The benchmark module ``name``, its ``import``s of ``modules`` served from them."""
    spec = importlib.util.spec_from_file_location(f"hawkent_benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True), mock.patch.dict(sys.modules, modules):
        spec.loader.exec_module(module)
    return module


def test_measure_stack_is_within_a_few_eps_of_the_oracle():
    inputs = _load("inputs")
    oracle = _load("oracle", checks=_load("checks"))
    rng = random.Random(11)
    # ranks 1-4 in equal shares, as the benchmark's states workload draws them
    ranks = np.array([1 + k % 4 for k in range(200)])
    entries = [inputs.ginibre_state(rng, rank) for rank in ranks.tolist()]
    states = np.array([[[complex(re, im) for re, im in row] for row in state] for state in entries])
    want = np.array([oracle.state_measures(state) for state in entries])
    error = np.abs(measure_stack(states) - want) / np.finfo(float).eps
    for rank in range(1, 5):
        worst = error[ranks == rank].max(axis=0)
        assert np.all(worst <= 2.0 * WORST_EPS[rank - 1]), (rank, worst)

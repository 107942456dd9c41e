"""Entanglement redistribution between three Dirac modes at the Hawking
temperature of a Schwarzschild black hole.

The package pairs closed-form expressions for every two-mode measure
with a generic spectral pipeline (partial trace + eigendecomposition)
and cross-checks the two routes wherever numbers are produced.
"""

from .linalg import (
    adjoint,
    hermitian_eigenvalues,
    hermiticity_defect,
    kron,
    mat_mul,
    partial_trace,
    partial_transpose,
    psd_square_root_factor,
)
from .measures import (
    DensityMatrix,
    MeasureSet,
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    measure_set,
    measure_stack,
    min_pt_eigenvalue,
    mutual_information,
    one_to_rest_tangle,
    spin_flip,
    validate_density,
    von_neumann_entropy,
)
from .model import (
    LimitReport,
    LimitValues,
    ModelParams,
    ModePair,
    ThermalFactors,
    asymptotic_limits,
    closed_form_concurrence,
    closed_form_eof,
    closed_form_min_pt_eigenvalue,
    closed_form_mutual_information,
    hawking_temperature,
    pair_states,
    reduced_density,
    thermal_factors,
    tripartite_state,
)
from .sweep import (
    CSV_COLUMNS,
    RunConfig,
    SweepRow,
    SweepSpec,
    VerificationError,
    emit_csv,
    emit_json,
    evaluate_point,
    format_number,
    grid_values,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "mat_mul",
    "adjoint",
    "kron",
    "hermiticity_defect",
    "partial_trace",
    "partial_transpose",
    "hermitian_eigenvalues",
    "psd_square_root_factor",
    # measures
    "DensityMatrix",
    "MeasureSet",
    "validate_density",
    "binary_entropy",
    "von_neumann_entropy",
    "spin_flip",
    "concurrence",
    "entanglement_of_formation",
    "mutual_information",
    "min_pt_eigenvalue",
    "one_to_rest_tangle",
    "measure_set",
    "measure_stack",
    # model
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
    # sweep
    "CSV_COLUMNS",
    "SweepSpec",
    "RunConfig",
    "SweepRow",
    "VerificationError",
    "format_number",
    "grid_values",
    "evaluate_point",
    "run_sweep",
    "emit_csv",
    "emit_json",
]

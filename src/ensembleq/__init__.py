"""ensembleq: classical statistical ensembles with two- and four-state quantum behavior.

Finite weighted ensembles of micro-states on the circle, the sphere, or the
four-state manifold carry probabilistic two-level observables. Reducing an
ensemble to its basis-observable expectation values reproduces the full
quantum formalism for the corresponding two- or four-state system: trace-rule
expectation values, conditional correlations equal to (anti)commutator
expressions, unitary evolution from purity conservation, entanglement and
Bell-inequality violation. Every classical-side result is cross-checked
against the matrix oracle in ``qmatrix``.
"""

from .manifolds import (
    BlochState,
    Ensemble,
    SubstateEnsemble,
    extend_to_substates,
    grid_ensemble,
    reduce_ensemble,
)
from .observables import (
    NoEigenstateError,
    ProductObservable,
    RANDOM,
    TwoLevelObservable,
    basis_spin,
    combine,
    expectation,
    mean_in_state,
    moment,
    prob_plus,
    spin,
)
from .correlations import (
    SequenceEstimate,
    WeightedEigenstateSum,
    classical_correlation,
    conditional_correlation_2pt,
    conditional_correlation_3pt,
    conditional_product,
    measurement_chain,
    pointwise_correlation,
    simulate_sequences,
)
from .dynamics import (
    FlowParams,
    Hamiltonian,
    Trajectory,
    integrate_open,
    integrate_von_neumann,
    rotate_distribution,
    syncoherence_closed_form,
    syncoherence_flow,
)
from .fourstate import (
    BellCheck,
    OutcomeTable,
    bell_check,
    entangled_bloch,
    entangled_psi,
    entangled_state,
    exchange_symmetry,
    is_exchange_symmetric,
    outcomes_from_t,
    rotated_spin_correlation,
)
from .validate import ConstraintViolation, DimensionMismatch

__version__ = "0.1.0"

# The exact finite systems (and the fractions module they use) load on first
# use of one of these names, not when the package is imported.
_FINITE = {"FiniteSpinSystem", "cartesian_measure_sz", "cartesian_purity", "integrate_out",
           "realizable_region_check", "zn_step_evolution", "zn_system"}


def __getattr__(name):
    if name in _FINITE:
        from . import finite
        return getattr(finite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BellCheck", "BlochState", "ConstraintViolation", "DimensionMismatch",
    "Ensemble", "FiniteSpinSystem", "FlowParams", "Hamiltonian",
    "NoEigenstateError", "OutcomeTable", "ProductObservable", "RANDOM",
    "SequenceEstimate", "SubstateEnsemble", "Trajectory", "TwoLevelObservable",
    "WeightedEigenstateSum", "basis_spin", "bell_check",
    "cartesian_measure_sz", "cartesian_purity", "classical_correlation",
    "combine", "conditional_correlation_2pt", "conditional_correlation_3pt",
    "conditional_product", "entangled_bloch", "entangled_psi",
    "entangled_state", "exchange_symmetry", "expectation",
    "extend_to_substates", "grid_ensemble", "integrate_open", "integrate_out",
    "integrate_von_neumann", "is_exchange_symmetric", "mean_in_state",
    "measurement_chain", "moment", "outcomes_from_t", "pointwise_correlation",
    "prob_plus", "realizable_region_check", "reduce_ensemble",
    "rotate_distribution", "rotated_spin_correlation", "simulate_sequences",
    "spin", "syncoherence_closed_form", "syncoherence_flow",
    "zn_step_evolution", "zn_system",
]

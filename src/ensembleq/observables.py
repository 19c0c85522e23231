"""Probabilistic two-level observables.

A two-level observable takes only the values +1 and -1 in any micro-state; it
is specified per micro-state by the probability of the + outcome,
w_+ = (1 + mean)/2, so by its mean function. Every observable here carries
that function as a direction vector e and a scalar offset e0, with mean
e0 + e . f in the micro-state f, and every function of this module reads it
the same way.

A ``TwoLevelObservable`` is also an operator observable: |e| = 1 and e0 = 0
give spectrum {+1, -1}, and scaling and shifting act on the spectrum
{e0 + |e|, e0 - |e|}. A ``ProductObservable`` is the mean function of a
conditional product and has no operator. The random observable R is the
product observable with mean 0 in every micro-state.
"""
from __future__ import annotations

import numpy as np

from . import qmatrix
from .manifolds import bloch_vector, weighted_sum
from .validate import (
    INVARIANT_TOL,
    ConstraintViolation,
    DimensionMismatch,
    Record,
    as_float_array,
    check_components,
    check_count,
    check_unit_vector,
)


class NoEigenstateError(ValueError):
    """Raised when an operation needs eigenstates of an observable that has none."""


class TwoLevelObservable(Record):
    """Direction vector plus offset; immutable."""

    __slots__ = ("e", "e0")

    def __init__(self, e: np.ndarray, e0: float = 0.0):
        self._set(check_components(e, "e"), float(e0))

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    @property
    def is_unit(self) -> bool:
        return abs(float(self.e @ self.e) - 1.0) <= INVARIANT_TOL and self.e0 == 0.0


class ProductObservable(Record):
    """+-1-valued observable whose micro-state mean is e0 + e . f.

    Conditional products of spins produce these; |e0| + |e| <= 1 keeps the
    outcome probabilities well defined. The random observable R is the one
    with mean 0 everywhere.
    """

    __slots__ = ("e", "e0")

    def __init__(self, e: np.ndarray, e0: float = 0.0):
        self._set(check_components(e, "e"), float(e0))
        reach = float(np.linalg.norm(self.e)) + abs(self.e0)
        if reach > 1.0 + INVARIANT_TOL:
            raise ValueError("mean function exceeds the +-1 outcome range")


# mean 0 and square 1 in every micro-state: distinct from the zero observable
# (sharp value 0), and without eigenstates, so nothing can be measured after it
RANDOM = ProductObservable(np.zeros(3))


def spin(e) -> TwoLevelObservable:
    """Unit-direction observable with spectrum +-1 and zero offset."""
    return TwoLevelObservable(check_unit_vector(e, "e"), 0.0)


def basis_spin(k: int) -> TwoLevelObservable:
    """The k-th basis observable (1-based) of the two-state system, A^(k) = A(e_k)."""
    if not 1 <= k <= 3:
        raise ValueError("basis index out of range")
    e = np.zeros(3)
    e[k - 1] = 1.0
    return TwoLevelObservable(e)


def mean_in_state(obs, f) -> float:
    """Mean value of an observable in the micro-state with coordinates f, e0 + e . f."""
    vec = as_float_array(f, "f")
    if obs.e.shape != vec.shape:
        raise DimensionMismatch("observable and micro-state dimensions differ")
    return float(obs.e @ vec) + obs.e0


def prob_plus(obs, f) -> float:
    """Probability of the +1 outcome in the micro-state with coordinates f, (1 + mean)/2.

    Defined only for observables with spectrum {+1, -1}; scaled or shifted
    observables are rejected, and a micro-state that puts the probability
    outside [0, 1] by over INVARIANT_TOL raises ConstraintViolation.
    """
    if isinstance(obs, TwoLevelObservable) and not obs.is_unit:
        raise ValueError("outcome probabilities require a unit direction and zero offset")
    p = 0.5 * (1.0 + mean_in_state(obs, f))
    if not -INVARIANT_TOL <= p <= 1.0 + INVARIANT_TOL:
        raise ConstraintViolation(f"outcome probability {p!r} outside [0, 1] by over {INVARIANT_TOL}")
    return min(1.0, max(0.0, p))


def moment(obs, ensemble, q: int) -> float:
    """Ensemble moment <A^q>: the mean for odd q, exactly 1 for even q."""
    if obs.e.shape != ensemble.points.shape[1:]:
        raise DimensionMismatch("observable and ensemble dimensions differ")
    if check_count(q, "q", lo=1) % 2 == 0:
        return 1.0
    if isinstance(obs, TwoLevelObservable) and not obs.is_unit:
        raise ValueError("moments assume spectrum +-1 (unit direction, zero offset)")
    return weighted_sum(ensemble.probs, ensemble.points @ obs.e + obs.e0)


def expectation(obs, state) -> float:
    """Ensemble expectation value from the reduced state alone, read by ``manifolds.bloch_vector``."""
    rho = bloch_vector(state)
    if obs.e.shape != rho.shape:
        raise DimensionMismatch("observable and state dimensions differ")
    return float(obs.e @ rho) + obs.e0


def combine(lam1, a: TwoLevelObservable, lam2, b: TwoLevelObservable) -> TwoLevelObservable:
    """Linear combination lam1*A + lam2*B; expectation values combine exactly.

    With lam1^2 + lam2^2 = 1 and orthogonal unit inputs this is again a
    spectrum-+-1 observable (a rotated spin).
    """
    if isinstance(lam1, complex) or isinstance(lam2, complex):
        raise ValueError("complex scaling of measurable observables is unsupported")
    if a.dim != b.dim:
        raise DimensionMismatch("cannot combine observables of different dimension")
    return TwoLevelObservable(float(lam1) * a.e + float(lam2) * b.e,
                              float(lam1) * a.e0 + float(lam2) * b.e0)


def has_eigenstates(obs) -> bool:
    """True if some micro-state gives the observable a sharp value.

    An operator observable is sharp in the micro-states f = +-e/|e| (a pure
    offset everywhere). A +-1-valued mean function is sharp only where it
    reaches +-1, so only if |e| + |e0| reaches 1: the random observable and
    every conditional product whose mean stays strictly inside (-1, 1) have none.
    """
    if isinstance(obs, TwoLevelObservable):
        return True
    return float(np.linalg.norm(obs.e)) + abs(obs.e0) >= 1.0 - INVARIANT_TOL


def operator_of(obs) -> np.ndarray:
    """Hermitian matrix associated with an observable; a product observable has none."""
    if isinstance(obs, ProductObservable):
        raise ValueError("conditional products, R among them, are not operator observables")
    return qmatrix.operator_from_direction(obs.e, obs.e0)

"""Probabilistic two-level observables.

A two-level observable takes only the values +1 and -1 in any micro-state; it
is specified per micro-state by the probability of the + outcome,
w_+ = (1 + mean)/2, so by its mean function. Every observable here carries
that function as a direction vector e and a scalar offset e0, with mean
e0 + e . f in the micro-state f, and every function of this module reads it
the same way.

A ``TwoLevelObservable`` is also an operator observable, A = e0 + e_k B_k, and
a spin (spectrum +-1) when e0 = 0 and A^2 = 1: |e| = 1 for two states, and
also e_k e_l d_klm = 0 for four, where (L1 + L2)/sqrt(2) has mean sqrt(2) at
psi_1. ``_require_spin`` is the one rule for every function that needs a spin.
A ``ProductObservable`` is the mean function of a conditional product and has
no operator. The random observable R is the product observable with mean 0 in
every micro-state.
"""
from __future__ import annotations

import numpy as np

from . import qmatrix
from .manifolds import STRUCTURE, bloch_vector, weighted_sum
from .validate import (
    INVARIANT_TOL,
    Record,
    _check_dim,
    _dot,
    _outcome_probabilities,
    _real_number,
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
        self._set(check_components(e, "e"), _real_number(e0, "e0"))

    @property
    def dim(self) -> int:
        return self.e.shape[0]


class ProductObservable(Record):
    """+-1-valued observable whose micro-state mean is e0 + e . f.

    Conditional products of spins produce these; |e0| + |e| <= 1 keeps the
    outcome probabilities well defined. The random observable R is the one
    with mean 0 everywhere.
    """

    __slots__ = ("e", "e0")

    def __init__(self, e: np.ndarray, e0: float = 0.0):
        self._set(check_components(e, "e"), _real_number(e0, "e0"))
        reach = float(np.linalg.norm(self.e)) + abs(self.e0)
        if reach > 1.0 + INVARIANT_TOL:
            raise ValueError("mean function exceeds the +-1 outcome range")


# mean 0 and square 1 in every micro-state: distinct from the zero observable
# (sharp value 0), and without eigenstates, so nothing can be measured after it
RANDOM = ProductObservable(np.zeros(3))


def _require_spin(obs, name: str) -> TwoLevelObservable:
    """``obs`` if it is a spin: a ``TwoLevelObservable`` with e0 == 0, |e.e - 1| <= INVARIANT_TOL
    and, for 15 components, max_m |e_k e_l d_klm| <= INVARIANT_TOL (A^2 = 1 + e_k e_l d_klm L_m).
    A product observable with |e| + |e0| < 1 - INVARIANT_TOL (R among them) is sharp in no
    micro-state: NoEigenstateError. Anything else is a ValueError naming ``name``."""
    if isinstance(obs, ProductObservable) and np.linalg.norm(obs.e) + abs(obs.e0) < 1.0 - INVARIANT_TOL:
        raise NoEigenstateError(f"{name} has no eigenstates")
    if not isinstance(obs, TwoLevelObservable) or obs.e0 != 0.0 or abs(_dot(obs.e, obs.e) - 1.0) > INVARIANT_TOL:
        raise ValueError(f"{name} must be a unit-direction observable with zero offset")
    if obs.dim == 15 and np.abs(obs.e @ STRUCTURE[15][0] @ obs.e).max() > INVARIANT_TOL:
        raise ValueError(f"{name}: the operator does not square to 1 (spectrum is not +-1)")
    return obs


def spin(e) -> TwoLevelObservable:
    """Unit-direction observable with spectrum +-1 and zero offset (``_require_spin``)."""
    return _require_spin(TwoLevelObservable(check_unit_vector(e, "e"), 0.0), "e")


def basis_spin(k: int) -> TwoLevelObservable:
    """The k-th basis observable (1-based) of the two-state system, A^(k) = A(e_k)."""
    e = np.zeros(3)
    e[check_count(k, "k", lo=1, hi=3) - 1] = 1.0
    return TwoLevelObservable(e)


def _mean(obs, x: np.ndarray, name: str):
    """The mean e0 + e . x over the last axis of a micro-state, a Bloch vector or (n, d) points x, paired by
    ``validate._check_dim`` and added by ``validate._dot``; the package reads every mean here, alike in any batch."""
    return _dot(_check_dim(x, len(obs.e), name, "the observable"), obs.e) + obs.e0


def mean_in_state(obs, f) -> float:
    """Mean value of an observable in the micro-state with coordinates f, e0 + e . f."""
    return float(_mean(obs, check_components(f, "f"), "f"))


def prob_plus(obs, f) -> float:
    """Probability of the +1 outcome in the micro-state with coordinates f, (1 + mean)/2.

    Defined only for +-1 observables (``_require_spin``). It is read by the rule of
    the chain and the substate table, ``validate._outcome_probabilities``: it lies in
    [0, 1], is 0.0 at or below ZERO_TOL, and a micro-state that puts it outside
    [0, 1] by over INVARIANT_TOL raises ConstraintViolation.
    """
    if isinstance(obs, TwoLevelObservable):
        _require_spin(obs, "obs")
    return _outcome_probabilities(mean_in_state(obs, f))[0]


def moment(obs, ensemble, q: int) -> float:
    """Ensemble moment <A^q> of a +-1 observable (``_require_spin``): the mean for odd q,
    exactly 1 for even q."""
    means = _mean(obs, ensemble.points, "ensemble")
    q = check_count(q, "q", lo=1)
    if isinstance(obs, TwoLevelObservable):
        _require_spin(obs, "obs")
    return 1.0 if q % 2 == 0 else weighted_sum(ensemble.probs, means)


def expectation(obs, state) -> float:
    """Ensemble expectation value from the reduced state alone, read by ``manifolds.bloch_vector``."""
    return float(_mean(obs, bloch_vector(state), "state"))


def combine(lam1, a: TwoLevelObservable, lam2, b: TwoLevelObservable) -> TwoLevelObservable:
    """Linear combination lam1*A + lam2*B; expectation values combine exactly.

    With lam1^2 + lam2^2 = 1 and orthogonal unit spins the result is unit.
    It is again a spin only if the inputs anticommute (a_k b_l d_klm = 0 for
    four states): always for two states, but not for L1 and L2, whose
    combination squares to 1 + 2 lam1 lam2 L3.
    """
    lam1, lam2 = _real_number(lam1, "lam1"), _real_number(lam2, "lam2")   # complex scaling is not measurable
    _check_dim(b.e, a.dim, "b", "a")
    return TwoLevelObservable(lam1 * a.e + lam2 * b.e, lam1 * a.e0 + lam2 * b.e0)


def operator_of(obs) -> np.ndarray:
    """Hermitian matrix associated with an observable; a product observable has none."""
    if isinstance(obs, ProductObservable):
        raise ValueError("conditional products, R among them, are not operator observables")
    return qmatrix.operator_from_direction(obs.e, obs.e0)

"""Probabilistic two-level observables.

A two-level observable takes only the values +1 and -1 in any micro-state; it
is specified per micro-state by the probability of the + outcome,
w_+ = (1 + mean)/2, where mean = e . f for a direction vector e. Directions
with |e| = 1 give spectrum {+1, -1}; scaling and shifting act on the spectrum,
so the general observable carries a direction e and a scalar offset e0 with
operator spectrum {e0 + |e|, e0 - |e|}.

The random observable R (mean 0, square 1 in every micro-state) and the
constant-plus-direction mean functions produced by conditional products are
separate kinds; dispatch in this module accepts all of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmatrix
from .validate import (
    DimensionMismatch,
    as_float_array,
    check_count,
    check_finite,
    check_real,
    check_unit_vector,
    freeze,
)


class NoEigenstateError(ValueError):
    """Raised when an operation needs eigenstates of an observable that has none."""


@dataclass(frozen=True, eq=False)
class TwoLevelObservable:
    """Direction vector plus offset; immutable."""

    e: np.ndarray
    e0: float = 0.0

    def __post_init__(self):
        vec = freeze(self.e, float)
        if vec.shape not in ((3,), (15,)):
            raise ValueError("direction must have 3 or 15 components")
        check_finite(vec.tolist(), "e")
        object.__setattr__(self, "e", vec)
        object.__setattr__(self, "e0", float(self.e0))

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.e))

    @property
    def spectrum(self) -> tuple[float, float]:
        return (self.e0 + self.norm, self.e0 - self.norm)

    @property
    def is_unit(self) -> bool:
        return abs(float(self.e @ self.e) - 1.0) <= 1e-12 and self.e0 == 0.0

    @property
    def label(self) -> str:
        coords = ",".join(f"{x:.3g}" for x in self.e)
        return f"A({coords})" if self.e0 == 0.0 else f"A({coords})+{self.e0:.3g}"


class RandomObservable:
    """The two-level observable with mean 0 and square 1 in every micro-state.

    It is distinct from the zero observable (which has the sharp value 0) and
    has no eigenstates, so nothing can be measured after it.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    label = "R"

    def __repr__(self):
        return "RandomObservable()"


RANDOM = RandomObservable()


@dataclass(frozen=True, eq=False)
class ProductObservable:
    """+-1-valued observable whose micro-state mean is const + coeff . f.

    Conditional products of spins produce these; |const| + |coeff| <= 1 keeps
    the outcome probabilities well defined.
    """

    coeff: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        vec = as_float_array(self.coeff, "coeff")
        object.__setattr__(self, "coeff", freeze(vec, float))
        object.__setattr__(self, "const", float(self.const))
        reach = float(np.linalg.norm(vec)) + abs(self.const)
        if reach > 1.0 + 1e-12:
            raise ValueError("mean function exceeds the +-1 outcome range")

    @property
    def label(self) -> str:
        return f"P({self.const:.3g}+{np.linalg.norm(self.coeff):.3g})"


def spin(e, dim: int | None = None) -> TwoLevelObservable:
    """Unit-direction observable with spectrum +-1 and zero offset."""
    vec = check_unit_vector(e, "e")
    if dim is not None and vec.shape[0] != dim:
        raise DimensionMismatch(f"expected a {dim}-component direction")
    return TwoLevelObservable(vec, 0.0)


def basis_spin(k: int, dim: int = 3) -> TwoLevelObservable:
    """The k-th basis observable (1-based), A^(k) = A(e_k)."""
    if not 1 <= k <= dim:
        raise ValueError("basis index out of range")
    e = np.zeros(dim)
    e[k - 1] = 1.0
    return TwoLevelObservable(e)


def _micro_coords(f) -> np.ndarray:
    return as_float_array(getattr(f, "f", f), "f")


def mean_in_state(obs, f) -> float:
    """Mean value of an observable in a single micro-state."""
    if isinstance(obs, RandomObservable):
        return 0.0
    vec = _micro_coords(f)
    if isinstance(obs, ProductObservable):
        if obs.coeff.shape != vec.shape:
            raise DimensionMismatch("observable and micro-state dimensions differ")
        return float(obs.coeff @ vec) + obs.const
    if obs.e.shape != vec.shape:
        raise DimensionMismatch("observable and micro-state dimensions differ")
    return float(obs.e @ vec) + obs.e0


def prob_plus(obs, f) -> float:
    """Probability of the +1 outcome in a micro-state, (1 + mean)/2.

    Defined only for observables with spectrum {+1, -1}; scaled or shifted
    observables are rejected.
    """
    if isinstance(obs, RandomObservable):
        return 0.5
    if isinstance(obs, TwoLevelObservable) and not obs.is_unit:
        raise ValueError("outcome probabilities require a unit direction and zero offset")
    m = mean_in_state(obs, f)
    return min(1.0, max(0.0, 0.5 * (1.0 + m)))


def moment(obs, ensemble, q: int) -> float:
    """Ensemble moment <A^q>: the mean for odd q, exactly 1 for even q."""
    if check_count(q, "q", lo=1) % 2 == 0:
        return 1.0
    if isinstance(obs, RandomObservable):
        return 0.0
    if isinstance(obs, TwoLevelObservable) and not obs.is_unit:
        raise ValueError("moments assume spectrum +-1 (unit direction, zero offset)")
    means = ensemble.points @ (obs.coeff if isinstance(obs, ProductObservable) else obs.e)
    if isinstance(obs, ProductObservable):
        means = means + obs.const
    return float(ensemble.probs @ means)


def expectation(obs, state) -> float:
    """Ensemble expectation value from the reduced state alone."""
    if isinstance(obs, RandomObservable):
        return 0.0
    rho = as_float_array(getattr(state, "rho", state), "rho")
    if isinstance(obs, ProductObservable):
        if obs.coeff.shape != rho.shape:
            raise DimensionMismatch("observable and state dimensions differ")
        return float(obs.coeff @ rho) + obs.const
    if obs.e.shape != rho.shape:
        raise DimensionMismatch("observable and state dimensions differ")
    return float(obs.e @ rho) + obs.e0


def scale(obs: TwoLevelObservable, lam) -> TwoLevelObservable:
    """Multiply the spectrum by a real constant (outcomes +-1 become +-lam)."""
    if isinstance(lam, complex):
        raise ValueError("complex scaling of measurable observables is unsupported")
    lam = float(lam)
    return TwoLevelObservable(lam * obs.e, lam * obs.e0)


def shift(obs: TwoLevelObservable, s: float) -> TwoLevelObservable:
    """Add a multiple of the unit observable; outcomes shift by s."""
    return TwoLevelObservable(obs.e, obs.e0 + float(s))


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

    A spin has eigenstates at f = +-e (and a pure offset is sharp everywhere).
    The random observable never has one, nor does a conditional product whose
    mean function stays strictly inside (-1, 1).
    """
    if isinstance(obs, RandomObservable):
        return False
    if isinstance(obs, ProductObservable):
        return float(np.linalg.norm(obs.coeff)) + abs(obs.const) >= 1.0 - 1e-12
    return True


def operator_of(obs) -> np.ndarray:
    """Hermitian matrix associated with an observable."""
    if isinstance(obs, RandomObservable):
        raise NoEigenstateError("the random observable has no associated operator")
    if isinstance(obs, ProductObservable):
        raise ValueError("conditional products are not operator observables")
    return qmatrix.operator_from_direction(obs.e, obs.e0)


def basic_state_probability(f, e, p: float, gamma: int) -> float:
    """Probability of outcome gamma for polarisation f, orientation e, purity p.

    Splitting probability (1 + gamma sqrt(p) f.e)/2 of a beam with
    polarisation direction f and degree p through an analyser along e.
    """
    fv = check_unit_vector(f, "f")
    ev = check_unit_vector(e, "e")
    if fv.shape != ev.shape:
        raise DimensionMismatch("f and e dimensions differ")
    p = check_real(p, "purity", 0.0, 1.0)
    if gamma not in (1, -1):
        raise ValueError("gamma must be +1 or -1")
    val = 0.5 * (1.0 + gamma * math.sqrt(p) * float(fv @ ev))
    return min(1.0, max(0.0, val))

"""Four-state system: entanglement, Bell harness, interference and
particle-exchange symmetry.

The fifteen basis observables T_m have operator representation L_m; their
expectation values are the components of the reduced 15-vector. The entangled
states (psi_2 +- psi_3)/sqrt(2) maximally anticorrelate the two bits, and the
correlation of rotated spin measurements on them equals -cos(theta - phi),
violating the Bell inequality

    |C(theta_1) - C(theta_2)| <= 1 + C(theta_1 - theta_2)

that binds every substate-level (joint-probability) correlator.
"""
from __future__ import annotations

import math

import numpy as np

from . import qmatrix
from .dynamics import MAX_STEPS, _linear_flow
from .manifolds import BASIS_WORDS, BlochState, Ensemble, bloch_vector, canonical_direction, weighted_sum
from .observables import TwoLevelObservable
from .validate import (INVARIANT_TOL, PURITY_TOL, SAME_DIRECTION_TOL, ConstraintViolation, ValueRecord,
                       _check_dim, _dot, _real_number, check_components, check_count, check_probabilities, real_array)


def basis_psi(m: int) -> np.ndarray:
    """Computational basis wave function psi_m, m = 1..4."""
    psi = np.zeros(4, dtype=complex)
    psi[check_count(m, "m", lo=1, hi=4) - 1] = 1.0
    return psi


class OutcomeTable(ValueRecord):
    """Probabilities of the four two-bit outcomes (++), (+-), (-+), (--)."""

    __slots__ = ("w_pp", "w_pm", "w_mp", "w_mm")

    def __init__(self, w_pp: float, w_pm: float, w_mp: float, w_mm: float):
        weights = [_real_number(w, name) for w, name in zip((w_pp, w_pm, w_mp, w_mm), self.__slots__)]
        check_probabilities(weights)
        self._set(*weights)


def outcomes_from_t(t1: float, t2: float, t3: float) -> OutcomeTable:
    """Invert the linear relations between <T_1>, <T_2>, <T_3> and the W's.

    T_1 reads bit 1, T_2 reads bit 2, T_3 their product; a combination
    implying a negative probability is infeasible input.
    """
    w_pp = 0.25 * (1.0 + t1 + t2 + t3)
    w_pm = 0.25 * (1.0 + t1 - t2 - t3)
    w_mp = 0.25 * (1.0 - t1 + t2 - t3)
    w_mm = 0.25 * (1.0 - t1 - t2 + t3)
    return OutcomeTable(w_pp, w_pm, w_mp, w_mm)


def _sign(sign) -> float:
    """``sign`` as +1.0 or -1.0; any other value, a bool among them, is a ValueError naming it."""
    if (value := _real_number(sign, "sign")) not in (1.0, -1.0):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return value


def entangled_psi(sign: int) -> np.ndarray:
    """(psi_2 + sign * psi_3)/sqrt(2): total-bit eigenstates with T_3 = -1."""
    return (basis_psi(2) + _sign(sign) * basis_psi(3)) / math.sqrt(2.0)


def entangled_state(sign: int) -> np.ndarray:
    """Pure density matrix of the entangled state, (1 - L3 +- (L12 - L14))/4, built by
    ``qmatrix.density_from_bloch`` from ``entangled_bloch``.

    The entries are exact dyadics, so the characteristic expectation values
    (<T_3> = -1, the outcome weights 1/2) come out exact; it agrees with
    psi psi^dagger to roundoff.
    """
    return qmatrix.density_from_bloch(entangled_bloch(sign))


def entangled_bloch(sign: int) -> BlochState:
    """15-vector of the entangled state: f3 = -1, f12 = +-1, f14 = -+1."""
    vec = np.zeros(15)
    vec[2], vec[11] = -1.0, _sign(sign)
    vec[13] = -vec[11]
    return BlochState(vec)


def rotated_spin_observables(theta: float, phi: float) -> tuple[TwoLevelObservable, TwoLevelObservable]:
    ea = np.zeros(15)
    ea[0] = math.cos(theta)
    ea[7] = math.sin(theta)
    eb = np.zeros(15)
    eb[1] = math.cos(phi)
    eb[3] = math.sin(phi)
    return TwoLevelObservable(ea), TwoLevelObservable(eb)


def _four_state(state) -> np.ndarray:
    """The 15-vector of a four-state state, read and checked by ``manifolds.bloch_vector``."""
    return _check_dim(bloch_vector(state), 15, "state", "the four-state system")


def _spin_pair_value(theta: float, phi: float, rho: np.ndarray) -> float:
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return ct * cp * rho[2] + ct * sp * rho[5] + st * cp * rho[9] + st * sp * rho[11]


def rotated_spin_correlation(theta: float, phi: float, state) -> float:
    """Conditional correlation of the two rotated spins from the reduced state.

    Equal to tr({A(theta), B(phi)} rho)/2: the combination

        cos t cos p rho_3 + cos t sin p rho_6 + sin t cos p rho_10
        + sin t sin p rho_12,

    which on the entangled states collapses to -cos(theta - phi).
    """
    return _spin_pair_value(theta, phi, _four_state(state))


class BellCheck(ValueRecord):
    __slots__ = ("lhs", "rhs", "violated")

    def __init__(self, lhs: float, rhs: float, violated: bool):
        self._set(lhs, rhs, violated)


def bell_check(correlator, theta1: float, theta2: float) -> BellCheck:
    """Evaluate |C(t1) - C(t2)| <= 1 + C(t1 - t2) for a correlator of the angle
    difference; ``violated`` is strict beyond INVARIANT_TOL."""
    lhs = float(abs(correlator(theta1) - correlator(theta2)))
    rhs = float(1.0 + correlator(theta1 - theta2))
    return BellCheck(lhs=lhs, rhs=rhs, violated=bool(lhs > rhs + INVARIANT_TOL))


def quantum_pair_correlator(state):
    """Angle correlator theta -> rotated_spin_correlation(theta, 0, state).

    On the entangled states this is -cos(theta) and depends only on the angle
    difference, as the Bell form requires. The state is read once.
    """
    rho = _four_state(state)
    return lambda theta: _spin_pair_value(theta, 0.0, rho)


def plane_direction(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta), 0.0])


def symmetrized_hidden_ensemble(rng, n_base: int = 4, order: int = 4) -> Ensemble:
    """Random sphere ensemble symmetric under Z_order rotations about the z axis.

    Each random point is replicated at ``order`` equally spaced azimuths with
    equal weight. For order >= 3 the in-plane second-moment block of the
    ensemble is isotropic, so substate pair correlations of in-plane
    directions depend on the angle difference only; that stationarity is what
    makes the single-angle Bell form applicable to this hidden-variable model.
    """
    n_base, order = check_count(n_base, "n_base", lo=1), check_count(order, "order", lo=3)
    z = rng.uniform(-1.0, 1.0, size=n_base)
    phi0 = rng.uniform(0.0, 2.0 * math.pi, size=n_base)
    w = rng.random(n_base) + 0.05
    w = w / w.sum()
    r = np.sqrt(np.maximum(0.0, 1.0 - z**2))[:, None]
    ang = phi0[:, None] + 2.0 * math.pi * np.arange(order) / order   # (n_base, order)
    pts = np.stack((r * np.cos(ang), r * np.sin(ang), np.repeat(z[:, None], order, axis=1)), axis=-1).reshape(-1, 3)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return Ensemble("s2", pts, np.repeat(w / order, order))


def classical_pair_correlator(ensemble: Ensemble):
    """Anticorrelated-pair correlator of the substate extension of an ensemble.

    C(theta) = -sum_s p_s (f_s . d0)(f_s . d) for the in-plane directions d0
    at angle 0 and d at theta: the product-form substate correlation of their
    sign variables, negated for the pair, computed with no substate table.
    Directions with one canonical form give exactly -f0 f1 (-1 at theta = 0,
    +1 at pi). Every correlator of this family satisfies the Bell inequality;
    use ensembles from ``symmetrized_hidden_ensemble`` so that it is a
    function of the angle difference alone.
    """
    if ensemble.manifold not in ("s1", "s2"):
        raise ValueError("the pair correlator is defined for sphere ensembles")
    d0 = plane_direction(0.0)
    c0, f0 = canonical_direction(d0)
    along_d0 = ensemble.probs * _dot(ensemble.points, d0)

    def correlator(theta: float) -> float:
        d1 = plane_direction(theta)
        c1, f1 = canonical_direction(d1)
        if np.abs(c0 - c1).max() < SAME_DIRECTION_TOL:
            return -float(f0 * f1)
        return -weighted_sum(along_d0, _dot(ensemble.points, d1))

    return correlator


# ---------------------------------------------------------------------------
# interference
# ---------------------------------------------------------------------------

def interference_trajectory(delta: float, t_final: float, n_steps: int = 4096):
    """Integrate the two-frequency superposition flow and record <T_2>(t).

    The closed flow is df2/dt = delta f5, df5/dt = -delta f2 with f3 = f2,
    f7 = f5, f1 = 1 and all other components zero, starting from f2 = 1. The
    expectation <T_2> oscillates as cos(delta t). At most MAX_STEPS steps.
    """
    delta, t_final = _real_number(delta, "delta"), _real_number(t_final, "t_final", 0.0)
    n_steps = check_count(n_steps, "n_steps", lo=1, hi=MAX_STEPS)
    h = t_final / n_steps
    times = np.arange(n_steps + 1, dtype=float)
    times *= h
    f = _linear_flow(np.array([1.0, 0.0]), [[0.0, delta], [-delta, 0.0]], h, n_steps)   # (f2, f5)
    return times, f[:, 0], f[:, 1]


# ---------------------------------------------------------------------------
# particle-exchange symmetry
# ---------------------------------------------------------------------------

# index map of the 15-vector under exchanging the two bits: reverse each Pauli word
_EXCHANGE_PERM = np.array([BASIS_WORDS[15].index(w[:-2] + w[-2:][::-1]) for w in BASIS_WORDS[15]])

# (index, sign) of the L_k that are +-XX, +-YY, +-ZZ: E = (1 + XX + YY + ZZ)/2 is the bit exchange
_SWAP_TERMS = [(k, -1.0 if w[0] == "-" else 1.0) for k, w in enumerate(BASIS_WORDS[15])
               if w.lstrip("-") in ("XX", "YY", "ZZ")]


def exchange_symmetry(f) -> np.ndarray:
    """Apply the particle-exchange index map to a real, finite 15-vector, read by
    ``validate.check_components``; ``is_exchange_symmetric`` classifies states."""
    return _check_dim(check_components(f, "f"), 15, "f", "the exchange map")[_EXCHANGE_PERM]


def is_exchange_symmetric(state) -> str:
    """Classify a state under bit exchange E, read off its 15-vector rho by ``bloch_vector``.

    A wave function psi must be finite (else ValueError) and have |psi|^2
    within INVARIANT_TOL of 1 (else ConstraintViolation); it is read as
    psi psi^dagger / |psi|^2. The state is "forbidden" if the exchange map
    moves some rho_k by more than PURITY_TOL, "symmetric" if it is mixed
    (sum rho_k^2 < 3 - 4 PURITY_TOL, i.e. tr rho^2 < 1 - PURITY_TOL), and
    otherwise "bosonic" or "fermionic" by the sign of 2 tr(E rho) = 1 + <XX> + <YY> + <ZZ>.
    """
    psi = None if isinstance(state, BlochState) else real_array(state, "state", complex_ok=True)
    if psi is not None and psi.shape == (4,):
        norm2 = _dot(psi.real, psi.real) + _dot(psi.imag, psi.imag)
        if abs(norm2 - 1.0) > INVARIANT_TOL:
            raise ConstraintViolation(f"wave function is not normalised: |psi|^2 = {norm2!r}")
        state = np.outer(psi, psi.conj()) / norm2
    vec = _four_state(state)
    if np.abs(vec[_EXCHANGE_PERM] - vec).max() > PURITY_TOL:
        return "forbidden"
    if _dot(vec, vec) < 3.0 - 4.0 * PURITY_TOL:
        return "symmetric"
    return "bosonic" if 1.0 + sum(sign * vec[k] for k, sign in _SWAP_TERMS) > 0 else "fermionic"

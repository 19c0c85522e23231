"""Four-state system: bit observables, entanglement, Bell harness, interference
and particle-exchange symmetry.

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
from dataclasses import dataclass

import numpy as np

from . import qmatrix
from .dynamics import MAX_STEPS, _linear_flow
from .manifolds import (
    SAME_DIRECTION_TOL,
    BlochState,
    Ensemble,
    canonical_direction,
    reduce_ensemble,
)
from .observables import TwoLevelObservable, expectation
from .validate import DimensionMismatch, as_float_array, check_count, check_probabilities, check_real


def bit_observable(m: int) -> TwoLevelObservable:
    """The basis bit observable T_m, m = 1..15 (mean f_m in micro-state f)."""
    e = np.zeros(15)
    e[m - 1] = 1.0
    return TwoLevelObservable(e)


def basis_psi(m: int) -> np.ndarray:
    """Computational basis wave function psi_m, m = 1..4."""
    psi = np.zeros(4, dtype=complex)
    psi[m - 1] = 1.0
    return psi


@dataclass(frozen=True)
class OutcomeTable:
    """Probabilities of the four two-bit outcomes (++), (+-), (-+), (--)."""

    w_pp: float
    w_pm: float
    w_mp: float
    w_mm: float

    def __post_init__(self):
        check_probabilities((self.w_pp, self.w_pm, self.w_mp, self.w_mm))

    def as_dict(self) -> dict[str, float]:
        return {"++": self.w_pp, "+-": self.w_pm, "-+": self.w_mp, "--": self.w_mm}


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


def entangled_psi(sign: int) -> np.ndarray:
    """(psi_2 + sign * psi_3)/sqrt(2): total-bit eigenstates with T_3 = -1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return (basis_psi(2) + sign * basis_psi(3)) / math.sqrt(2.0)


def entangled_state(sign: int) -> np.ndarray:
    """Pure density matrix of the entangled state, (1 - L3 +- (L12 - L14))/4.

    Built from the basis combination, whose entries are exact dyadics, so the
    characteristic expectation values (<T_3> = -1, the outcome weights 1/2)
    come out exact; it agrees with psi psi^dagger to roundoff.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    l = qmatrix.L_BASIS
    return 0.25 * (np.eye(4) - l[2] + sign * (l[11] - l[13]))


def entangled_bloch(sign: int) -> BlochState:
    """15-vector of the entangled state: f3 = -1, f12 = +-1, f14 = -+1."""
    vec = np.zeros(15)
    vec[2] = -1.0
    vec[11] = float(sign)
    vec[13] = -float(sign)
    return BlochState(vec)


def rotated_spin_operators(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Operators of the two rotated spins: cos(t) L1 + sin(t) L8 and
    cos(p) L2 + sin(p) L4."""
    l = qmatrix.L_BASIS
    a = math.cos(theta) * l[0] + math.sin(theta) * l[7]
    b = math.cos(phi) * l[1] + math.sin(phi) * l[3]
    return a, b


def rotated_spin_observables(theta: float, phi: float) -> tuple[TwoLevelObservable, TwoLevelObservable]:
    ea = np.zeros(15)
    ea[0] = math.cos(theta)
    ea[7] = math.sin(theta)
    eb = np.zeros(15)
    eb[1] = math.cos(phi)
    eb[3] = math.sin(phi)
    return TwoLevelObservable(ea), TwoLevelObservable(eb)


def rotated_spin_correlation(theta: float, phi: float, state) -> float:
    """Conditional correlation of the two rotated spins from the reduced state.

    Equal to tr({A(theta), B(phi)} rho)/2: the combination

        cos t cos p rho_3 + cos t sin p rho_6 + sin t cos p rho_10
        + sin t sin p rho_12,

    which on the entangled states collapses to -cos(theta - phi).
    """
    rho = as_float_array(getattr(state, "rho", state), "state")
    if rho.shape != (15,):
        raise ValueError("state must be a four-state 15-vector")
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return ct * cp * rho[2] + ct * sp * rho[5] + st * cp * rho[9] + st * sp * rho[11]


@dataclass(frozen=True)
class BellCheck:
    lhs: float
    rhs: float
    violated: bool


def bell_check(correlator, theta1: float, theta2: float, tol: float = 1e-12) -> BellCheck:
    """Evaluate |C(t1) - C(t2)| <= 1 + C(t1 - t2) for a correlator of the angle
    difference; ``violated`` is strict beyond ``tol``."""
    lhs = float(abs(correlator(theta1) - correlator(theta2)))
    rhs = float(1.0 + correlator(theta1 - theta2))
    return BellCheck(lhs=lhs, rhs=rhs, violated=bool(lhs > rhs + tol))


def quantum_pair_correlator(state):
    """Angle correlator theta -> rotated_spin_correlation(theta, 0, state).

    On the entangled states this is -cos(theta) and depends only on the angle
    difference, as the Bell form requires.
    """
    rho = getattr(state, "rho", state)

    def correlator(theta: float) -> float:
        return rotated_spin_correlation(theta, 0.0, rho)

    return correlator


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
    pts = []
    probs = []
    for j in range(n_base):
        r = math.sqrt(max(0.0, 1.0 - z[j] ** 2))
        for k in range(order):
            ang = phi0[j] + 2.0 * math.pi * k / order
            pts.append([r * math.cos(ang), r * math.sin(ang), z[j]])
            probs.append(w[j] / order)
    pts = np.asarray(pts)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return Ensemble("s2", pts, np.asarray(probs))


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
    along_d0 = ensemble.probs * (ensemble.points @ d0)

    def correlator(theta: float) -> float:
        d1 = plane_direction(theta)
        c1, f1 = canonical_direction(d1)
        if np.abs(c0 - c1).max() < SAME_DIRECTION_TOL:
            return -float(f0 * f1)
        return -float(along_d0 @ (ensemble.points @ d1))

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
    t_final = check_real(t_final, "t_final", 0.0)
    n_steps = check_count(n_steps, "n_steps", lo=1, hi=MAX_STEPS)
    h = t_final / n_steps
    times = np.arange(n_steps + 1, dtype=float)
    times *= h
    f = _linear_flow(np.array([1.0, 0.0]), [[0.0, delta], [-delta, 0.0]], h, n_steps)   # (f2, f5)
    return times, f[:, 0], f[:, 1]


def interference_bloch(f2: float, f5: float) -> BlochState:
    vec = np.zeros(15)
    vec[0] = 1.0
    vec[1] = f2
    vec[2] = f2
    vec[4] = f5
    vec[6] = f5
    return BlochState(vec)


def interference_evolution(delta: float, t: float, n_steps: int | None = None) -> tuple[BlochState, float]:
    """Evolve the superposed state to time t; returns (reduced state, <T_2>)."""
    if n_steps is None:
        n_steps = max(64, int(math.ceil(abs(delta * t) * 64)))
    _, f2, f5 = interference_trajectory(delta, t, n_steps)
    state = interference_bloch(f2[-1], f5[-1])
    return state, float(f2[-1])


# ---------------------------------------------------------------------------
# particle-exchange symmetry
# ---------------------------------------------------------------------------

# index map of the 15-vector under exchanging the two bits (1-based pairs):
# 1<->2, 4<->8, 5<->9, 6<->10, 7<->11, 13<->15; 3, 12, 14 fixed.
_EXCHANGE_PERM = np.array([1, 0, 2, 7, 8, 9, 10, 3, 4, 5, 6, 11, 14, 13, 12])


def exchange_matrix() -> np.ndarray:
    """Wave-function representation: permutation swapping components 2 and 3."""
    e = np.eye(4)
    e[[1, 2]] = e[[2, 1]]
    return e


def exchange_symmetry(f) -> np.ndarray:
    """Apply the particle-exchange index map to a 15-vector."""
    vec = as_float_array(getattr(f, "rho", f), "f")
    if vec.shape != (15,):
        raise ValueError("expected a 15-component vector")
    return vec[_EXCHANGE_PERM]


def is_exchange_symmetric(state, tol: float = 1e-9) -> str:
    """Classify a state under bit exchange.

    Pure states (wave function, or a pure density matrix / 15-vector):
    "bosonic" if psi is invariant, "fermionic" if psi switches sign,
    "forbidden" if the density matrix itself is not exchange symmetric.
    Mixed exchange-symmetric density matrices report "symmetric".
    """
    ex = exchange_matrix()
    arr = np.asarray(getattr(state, "rho", state))
    if arr.shape == (4,):
        psi = arr.astype(complex)
        swapped = ex @ psi
        if np.abs(swapped - psi).max() <= tol:
            return "bosonic"
        if np.abs(swapped + psi).max() <= tol:
            return "fermionic"
        return "forbidden"
    mat = qmatrix.density_matrix(arr)
    if mat.shape != (4, 4):
        raise DimensionMismatch("exchange symmetry is defined for four-state states")
    if np.abs(ex @ mat @ ex - mat).max() > tol:
        return "forbidden"
    if float(np.trace(mat @ mat).real) >= 1.0 - 1e-9:
        return is_exchange_symmetric(qmatrix.wavefunction_from_pure(mat), tol=tol)
    return "symmetric"


def basis_expectations_three_ways(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<T_m> by per-micro-state sum, by the reduced state, and by tr(L_m rho)."""
    if ensemble.manifold != "four":
        raise ValueError("expected a four-state ensemble")
    by_sum = np.array(
        [
            math.fsum(float(p) * float(f[m]) for f, p in zip(ensemble.points, ensemble.probs))
            for m in range(15)
        ]
    )
    reduced = reduce_ensemble(ensemble)
    by_state = np.array([expectation(bit_observable(m + 1), reduced) for m in range(15)])
    mat = qmatrix.density_from_bloch(reduced.rho)
    by_trace = np.array([qmatrix.qm_expectation(qmatrix.L_BASIS[k], mat) for k in range(15)])
    return by_sum, by_state, by_trace

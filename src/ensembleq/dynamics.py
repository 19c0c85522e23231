"""Time evolution: rotations of distributions, purity-conserving (unitary)
evolution, and purity-changing flows.

Purity-conserving evolution of the reduced state is an orthogonal rotation of
the Bloch vector, equivalently conjugation of the density matrix by a unitary
U = exp(i alpha_m tau_m); infinitesimally this is the von Neumann equation
d rho/dt = -i [H, rho], on Bloch components d rho_k/dt = 2 eps_lmk H_l rho_m.
The general reduced evolution adds a scaling rate D:

    d rho/dt = -i [H, rho] + D (rho - 1/2),   dP/dt = 2 D P.

The two-state flows run on the Bloch vector; only the von Neumann equation of
either dimension runs on the density matrix. Integrators are fixed-step
classical 4th order: ``_linear_flow`` for every constant-coefficient (linear)
flow, ``_rk4`` for a rate D(bloch, t); spans over MAX_STEPS steps are rejected
before allocating. Constraint violations along a trajectory (purity above one)
abort loudly; nothing is clamped or projected.
"""
from __future__ import annotations

import math

import numpy as np

from . import qmatrix
from .manifolds import Ensemble
from .qmatrix import LEVI, PAULI
from .validate import (DRIFT_TOL, INVARIANT_TOL, PURITY_TOL, RATE_GAP_TOL, ConstraintViolation, Record,
                       ValueRecord, as_float_array, check_real, check_rotation, freeze)

MAX_STEPS = 2**20

# time step of the central difference in hamiltonian_from_rotation
_DIFF_STEP = 3e-5


class Hamiltonian(Record):
    """H = h_k tau_k for the two-state system, or an explicit matrix."""

    __slots__ = ("hk",)

    def __init__(self, hk: np.ndarray):
        arr = np.asarray(hk)
        if arr.ndim == 2:
            if arr.shape not in ((2, 2), (4, 4)):
                raise ValueError(f"Hamiltonian matrix must be 2x2 or 4x4, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError("Hamiltonian matrix contains non-finite entries")
            if np.abs(arr - arr.conj().T).max() > INVARIANT_TOL:
                raise ConstraintViolation("Hamiltonian matrix is not Hermitian")
            arr = freeze(arr.astype(complex), copy=False)
        else:
            arr = as_float_array(arr, "hk")
            if arr.shape != (3,):
                raise ValueError("component form must be a real 3-vector")
            arr = freeze(arr)
        self._set(arr)

    def matrix(self) -> np.ndarray:
        if self.hk.ndim == 2:
            return self.hk
        return qmatrix.operator_from_direction(self.hk)


def _as_hamiltonian(h) -> Hamiltonian:
    return h if isinstance(h, Hamiltonian) else Hamiltonian(h)


class FlowParams(ValueRecord):
    """Coefficients of the linearised purity flow near the pure fixed point.

    d(1-P)/dt = -D and dD/dt = -a D + b (1-P); the fixed-point regime needs
    a > 0 and 0 < b < a^2/4, giving decay rates (a +- sqrt(a^2-4b))/2.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self._set(a, b)

    @property
    def rates(self) -> tuple[float, float]:
        disc = self.a * self.a - 4.0 * self.b
        if disc < 0:
            raise ValueError("a^2 - 4b < 0: rates are complex (oscillatory regime)")
        root = math.sqrt(disc)
        return 0.5 * (self.a + root), 0.5 * (self.a - root)

    @property
    def in_fixed_point_regime(self) -> bool:
        return self.a > 0 and 0.0 < self.b < self.a * self.a / 4.0


def _purity(bloch: np.ndarray) -> np.ndarray:
    """sum_k bloch_k^2 of each row, added in k order whatever the memory layout."""
    squares = bloch * bloch
    total = squares[:, 0].copy()
    for column in squares.T[1:]:
        total += column
    return total


class Trajectory(Record):
    """A fixed-step run: the sample times and what the integrator produced there.

    ``integrate_open`` (and so ``integrate_bloch``) and ``syncoherence_flow``
    pass the Bloch ``components``, which ``bloch`` returns, and the rate
    ``d_values``; only ``integrate_von_neumann`` stores density ``matrices``.
    For a matrix run ``bloch`` is the Bloch components of the matrices (Pauli
    basis for 2x2, L basis for 4x4), derived on first read and kept.
    """

    __slots__ = ("times", "matrices", "d_values", "_bloch")

    def __init__(self, times: np.ndarray, components: np.ndarray | None = None,
                 matrices: np.ndarray | None = None, d_values: np.ndarray | None = None):
        self._set(times, matrices, d_values, components)

    @property
    def bloch(self) -> np.ndarray:
        if self._bloch is None:
            basis = PAULI if self.matrices.shape[1] == 2 else qmatrix.L_BASIS
            object.__setattr__(self, "_bloch", np.einsum("kij,nji->nk", basis, self.matrices).real.copy())
        return self._bloch

    @property
    def purity(self) -> np.ndarray:
        return _purity(self.bloch)


# ---------------------------------------------------------------------------
# rotations of distributions
# ---------------------------------------------------------------------------

def rotate_distribution(ensemble: Ensemble, rotation) -> Ensemble:
    """Rotate every micro-state of a sphere ensemble, carrying probabilities along.

    Commutes with reduction: reduce(rotated) = R reduce(original).
    """
    if ensemble.manifold != "s2":
        raise ValueError("rotation acts on S^2 ensembles")
    rot = check_rotation(rotation)
    return Ensemble("s2", ensemble.points @ rot.T, ensemble.probs)


# ---------------------------------------------------------------------------
# purity-conserving (unitary) evolution
# ---------------------------------------------------------------------------

def rotation_from_generator(alpha) -> np.ndarray:
    """Closed-form Bloch rotation for conjugation by U = exp(i alpha_m tau_m).

    S_kl = (1 - 2 sin^2 g) d_kl + 2 sin^2 g b_k b_l + 2 sin g cos g eps_klm b_m
    with g = |alpha| and b = alpha/g. The handedness (conjugation by
    exp(+i alpha.tau) rotates by -2g about alpha) is fixed by matching the
    matrix product U rho U^dagger.
    """
    a = as_float_array(alpha, "alpha")
    if a.shape != (3,):
        raise ValueError("alpha must be a real 3-vector")
    gamma = float(np.linalg.norm(a))
    if gamma == 0.0:
        return np.eye(3)
    beta = a / gamma
    s, c = math.sin(gamma), math.cos(gamma)
    return (
        (1.0 - 2.0 * s * s) * np.eye(3)
        + 2.0 * s * s * np.outer(beta, beta)
        + 2.0 * s * c * np.einsum("klm,m->kl", LEVI, beta)
    )


def _steps(t_span, dt: float) -> tuple[np.ndarray, float, int]:
    """Times, step and step count of a fixed-step run over t_span."""
    (t0, t1), dt = check_real(t_span, "t_span"), check_real(dt, "dt")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    ratio = (t1 - t0) / dt
    if not ratio < MAX_STEPS + 0.5:   # an infinite ratio fails here too
        raise ValueError(f"(t1 - t0) / dt = {ratio:.6g} steps; the limit is {MAX_STEPS}")
    n = max(1, int(round(ratio)))
    h = (t1 - t0) / n
    return t0 + h * np.arange(n + 1), h, n


def _rk4(y, t, h, rhs):
    k1 = rhs(y, t)
    k2 = rhs(y + 0.5 * h * k1, t + 0.5 * h)
    k3 = rhs(y + 0.5 * h * k2, t + 0.5 * h)
    k4 = rhs(y + h * k3, t + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@np.errstate(over="ignore", invalid="ignore")   # an overflow is raised below, not warned
def _linear_flow(y0, generator, h: float, n: int) -> np.ndarray:
    """(n + 1, dim) RK4 trajectory of dy/dt = A y from y0 with step h.

    On a linear flow an RK4 step is y <- y + Q y, Q = sum_{1<=j<=4} (h A)^j / j!
    built once; adding Q y to y, not applying a rounded I + Q, keeps rounding
    from biasing every step the same way. A non-finite y0 or Q is rejected
    before allocating, and so is a non-finite last row after stepping: with Q
    finite, a non-finite entry never turns finite again."""
    ha = h * np.asarray(generator)
    inc = ha   # Q in Horner form
    for j in (4.0, 3.0, 2.0):
        inc = ha @ (np.eye(len(ha)) + inc / j)
    if not (np.isfinite(y0).all() and np.isfinite(inc).all()):
        raise ValueError("non-finite initial state or step matrix")
    out = np.empty((n + 1, len(y0)), dtype=np.result_type(y0, inc))
    out[0] = y0
    for i in range(n):
        np.matmul(inc, out[i], out=out[i + 1])
        out[i + 1] += out[i]
    if not np.isfinite(out[-1]).all():
        raise ValueError(f"the flow overflowed to a non-finite state within {n} steps")
    return out


def _commutator(ham: np.ndarray) -> np.ndarray:
    """Generator of y -> -i [H, y] on row-major flattened matrices y."""
    eye = np.eye(ham.shape[0])
    return -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))


def integrate_von_neumann(rho0, hamiltonian, t_span, dt: float) -> Trajectory:
    """Fixed-step RK4 integration of d rho/dt = -i [H, rho].

    Accepts a density matrix, BlochState or Bloch vector. Trace and
    Hermiticity drift beyond DRIFT_TOL over the span abort the run.
    """
    ham = _as_hamiltonian(hamiltonian).matrix()
    mat = qmatrix.density_matrix(rho0)
    if ham.shape != mat.shape:
        raise ValueError("Hamiltonian and state dimensions differ")
    times, h, n = _steps(t_span, dt)
    mats = _linear_flow(mat.reshape(-1), _commutator(ham), h, n).reshape((n + 1,) + mat.shape)
    mat = mats[-1]
    if abs(np.trace(mat).real - 1.0) > DRIFT_TOL or np.abs(mat - mat.conj().T).max() > DRIFT_TOL:
        raise ConstraintViolation(f"integrator drifted: trace/Hermiticity broken beyond {DRIFT_TOL:g}")
    return Trajectory(times, matrices=mats)


def integrate_bloch(rho0, hk, t_span, dt: float) -> Trajectory:
    """Integrate the component form d rho_k/dt = 2 eps_lmk H_l rho_m: ``integrate_open`` at D = 0."""
    return integrate_open(rho0, hk, 0.0, t_span, dt)


def hamiltonian_from_rotation(s_of_t, t: float) -> np.ndarray:
    """Recover H_k from a rotating reduced map via

        H_k = -(1/4) dS_jl/dt S^-1_lm eps_jmk,

    with the time derivative taken by central differences of step _DIFF_STEP."""
    s_plus = np.asarray(s_of_t(t + _DIFF_STEP), dtype=float)
    s_minus = np.asarray(s_of_t(t - _DIFF_STEP), dtype=float)
    s_now = np.asarray(s_of_t(t), dtype=float)
    s_dot = (s_plus - s_minus) / (2.0 * _DIFF_STEP)
    m = s_dot @ np.linalg.inv(s_now)
    return -0.25 * np.einsum("jm,jmk->k", m, LEVI)


# ---------------------------------------------------------------------------
# purity-changing flows
# ---------------------------------------------------------------------------

def _check_purity(times, purity) -> None:
    """Abort at the first of ``times`` whose purity exceeds 1 + PURITY_TOL."""
    bad = np.flatnonzero(np.asarray(purity) > 1.0 + PURITY_TOL)
    if bad.size:
        i = bad[0]
        raise ConstraintViolation(
            f"purity exceeded 1 at t = {times[i]!r}: P = {float(purity[i])!r}; "
            "the flow left the physical region"
        )


def integrate_open(rho0, hamiltonian, d_rate, t_span, dt: float) -> Trajectory:
    """Integrate d rho/dt = -i [H, rho] + D (rho - 1/2) for the two-state system.

    The flow runs on the Bloch vector, d rho_k/dt = 2 eps_lmk H_l rho_m + D rho_k,
    from the Pauli components of the checked density matrix and of H.
    ``d_rate`` is a callable (bloch_vector, t) -> D, given a copy of the state,
    or a constant (a linear flow). Purity obeys dP/dt = 2 D P along the
    trajectory. A purity above 1 + PURITY_TOL aborts with a constraint-violation
    report instead of being projected back.
    """
    ham = _as_hamiltonian(hamiltonian if hamiltonian is not None else np.zeros(3)).matrix()
    mat = qmatrix.density_matrix(rho0)
    if mat.shape != (2, 2) or ham.shape != (2, 2):
        raise ValueError("open-system integration is implemented for the two-state system")
    vec, h_vec = (np.einsum("kij,ji->k", PAULI, m).real for m in (mat, 0.5 * ham))
    gen = 2.0 * np.einsum("klm,l->km", LEVI, h_vec)
    times, h, n = _steps(t_span, dt)
    if callable(d_rate):
        def rhs(y, t):
            return gen @ y + d_rate(y.copy(), t) * y

        out = np.empty((n + 1, 3))
        d_vals = np.empty(n + 1)
        out[0] = vec
        for i in range(n + 1):
            d_vals[i] = d_rate(out[i].copy(), times[i])
            purity = float(out[i] @ out[i])
            if purity > 1.0 + PURITY_TOL:
                _check_purity(times[i:i + 1], [purity])
            if i < n:
                out[i + 1] = _rk4(out[i], times[i], h, rhs)
        return Trajectory(times, out, d_values=d_vals)
    d = float(d_rate)
    traj = Trajectory(times, _linear_flow(vec, gen + d * np.eye(3), h, n), d_values=np.full(n + 1, d))
    _check_purity(times, traj.purity)
    return traj


def syncoherence_flow(p0: float, d0: float, params: FlowParams, t_span, dt: float) -> Trajectory:
    """Integrate the purity flow near the pure-state fixed point.

    State variables are u = 1 - P and D with du/dt = -D, dD/dt = -a D + b u.
    For a > 0, 0 < b < a^2/4 and 0 <= D0 <= eps_1 (1 - P0) the trajectory
    decays exponentially onto (P, D) = (1, 0); other parameter regimes
    integrate but are unvalidated. A purity above 1 + PURITY_TOL aborts.

    Returns a Trajectory whose ``bloch`` column holds P and ``d_values`` D.
    """
    u = 1.0 - float(p0)
    if u < 0:
        raise ValueError("initial purity exceeds 1")
    times, h, n = _steps(t_span, dt)
    state = _linear_flow(np.array([u, float(d0)]), [[0.0, -1.0], [params.b, -params.a]], h, n)
    bad = np.flatnonzero(state[:, 0] < -PURITY_TOL)
    if bad.size:
        raise ConstraintViolation(
            f"purity exceeded 1 at t = {times[bad[0]]!r}: a pure state cannot get purer"
        )
    return Trajectory(times, 1.0 - state[:, :1], d_values=state[:, 1])


def syncoherence_closed_form(p0: float, d0: float, params: FlowParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Exact (P, D) of the linear flow: 1-P and D as two-exponential decays.

    1 - P = x1 exp(-eps_1 t) + x2 exp(-eps_2 t),
    D     = eps_1 x1 exp(-eps_1 t) + eps_2 x2 exp(-eps_2 t),

    with rates eps_{1,2} = (a +- sqrt(a^2 - 4b))/2 and x1, x2 fixed by the
    initial conditions.
    """
    eps1, eps2 = params.rates
    if abs(eps1 - eps2) < RATE_GAP_TOL:
        raise ValueError("degenerate rates: closed form needs eps_1 != eps_2")
    u0 = 1.0 - float(p0)
    x1 = (float(d0) - eps2 * u0) / (eps1 - eps2)
    x2 = u0 - x1
    t = np.asarray(times, dtype=float) - float(times[0])
    u = x1 * np.exp(-eps1 * t) + x2 * np.exp(-eps2 * t)
    d = eps1 * x1 * np.exp(-eps1 * t) + eps2 * x2 * np.exp(-eps2 * t)
    return 1.0 - u, d

"""Time evolution: rotations of distributions, purity-conserving (unitary)
evolution, and purity-changing flows.

Purity-conserving evolution of the reduced state is an orthogonal rotation of
the Bloch vector, equivalently conjugation of the density matrix by a unitary
U = exp(i alpha_m tau_m); infinitesimally this is the von Neumann equation
d rho/dt = -i [H, rho]. For rho = (1 + rho_k B_k)/d and H = h_0 + h_k B_k, with
[B_k, B_l] = 2i f_klm B_m, it is d rho_m/dt = 2 f_klm h_k rho_l, with f read
from ``manifolds.STRUCTURE``: eps for the Pauli basis, and the table built from
the L basis' Pauli words (G. Kimura, Phys. Lett. A 314, 339 (2003)). The
two-state evolution adds a scaling rate D:

    d rho/dt = -i [H, rho] + D (rho - 1/2),   dP/dt = 2 D P.

Every flow runs on real components, by fixed-step classical RK4: one
precomputed step matrix for a constant-coefficient flow (``_linear_flow``),
general steps for a rate D(bloch, t). Spans over MAX_STEPS steps are rejected
before allocating; a purity above its pure-state value aborts, and nothing is
clamped or projected.
"""
from __future__ import annotations

import math

import numpy as np

from .manifolds import STRUCTURE, Ensemble, _components, bloch_vector
from .qmatrix import L_BASIS, PAULI
from .validate import (PURITY_TOL, RATE_GAP_TOL, ConstraintViolation, Record, ValueRecord, _check_dim, _dot,
                       _check_hermitian, _real_number, check_components, check_rotation, real_array)

MAX_STEPS = 2**20

# time step of the central difference in hamiltonian_from_rotation
_DIFF_STEP = 3e-5


class Hamiltonian(Record):
    """H = h_0 + h_k B_k stored as its 3 (Pauli) or 15 (L basis) components h_k,
    given as such or as a 2x2 or 4x4 Hermitian matrix, converted once,
    h_k = tr(B_k H)/d: h_0 drops out of every commutator."""

    __slots__ = ("hk",)

    def __init__(self, hk: np.ndarray):
        arr = real_array(hk, "hk", complex_ok=True)
        if arr.ndim == 2:
            arr = _components(_check_hermitian(arr, "Hamiltonian matrix")) / len(arr)
        self._set(check_components(arr, "hk"))


def _flow(rho0, hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vector of rho0, read and checked by ``manifolds.bloch_vector``, and the
    generator 2 f.h that H drives on it; a generator beyond the float range is a ValueError."""
    vec = bloch_vector(rho0)
    hk = (hamiltonian if isinstance(hamiltonian, Hamiltonian) else Hamiltonian(hamiltonian)).hk
    _check_dim(vec, len(hk), "rho0", "the Hamiltonian")
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is raised below, not warned
        gen = 2.0 * np.einsum("klm,l->km", STRUCTURE[len(vec)][1], hk)
    if not np.isfinite(gen).all():
        raise ValueError("the Hamiltonian's generator 2 f.h overflows the float range")
    return vec, gen


class FlowParams(ValueRecord):
    """Coefficients of the linearised purity flow near the pure fixed point.

    d(1-P)/dt = -D and dD/dt = -a D + b (1-P); the fixed-point regime needs
    a > 0 and 0 < b < a^2/4, giving decay rates (a +- sqrt(a^2-4b))/2.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self._set(_real_number(a, "a"), _real_number(b, "b"))

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


class Trajectory(Record):
    """A fixed-step run: the sample times, the real components there (``bloch``:
    the Bloch vector in the Pauli or L basis, or P for ``syncoherence_flow``),
    and the rate D, None for a von Neumann run."""

    __slots__ = ("times", "bloch", "d_values")

    def __init__(self, times: np.ndarray, bloch: np.ndarray, d_values: np.ndarray | None = None):
        self._set(times, bloch, d_values)

    @property
    def purity(self) -> np.ndarray:
        return _dot(self.bloch, self.bloch)

    @property
    def matrices(self) -> np.ndarray:
        """The density matrices (1 + rho_k B_k)/d of a Bloch run, rebuilt on each read."""
        basis = PAULI if self.bloch.shape[1] == 3 else L_BASIS
        return (np.eye(len(basis[0])) + np.einsum("nk,kij->nij", self.bloch, basis)) / len(basis[0])


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
    a = real_array(alpha, "alpha")
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
        + 2.0 * s * c * np.einsum("klm,m->kl", STRUCTURE[3][1], beta)
    )


def _steps(t_span, dt: float) -> tuple[np.ndarray, float, int]:
    """Times, step and step count of a fixed-step run over t_span."""
    span, dt = real_array(t_span, "t_span"), _real_number(dt, "dt")
    if span.shape != (2,):
        raise ValueError(f"t_span must be a list of 2 real numbers, got {t_span!r}")
    t0, t1 = span.tolist()
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


@np.errstate(over="ignore", invalid="ignore")   # an overflow is raised below, not warned
def _linear_flow(y0, generator, h: float, n: int) -> np.ndarray:
    """(n + 1, dim) RK4 trajectory of dy/dt = A y from y0 with step h.

    On a linear flow an RK4 step is y <- y + Q y, Q = sum_{1<=j<=4} (h A)^j / j!
    built once; adding Q y to y, not applying a rounded I + Q, keeps rounding
    from biasing every step the same way. A non-finite Q (y0 comes from checked
    input) is rejected before allocating, and so is a non-finite last row after
    stepping: with Q finite, a non-finite entry never turns finite again."""
    ha = h * np.asarray(generator)
    inc = ha   # Q in Horner form
    for j in (4.0, 3.0, 2.0):
        inc = ha @ (np.eye(len(ha)) + inc / j)
    if not np.isfinite(inc).all():
        raise ValueError("non-finite step matrix")
    out = np.empty((n + 1, len(y0)), dtype=np.result_type(y0, inc))
    out[0] = y0
    for i in range(n):
        np.matmul(inc, out[i], out=out[i + 1])
        out[i + 1] += out[i]
    if not np.isfinite(out[-1]).all():
        raise ValueError(f"the flow overflowed to a non-finite state within {n} steps")
    return out


def integrate_von_neumann(rho0, hamiltonian, t_span, dt: float) -> Trajectory:
    """Fixed-step RK4 integration of d rho/dt = -i [H, rho] on the Bloch components.

    Takes a density matrix, BlochState or Bloch vector of either size, and H of
    the same size. A purity above its pure-state value by over PURITY_TOL aborts.
    """
    vec, gen = _flow(rho0, hamiltonian)
    times, h, n = _steps(t_span, dt)
    bloch = _linear_flow(vec, gen, h, n)
    _check_purity(times, bloch)
    return Trajectory(times, bloch)


def integrate_bloch(rho0, hk, t_span, dt: float) -> Trajectory:
    """Integrate the component form d rho_k/dt = 2 eps_lmk H_l rho_m: ``integrate_open`` at D = 0."""
    return integrate_open(rho0, hk, 0.0, t_span, dt)


def hamiltonian_from_rotation(s_of_t, t: float) -> np.ndarray:
    """Recover H_k from a rotating reduced map via

        H_k = -(1/4) dS_jl/dt S^-1_lm eps_jmk,

    with the time derivative taken by central differences of step _DIFF_STEP."""
    s_plus, s_minus, s_now = (real_array(s_of_t(u), "s_of_t") for u in (t + _DIFF_STEP, t - _DIFF_STEP, t))
    s_dot = (s_plus - s_minus) / (2.0 * _DIFF_STEP)
    m = s_dot @ np.linalg.inv(s_now)
    return -0.25 * np.einsum("jm,jmk->k", m, STRUCTURE[3][1])


# ---------------------------------------------------------------------------
# purity-changing flows
# ---------------------------------------------------------------------------

def _check_purity(times, bloch: np.ndarray) -> None:
    """Abort at the first of ``times`` whose purity sum_k bloch_k^2 exceeds its
    pure-state value, 1 for 3 components and 3 for 15, by over PURITY_TOL."""
    bound = 1.0 if bloch.shape[1] == 3 else 3.0
    purity = _dot(bloch, bloch)
    bad = np.flatnonzero(purity > bound + PURITY_TOL)
    if bad.size:
        i = bad[0]
        raise ConstraintViolation(
            f"purity exceeded {bound:g} at t = {times[i]!r}: P = {float(purity[i])!r}; "
            "the flow left the physical region"
        )


def integrate_open(rho0, hamiltonian, d_rate, t_span, dt: float) -> Trajectory:
    """Integrate d rho/dt = -i [H, rho] + D (rho - 1/2) for the two-state system.

    The flow runs on the Bloch vector, d rho_k/dt = 2 eps_lmk H_l rho_m + D rho_k,
    from the checked state read by ``manifolds.bloch_vector`` and the Pauli components of H.
    ``d_rate`` is a callable (bloch_vector, t) -> D, given a copy of the state
    and called four times per RK4 step, or a constant (a linear flow). Purity
    obeys dP/dt = 2 D P along the trajectory. A purity above 1 + PURITY_TOL
    aborts with a constraint-violation report instead of being projected back.
    """
    vec, gen = _flow(rho0, hamiltonian if hamiltonian is not None else np.zeros(3))
    _check_dim(vec, 3, "rho0", "the two-state open flow")
    times, h, n = _steps(t_span, dt)
    if not callable(d_rate):
        d = _real_number(d_rate, "d_rate")
        bloch = _linear_flow(vec, gen + d * np.eye(3), h, n)
        _check_purity(times, bloch)
        return Trajectory(times, bloch, np.full(n + 1, d))

    def rate(y, t):
        return gen @ y + d_rate(y.copy(), t) * y

    out, d_vals = np.empty((n + 1, 3)), np.empty(n + 1)
    out[0] = vec
    for i in range(n + 1):
        y, t = out[i], times[i]
        d_vals[i] = d_rate(y.copy(), t)
        if _dot(y, y) > 1.0 + PURITY_TOL:
            _check_purity(times[i:i + 1], out[i:i + 1])
        if i < n:   # an RK4 step whose first stage reuses D(y, t)
            k1 = gen @ y + d_vals[i] * y
            k2 = rate(y + 0.5 * h * k1, t + 0.5 * h)
            k3 = rate(y + 0.5 * h * k2, t + 0.5 * h)
            k4 = rate(y + h * k3, t + h)
            out[i + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Trajectory(times, out, d_vals)


def syncoherence_flow(p0: float, d0: float, params: FlowParams, t_span, dt: float) -> Trajectory:
    """Integrate the purity flow near the pure-state fixed point.

    State variables are u = 1 - P and D with du/dt = -D, dD/dt = -a D + b u.
    For a > 0, 0 < b < a^2/4 and 0 <= D0 <= eps_1 (1 - P0) the trajectory
    decays exponentially onto (P, D) = (1, 0); other parameter regimes
    integrate but are unvalidated. A purity above 1 + PURITY_TOL aborts.

    Returns a Trajectory whose ``bloch`` column holds P and ``d_values`` D.
    """
    u = 1.0 - _real_number(p0, "p0")
    if u < 0:
        raise ValueError("initial purity exceeds 1")
    times, h, n = _steps(t_span, dt)
    state = _linear_flow(np.array([u, _real_number(d0, "d0")]), [[0.0, -1.0], [params.b, -params.a]], h, n)
    bad = np.flatnonzero(state[:, 0] < -PURITY_TOL)
    if bad.size:
        raise ConstraintViolation(
            f"purity exceeded 1 at t = {times[bad[0]]!r}: a pure state cannot get purer"
        )
    return Trajectory(times, 1.0 - state[:, :1], state[:, 1])


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
    u0 = 1.0 - _real_number(p0, "p0")
    x1 = (_real_number(d0, "d0") - eps2 * u0) / (eps1 - eps2)
    x2 = u0 - x1
    t = real_array(times, "times")
    t = t - t[0]
    u = x1 * np.exp(-eps1 * t) + x2 * np.exp(-eps2 * t)
    d = eps1 * x1 * np.exp(-eps1 * t) + eps2 * x2 * np.exp(-eps2 * t)
    return 1.0 - u, d

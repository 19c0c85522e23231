import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleq import qmatrix
from ensembleq.dynamics import (
    MAX_STEPS,
    FlowParams,
    Hamiltonian,
    Trajectory,
    hamiltonian_from_rotation,
    integrate_bloch,
    integrate_open,
    integrate_von_neumann,
    rotate_distribution,
    rotation_from_generator,
    syncoherence_closed_form,
    syncoherence_flow,
    _linear_flow,
    _steps,
)
from ensembleq.fourstate import interference_trajectory
from ensembleq.manifolds import STRUCTURE, BlochState, Ensemble, reduce_ensemble
from ensembleq.validate import ConstraintViolation


def _rk4_step(y, t, h, rhs):
    """One classical RK4 step of dy/dt = rhs(y, t)."""
    k1 = rhs(y, t)
    k2 = rhs(y + 0.5 * h * k1, t + 0.5 * h)
    k3 = rhs(y + 0.5 * h * k2, t + 0.5 * h)
    k4 = rhs(y + h * k3, t + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_bloch(rng):
    return random_unit(rng) * rng.uniform(0.0, 1.0)


def _conjugated(rho, alpha) -> np.ndarray:
    """Bloch vector of U rho U^dagger with U = exp(i alpha_m tau_m), by matrices."""
    gamma = float(np.linalg.norm(alpha))
    beta = alpha / gamma if gamma > 0 else alpha
    u = math.cos(gamma) * np.eye(2) + 1j * math.sin(gamma) * np.einsum("k,kij->ij", beta, qmatrix.PAULI)
    return np.einsum("kij,ji->k", qmatrix.PAULI, u @ qmatrix.density_from_bloch(rho) @ u.conj().T).real


def _dyad(psi) -> np.ndarray:
    return np.outer(psi, psi.conj())


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestStructureConstants:
    @pytest.mark.parametrize("size, nonzero", [(3, 6), (15, 120)], ids=["pauli", "l-basis"])
    def test_table_gives_every_commutator(self, size, nonzero):
        # [B_k, B_l] = 2i f_klm B_m with f totally antisymmetric and every entry 0 or +-1
        basis, f = qmatrix.PAULI if size == 3 else qmatrix.L_BASIS, STRUCTURE[size][1]
        assert np.array_equal(f, -f.transpose(1, 0, 2)) and np.array_equal(f, -f.transpose(0, 2, 1))
        assert set(np.unique(f)) == {-1.0, 0.0, 1.0} and np.count_nonzero(f) == nonzero
        for k in range(size):
            for l in range(size):
                commutator = basis[k] @ basis[l] - basis[l] @ basis[k]
                assert np.array_equal(commutator, 2j * np.einsum("m,mij->ij", f[k, l], basis))


class TestRotateDistribution:
    def test_identity(self):
        ens = Ensemble([[1.0, 0.0, 0.0]], [1.0])
        out = rotate_distribution(ens, np.eye(3))
        np.testing.assert_array_equal(out.points, ens.points)

    def test_quarter_turn_about_z(self):
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        ens = Ensemble([[1.0, 0.0, 0.0]], [1.0])
        out = rotate_distribution(ens, r)
        np.testing.assert_allclose(out.points[0], [0.0, 1.0, 0.0], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_commutes_with_reduce(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(6)
        p /= p.sum()
        ens = Ensemble(pts, p)
        r = random_rotation(rng)
        lhs = reduce_ensemble(rotate_distribution(ens, r)).rho
        rhs = r @ reduce_ensemble(ens).rho
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_non_orthogonal_rejected(self):
        ens = Ensemble([[1.0, 0.0, 0.0]], [1.0])
        for matrix, message in ((1.1 * np.eye(3), "not orthogonal"),
                                (np.diag([1.0, 1.0, -1.0]), "not a proper rotation")):
            with pytest.raises(ConstraintViolation, match=message):
                rotate_distribution(ens, matrix)


class TestUnitaryStep:
    def test_zero_generator(self):
        rho = np.array([0.3, 0.1, -0.2])
        np.testing.assert_array_equal(rotation_from_generator(np.zeros(3)) @ rho, rho)

    def test_quarter_rotation_matches_oracle(self):
        # alpha = (0, 0, pi/4) rotates (1,0,0) by a half turn about z; the
        # sense (to -y) is fixed by the matrix conjugation
        out = rotation_from_generator(np.array([0.0, 0.0, math.pi / 4.0])) @ np.array([1.0, 0.0, 0.0])
        oracle = _conjugated(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, math.pi / 4.0]))
        np.testing.assert_allclose(out, [0.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_conjugation_and_conserves_purity(self, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.normal(size=3) * rng.uniform(0.0, 3.0)
        rho = random_bloch(rng)
        stepped = rotation_from_generator(alpha) @ rho
        np.testing.assert_allclose(stepped, _conjugated(rho, alpha), atol=1e-12)
        assert abs(float(stepped @ stepped) - float(rho @ rho)) < 1e-14

    def test_non_orthogonal_map_changes_purity(self):
        rng = np.random.default_rng(2)
        s = rotation_from_generator(np.array([0.4, -0.2, 1.0])) * 0.9
        rho = random_bloch(rng)
        assert abs(float((s @ rho) @ (s @ rho)) - float(rho @ rho)) > 1e-3


class TestVonNeumann:
    def test_zero_hamiltonian_constant(self):
        rho0 = np.array([0.2, 0.1, 0.5])
        traj = integrate_von_neumann(rho0, np.zeros(3), (0.0, 2.0), 0.01)
        np.testing.assert_allclose(traj.bloch[-1], rho0, atol=1e-14)

    def test_precession_closed_form(self):
        omega = 1.0
        traj = integrate_von_neumann(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, omega]), (0.0, 10.0), 0.002
        )
        ref = np.column_stack([
            np.cos(2 * omega * traj.times),
            np.sin(2 * omega * traj.times),
            np.zeros_like(traj.times),
        ])
        assert np.abs(traj.bloch - ref).max() < 1e-8
        assert np.abs(traj.purity - 1.0).max() < 1e-10

    def test_matrix_and_bloch_integrators_agree(self):
        # both run the same generator 2 eps.h through the same linear flow
        rng = np.random.default_rng(3)
        for _ in range(5):
            h = rng.normal(size=3)
            rho0 = random_bloch(rng)
            tm = integrate_von_neumann(rho0, h, (0.0, 10.0), 0.002)
            tb = integrate_bloch(rho0, h, (0.0, 10.0), 0.002)
            assert np.array_equal(tm.times, tb.times)
            assert np.array_equal(tm.bloch, tb.bloch)

    def test_energy_conserved(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=3)
        traj = integrate_von_neumann(random_bloch(rng), Hamiltonian(h), (0.0, 10.0), 0.002)
        energies = [qmatrix.qm_expectation(qmatrix.operator_from_direction(h), m) for m in traj.matrices]
        assert max(energies) - min(energies) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_four_state_flow_follows_the_unitary_conjugation(self, seed):
        # rho_k(t) = tr(L_k U rho U^dagger) with U = exp(-i H t); H has a trace part
        rng = np.random.default_rng(seed)
        rho0, ham = _random_state_and_hamiltonian(rng, 4)
        ham = 0.5 * ham + rng.normal() * np.eye(4)
        traj = integrate_von_neumann(rho0, ham, (0.0, 0.1), 5e-4)
        lam, vec = np.linalg.eigh(ham)
        u = np.einsum("ij,tj,kj->tik", vec, np.exp(-1j * np.outer(traj.times, lam)), vec.conj())
        want = np.einsum("kij,tjl,tli->tk", qmatrix.L_BASIS, u @ rho0, u.conj().transpose(0, 2, 1)).real
        assert np.abs(traj.bloch - want).max() <= 1e-10

    def test_matrices_are_the_density_matrices_of_the_rows(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4):
            rho0, ham = _random_state_and_hamiltonian(rng, dim)
            traj = integrate_von_neumann(rho0, ham, (0.0, 0.5), 0.01)
            want = [qmatrix.density_from_bloch(row) for row in traj.bloch]
            assert np.array_equal(traj.matrices, want)

    @pytest.mark.parametrize("rho0, ham", [
        (np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.0, 20.0])),
        (0.5 * np.eye(15)[0], 20.0 * (qmatrix.l_operator(4) + qmatrix.l_operator(8))),
    ], ids=["two-state", "four-state"])
    def test_unstable_step_aborts_on_purity(self, rho0, ham):
        # omega dt = 4 lies outside RK4's stability interval: the purity grows
        # every step, while the step keeps the trace exactly
        bound = 1 if len(rho0) == 3 else 3
        with pytest.raises(ConstraintViolation, match=f"purity exceeded {bound} at t = "):
            integrate_von_neumann(rho0, ham, (0.0, 5.0), 0.1)

    def test_pure_state_matches_schrodinger(self):
        # psi(t) = exp(-i H t) psi(0) for constant H; compare the projector
        rng = np.random.default_rng(5)
        h = rng.normal(size=3)
        ham = qmatrix.operator_from_direction(h)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        traj = integrate_von_neumann(_dyad(psi0), h, (0.0, 5.0), 0.001)
        evals, evecs = np.linalg.eigh(ham)
        t = traj.times[-1]
        psi_t = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi0))
        np.testing.assert_allclose(traj.matrices[-1], _dyad(psi_t),
                                   atol=1e-8)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            integrate_von_neumann(np.zeros(3), np.zeros(3), (0.0, 1.0), -0.1)

    def test_bloch_integrator_validates_inputs(self):
        # the same purity bound integrate_von_neumann enforces on rho0
        with pytest.raises(ConstraintViolation):
            integrate_bloch(np.array([2.0, 0.0, 0.0]), np.ones(3), (0.0, 1.0), 0.1)
        with pytest.raises(ConstraintViolation):
            integrate_von_neumann(np.array([2.0, 0.0, 0.0]), np.ones(3), (0.0, 1.0), 0.1)
        for hk in (np.ones(2), np.ones(4), np.eye(3)):
            with pytest.raises(ValueError):
                integrate_bloch(np.array([0.5, 0.0, 0.0]), hk, (0.0, 1.0), 0.1)
        with pytest.raises(ValueError):
            integrate_bloch(np.zeros(15), np.ones(3), (0.0, 1.0), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_hamiltonian_rejected(self, bad):
        # NaN fails every "> tol" comparison: the Hermiticity and drift checks
        # cannot catch it, so it must be rejected on entry
        mat = np.array([[bad, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            Hamiltonian(mat)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_von_neumann(np.array([0.0, 0.0, 1.0]), mat, (0.0, 1.0), 0.1)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (1, 1)], ids=["3x3", "2x3", "1x1"])
    def test_matrix_shape_rejected(self, shape):
        # a wrong square shape would fail only later, as a dimension mismatch, and a
        # non-square one inside the Hermiticity check; the constructor names the shape
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            Hamiltonian(np.zeros(shape))

    def test_caller_components_copied_and_stored_read_only(self):
        v = np.array([0.0, 0.0, 1.0])
        h = Hamiltonian(v)
        v[2] = 5.0
        assert h.hk[2] == 1.0
        assert not h.hk.flags.writeable
        with pytest.raises(ValueError):
            h.hk[2] = 5.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_caller_matrix_copied_and_stored_read_only(self, dtype):
        mat = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=dtype)
        h = Hamiltonian(mat)
        mat[0, 0] = 5.0
        np.testing.assert_array_equal(h.hk, [0.5, 0.0, 1.0])
        assert not h.hk.flags.writeable
        with pytest.raises(ValueError):
            h.hk[0] = 5.0

    def test_matrix_stored_as_components_without_its_trace(self):
        rng = np.random.default_rng(11)
        for dim, basis in ((2, qmatrix.PAULI), (4, qmatrix.L_BASIS)):
            hk = rng.normal(size=len(basis))
            h = Hamiltonian(np.einsum("k,kij->ij", hk, basis) + rng.normal() * np.eye(dim))
            np.testing.assert_allclose(h.hk, hk, rtol=0.0, atol=1e-14)
            # the stored components build the same Hamiltonian and drive the same run
            rho0, _ = _random_state_and_hamiltonian(rng, dim)
            again = Hamiltonian(h.hk)
            assert np.array_equal(again.hk, h.hk)
            assert np.array_equal(integrate_von_neumann(rho0, again, (0.0, 0.1), 0.01).bloch,
                                  integrate_von_neumann(rho0, h, (0.0, 0.1), 0.01).bloch)


def _four_state_von_neumann():
    rho0 = np.zeros(15)
    rho0[0] = 0.5
    return integrate_von_neumann(rho0, Hamiltonian(qmatrix.l_operator(4)), (0.0, 1.0), 0.01)


def _random_state_and_hamiltonian(rng, dim):
    """A full-rank density matrix and a Hermitian matrix of size dim."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    ham = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return rho, ham + ham.conj().T


class TestTrajectoryMemory:
    @pytest.mark.parametrize("run", [
        lambda: integrate_von_neumann(np.array([0.3, 0.0, 0.4]), np.ones(3), (0.0, 1.0), 0.01),
        _four_state_von_neumann,
        lambda: integrate_open(np.array([0.3, 0.0, 0.4]), np.ones(3), -0.2, (0.0, 1.0), 0.01),
        lambda: integrate_open(np.array([0.3, 0.0, 0.4]), np.ones(3), lambda _b, _t: -0.2,
                               (0.0, 1.0), 0.01),
    ], ids=["von-neumann-2", "von-neumann-4", "open-constant", "open-callable"])
    def test_bloch_owns_its_memory(self, run):
        # every run stores its real components in an array of its own, and no matrices
        traj = run()
        assert traj.bloch.base is None and traj.bloch.dtype == float
        assert traj.bloch.shape in ((len(traj.times), 3), (len(traj.times), 15))

    def test_four_state_run_holds_only_components_and_times(self):
        rho0, ham = _random_state_and_hamiltonian(np.random.default_rng(12), 4)
        integrate_von_neumann(rho0, ham, (0.0, 0.01), 1e-3)   # warm numpy's caches
        tracemalloc.start()
        try:
            traj = integrate_von_neumann(rho0, ham, (0.0, 10.0), 1e-3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 10_001 and traj.bloch.shape == (10_001, 15)
        assert peak < 1.5 * 2**20
        assert held <= traj.bloch.nbytes + traj.times.nbytes + 64 * 2**10

    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_purity_summed_in_order_whatever_the_layout(self, k):
        rng = np.random.default_rng(40 + k)
        view = (rng.normal(size=(500, k)) + 1j * rng.normal(size=(500, k))).real
        want = np.zeros(500)
        for column in view.T:
            want = want + column * column
        for bloch in (view, view.copy()):
            assert np.array_equal(Trajectory(np.arange(500.0), bloch).purity, want)


class TestLinearFlow:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 16]), st.booleans(),
           st.floats(1e-4, 0.5))
    def test_one_step_is_one_generic_rk4_step(self, seed, dim, is_complex, h):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim))
        y = rng.normal(size=dim)
        if is_complex:
            a = a + 1j * rng.normal(size=(dim, dim))
            y = y + 1j * rng.normal(size=dim)
        want = _rk4_step(y, 0.0, h, lambda v, _t: a @ v)
        got = _linear_flow(y, a, h, 1)
        np.testing.assert_array_equal(got[0], y)
        assert np.abs(got[1] - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_constant_rate_matches_callable_rate(self, seed):
        rng = np.random.default_rng(seed)
        h, rho0, d = rng.normal(size=3), random_bloch(rng), -rng.uniform(0.0, 1.0)
        const = integrate_open(rho0, h, d, (0.0, 2.0), 0.01)
        call = integrate_open(rho0, h, lambda _b, _t: d, (0.0, 2.0), 0.01)
        np.testing.assert_array_equal(const.times, call.times)
        np.testing.assert_array_equal(const.d_values, call.d_values)
        assert np.abs(const.bloch - call.bloch).max() <= 1e-12

    @pytest.mark.parametrize("run", [
        lambda: integrate_open(np.array([0.4, -0.2, 0.5]), None, math.nan, (0.0, 1.0),
                               1.0 / MAX_STEPS),
        lambda: interference_trajectory(math.nan, 1.0, MAX_STEPS),
        lambda: syncoherence_flow(math.nan, 0.1, FlowParams(3.0, 2.0), (0.0, 1.0),
                                  1.0 / MAX_STEPS),
    ], ids=["open-nan-rate", "interference-nan-delta", "syncoherence-nan-p0"])
    def test_non_finite_input_rejected_before_allocating(self, run):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="non-finite"):
                run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # building the 8 MiB of times peaks at 16 MiB; the (2^20 + 1)-row trajectory
        # would hold at least 16 MiB more next to the times
        assert peak < 20 * 2**20

    def test_overflow_is_raised_not_returned(self):
        # a step matrix that overflows, a finite one whose trajectory overflows on the
        # way, and a generator 2 f.h that overflows (it warned, in each of the three
        # flows): each raises, and no overflow warning escapes. The finite one is a stiff
        # syncoherence flow (a h = 30): D overflows at row 70, one row before u, while
        # P = 1 - u stays below 1, and the error names that first non-finite step (the
        # old scan read u alone, and the old last-row check named the run length, 500)
        huge, x = Hamiltonian([0.0, 0.0, 1e308]), np.array([1.0, 0.0, 0.0])
        state = _linear_flow(np.array([0.1, 0.1]), [[0.0, -1.0], [2e3, -3e3]], 0.01, 500)
        assert np.isfinite(state[:70]).all() and np.isfinite(state[70, 0]) and not np.isfinite(state[70, 1])
        assert (state[:70, 0] > 0.0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                interference_trajectory(1.0, 1e300, 4096)
            with pytest.raises(ValueError, match="^the flow overflowed to a non-finite state within 70 steps$"):
                syncoherence_flow(0.9, 0.1, FlowParams(3e3, 2e3), (0.0, 5.0), 0.01)
            for flow in (lambda: integrate_von_neumann(x, huge, (0.0, 1.0), 0.01),
                         lambda: integrate_open(x, huge, -0.1, (0.0, 1.0), 0.01),
                         lambda: integrate_open(x, huge, lambda _b, _t: -0.1, (0.0, 1.0), 0.01)):
                with pytest.raises(ValueError, match="generator 2 f.h overflows"):
                    flow()


class TestStepCount:
    def test_limit_is_inclusive(self):
        assert _steps((0.0, float(MAX_STEPS)), 1.0)[2] == MAX_STEPS
        assert _steps((0.0, 1.0), 1.0 / MAX_STEPS)[2] == MAX_STEPS
        with pytest.raises(ValueError, match="limit"):
            _steps((0.0, MAX_STEPS + 1.0), 1.0)

    @pytest.mark.parametrize("t_span, dt", [
        ((0.0, math.inf), 0.01), ((0.0, math.nan), 0.01), ((-math.inf, 0.0), 0.01),
        ((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf), ((0.0, 1.0), 1e-320),
        ((-1e308, 1e308), 1.0),
    ])
    def test_non_finite_or_unbounded_rejected(self, t_span, dt):
        with pytest.raises(ValueError):
            _steps(t_span, dt)

    def test_oversized_span_rejected_before_allocating(self):
        # 2e9 steps: about 15 GiB of trajectory if the count were not checked first
        rho0, span, dt = np.array([0.4, -0.2, 0.5]), (0.0, 1e7), 0.005
        calls = [
            lambda: integrate_von_neumann(rho0, np.ones(3), span, dt),
            lambda: integrate_bloch(rho0, np.ones(3), span, dt),
            lambda: integrate_open(rho0, None, -0.35, span, dt),
            lambda: integrate_open(rho0, None, lambda _b, _t: -0.35, span, dt),
            lambda: syncoherence_flow(0.9, 0.1, FlowParams(3.0, 2.0), span, dt),
        ]
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(ValueError, match="limit"):
                    call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHamiltonianRecovery:
    def test_recovers_precession_rate(self):
        omega = 1.0

        def s_of_t(t):
            return rotation_from_generator(np.array([0.0, 0.0, -omega * t]))

        h = hamiltonian_from_rotation(s_of_t, t=0.7)
        np.testing.assert_allclose(h, [0.0, 0.0, omega], atol=1e-8)

    def test_recovers_generic_axis(self):
        hk = np.array([0.3, -0.5, 0.8])

        def s_of_t(t):
            return rotation_from_generator(-hk * t)

        h = hamiltonian_from_rotation(s_of_t, t=0.4)
        np.testing.assert_allclose(h, hk, atol=1e-8)


def _open_reference(rho0, hamiltonian, d_rate, t_span, dt) -> np.ndarray:
    """Bloch rows of d y/dt = -i [H, y] + D (y - 1/2) stepped on the 2x2 matrix by RK4."""
    ham = hamiltonian if np.ndim(hamiltonian) == 2 else qmatrix.operator_from_direction(hamiltonian)
    rate = d_rate if callable(d_rate) else lambda _b, _t: d_rate

    def bloch(y):
        return np.einsum("kij,ji->k", qmatrix.PAULI, y).real

    def rhs(y, t):
        return -1j * (ham @ y - y @ ham) + rate(bloch(y), t) * (y - 0.5 * np.eye(2))

    times, h, n = _steps(t_span, dt)
    mats = [rho0 if np.ndim(rho0) == 2 else qmatrix.density_from_bloch(rho0)]
    for i in range(n):
        mats.append(_rk4_step(mats[-1], times[i], h, rhs))
    return np.array([bloch(y) for y in mats])


class TestOpenEvolution:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["vector", "matrix"]),
           st.sampled_from(["vector", "state", "matrix"]), st.booleans())
    def test_bloch_flow_matches_the_matrix_flow(self, seed, h_form, rho_form, rate_is_callable):
        rng = np.random.default_rng(seed)
        hk, rho_vec = rng.normal(size=3), random_bloch(rng)
        h = hk if h_form == "vector" else qmatrix.operator_from_direction(hk, rng.normal())
        rho0 = {"vector": rho_vec, "state": BlochState(rho_vec),
                "matrix": qmatrix.density_from_bloch(rho_vec)}[rho_form]
        c0, c1 = rng.uniform(0.0, 1.0, size=2)
        if rate_is_callable:
            # state- and time-dependent, and never above 0 at purity one
            def d_rate(b, t):
                return c0 * (1.0 - float(b @ b)) + c1 * (math.sin(t) - 1.0)
        else:
            d_rate = -c0
        got = integrate_open(rho0, h, d_rate, (0.0, 1.0), 0.01)
        assert np.abs(got.bloch - _open_reference(rho0, h, d_rate, (0.0, 1.0), 0.01)).max() <= 1e-12

    def test_bloch_integrator_is_the_zero_rate_flow(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            h, rho0 = rng.normal(size=3), random_bloch(rng)
            closed = integrate_bloch(rho0, h, (0.0, 3.0), 0.01)
            opened = integrate_open(rho0, h, 0.0, (0.0, 3.0), 0.01)
            assert np.array_equal(closed.times, opened.times)
            assert np.array_equal(closed.bloch, opened.bloch)

    def test_callable_rate_is_called_four_times_per_step(self):
        calls = []

        def d_rate(_b, t):
            calls.append(t)
            return -0.2

        traj = integrate_open(np.array([0.3, 0.0, 0.4]), np.ones(3), d_rate, (0.0, 1.0), 1e-4)
        n = len(traj.times) - 1
        assert n == 10_000 and len(calls) == 4 * n + 1

    @pytest.mark.parametrize("seed", range(3))
    def test_callable_rate_steps_are_the_rk4_stages(self, seed):
        # the first stage reuses the stored D(y_i, t_i); the other three call D afresh
        rng = np.random.default_rng(seed)
        hk, rho0, c = rng.normal(size=3), random_bloch(rng), rng.uniform(0.1, 1.0)

        def d_rate(b, t):
            return c * (1.0 - float(b @ b)) - 0.3 * math.cos(t)

        got = integrate_open(rho0, hk, d_rate, (0.0, 1.0), 0.01)
        eps = np.zeros((3, 3, 3))
        for k, l, m in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[k, l, m], eps[l, k, m] = 1.0, -1.0
        gen = 2.0 * np.einsum("klm,l->km", eps, hk)
        times, h, n = _steps((0.0, 1.0), 0.01)
        want = [got.bloch[0]]   # rho0 read back from its density matrix, equal to within ulps
        np.testing.assert_allclose(want[0], rho0, rtol=0.0, atol=1e-15)
        for i in range(n):
            want.append(_rk4_step(want[-1], times[i], h, lambda y, t: gen @ y + d_rate(y, t) * y))
        assert np.array_equal(got.bloch, want)
        assert np.array_equal(got.d_values, [d_rate(y, t) for y, t in zip(want, times)])

    def test_rate_writing_into_its_argument_leaves_the_trajectory(self):
        def clobber(b, _t):
            b[:] = 7.0
            return -0.2

        rho0, h = np.array([0.3, 0.0, 0.4]), np.array([0.2, -0.5, 1.0])
        got = integrate_open(rho0, h, clobber, (0.0, 1.0), 0.01)
        want = integrate_open(rho0, h, lambda _b, _t: -0.2, (0.0, 1.0), 0.01)
        assert np.array_equal(got.bloch, want.bloch)

    def test_constant_negative_rate_decay(self):
        d = -0.35
        rho0 = np.array([0.4, -0.2, 0.5])
        traj = integrate_open(rho0, None, d, (0.0, 5.0), 0.005)
        decay = np.exp(d * traj.times)
        assert np.abs(traj.bloch - rho0[None, :] * decay[:, None]).max() < 1e-8
        p_ref = float(rho0 @ rho0) * np.exp(2 * d * traj.times)
        assert np.abs(traj.purity - p_ref).max() < 1e-8

    def test_time_dependent_rate_decay(self):
        # with H = 0, rho(t) = rho(0) exp(int_0^t D) = rho(0) exp(-0.2 t - 0.1 sin t); RK4's
        # midpoint stages must evaluate D at t + h/2
        rho0 = np.array([0.4, -0.2, 0.5])
        traj = integrate_open(rho0, None, lambda _b, t: -0.2 - 0.1 * math.cos(t), (0.0, 5.0), 0.01)
        decay = np.exp(-0.2 * traj.times - 0.1 * np.sin(traj.times))
        assert np.abs(traj.bloch - rho0[None, :] * decay[:, None]).max() < 1e-8

    def test_zero_rate_reduces_to_von_neumann(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=3)
        rho0 = random_bloch(rng)
        open_traj = integrate_open(rho0, h, 0.0, (0.0, 3.0), 0.002)
        closed_traj = integrate_von_neumann(rho0, h, (0.0, 3.0), 0.002)
        assert np.abs(open_traj.bloch - closed_traj.bloch).max() < 1e-12

    def test_positive_rate_approaches_pure(self):
        rho0 = np.array([0.0, 0.0, 0.5])

        def d_rate(bloch, _t):
            return 0.8 * (1.0 - float(bloch @ bloch))

        traj = integrate_open(rho0, None, d_rate, (0.0, 20.0), 0.01)
        assert np.all(np.diff(traj.purity) > -1e-12)
        assert traj.purity[-1] > 0.999
        assert traj.purity[-1] <= 1.0 + 1e-9

    def test_purity_overflow_aborts(self):
        with pytest.raises(ConstraintViolation):
            integrate_open(np.array([0.0, 0.0, 0.9]), None, 0.5, (0.0, 5.0), 0.01)

    @pytest.mark.parametrize("d_rate, step", [(0.5, 22), (lambda _b, _t: 0.5, 22), (1e3, 1), (lambda _b, _t: 1e3, 1)],
                             ids=["0.5", "<lambda>", "1e3", "<lambda>-1e3"])
    def test_purity_overflow_reported_at_first_step(self, d_rate, step):
        # P(t) = 0.81 exp(2 D t) first exceeds 1 + 1e-9 at step 22 (t = ln(1/0.81) = 0.2107) at D = 0.5,
        # and at step 1 at D = 1e3, where the constant rate, stepped on to a non-finite last row, was
        # reported as an overflow within 500 steps
        t_first = float((0.0 + 0.01 * np.arange(501))[step])
        with pytest.raises(ConstraintViolation, match=re.escape(f"purity exceeded 1 at t = {t_first!r}: P = ")):
            integrate_open(np.array([0.0, 0.0, 0.9]), None, d_rate, (0.0, 5.0), 0.01)

    @pytest.mark.parametrize("hamiltonian, d_rate, match", [
        (None, lambda _b, _t: math.nan, "^d_rate is non-finite: nan$"),
        (None, lambda _b, _t: math.inf, "^d_rate is non-finite: inf$"),
        (None, lambda _b, _t: 1e300, "^the flow overflowed to a non-finite state within 1 steps$"),
        (Hamiltonian([0.0, 0.0, 1e307]), lambda _b, _t: -0.1,
         "^the flow overflowed to a non-finite state within 1 steps$"),
        (None, lambda _b, _t: "abc", "^d_rate must be a real number, got 'abc'$"),
    ], ids=["nan-rate", "inf-rate", "huge-rate", "huge-hamiltonian", "string-rate"])
    def test_callable_rate_rejects_a_non_finite_rate_or_state(self, hamiltonian, d_rate, match):
        # a NaN rate gave an all-NaN trajectory, inf and 1e300 rates and a 2 f.h near the float
        # limit warned on overflow in the stages, and a string failed in numpy's conversion
        with pytest.raises(ValueError, match=match):
            integrate_open(np.array([1.0, 0.0, 0.0]), hamiltonian, d_rate, (0.0, 1.0), 0.01)


class TestSyncoherence:
    def test_fixed_point(self):
        traj = syncoherence_flow(1.0, 0.0, FlowParams(3.0, 2.0), (0.0, 4.0), 0.01)
        assert np.abs(traj.bloch[:, 0] - 1.0).max() == 0.0
        assert np.abs(traj.d_values).max() == 0.0

    def test_rates_for_paper_parameters(self):
        assert FlowParams(3.0, 2.0).rates == (2.0, 1.0)
        assert FlowParams(3.0, 2.0).in_fixed_point_regime

    def test_matches_closed_form(self):
        params = FlowParams(3.0, 2.0)
        traj = syncoherence_flow(0.9, 0.1, params, (0.0, 6.0), 0.001)
        p_ref, d_ref = syncoherence_closed_form(0.9, 0.1, params, traj.times)
        rel_p = np.abs(traj.bloch[:, 0] - p_ref) / (np.abs(p_ref) + 1e-12)
        rel_d = np.abs(traj.d_values - d_ref) / (np.abs(d_ref) + 1e-12)
        assert max(rel_p.max(), rel_d.max()) < 1e-6

    def test_purity_stays_below_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0.5, 4.0)
            b = rng.uniform(0.05, 0.9) * a * a / 4.0
            params = FlowParams(a, b)
            eps1, _ = params.rates
            p0 = rng.uniform(0.0, 1.0)
            d0 = rng.uniform(0.0, eps1 * (1.0 - p0))
            traj = syncoherence_flow(p0, d0, params, (0.0, 8.0), 0.005)
            assert traj.bloch[:, 0].max() <= 1.0 + 1e-9

    def test_overshoot_aborts(self):
        # starting faster than the fast rate allows overshoots purity one
        params = FlowParams(3.0, 2.0)
        with pytest.raises(ConstraintViolation):
            syncoherence_flow(0.99, 0.5, params, (0.0, 8.0), 0.005)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            syncoherence_flow(0.9, 0.0, FlowParams(3.0, 2.0), (0.0, 1.0), 0.0)

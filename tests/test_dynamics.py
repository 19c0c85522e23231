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
    _rk4,
    _steps,
)
from ensembleq.fourstate import interference_trajectory
from ensembleq.manifolds import Ensemble, reduce_ensemble
from ensembleq.validate import ConstraintViolation

PAULI_OR_L = {2: qmatrix.PAULI, 4: qmatrix.L_BASIS}


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


class TestRotateDistribution:
    def test_identity(self):
        ens = Ensemble("s2", [[1.0, 0.0, 0.0]], [1.0])
        out = rotate_distribution(ens, np.eye(3))
        np.testing.assert_array_equal(out.points, ens.points)

    def test_quarter_turn_about_z(self):
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        ens = Ensemble("s2", [[1.0, 0.0, 0.0]], [1.0])
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
        ens = Ensemble("s2", pts, p)
        r = random_rotation(rng)
        lhs = reduce_ensemble(rotate_distribution(ens, r)).rho
        rhs = r @ reduce_ensemble(ens).rho
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_non_orthogonal_rejected(self):
        ens = Ensemble("s2", [[1.0, 0.0, 0.0]], [1.0])
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
        rng = np.random.default_rng(3)
        for _ in range(5):
            h = rng.normal(size=3)
            rho0 = random_bloch(rng)
            tm = integrate_von_neumann(rho0, h, (0.0, 10.0), 0.002)
            tb = integrate_bloch(rho0, h, (0.0, 10.0), 0.002)
            assert np.abs(tm.bloch - tb.bloch).max() < 1e-8

    def test_energy_conserved(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=3)
        ham = Hamiltonian(h)
        traj = integrate_von_neumann(random_bloch(rng), ham, (0.0, 10.0), 0.002)
        energies = [qmatrix.qm_expectation(ham.matrix(), m) for m in traj.matrices]
        assert max(energies) - min(energies) < 1e-8

    def test_pure_state_matches_schrodinger(self):
        # psi(t) = exp(-i H t) psi(0) for constant H; compare the projector
        rng = np.random.default_rng(5)
        h = rng.normal(size=3)
        ham = Hamiltonian(h).matrix()
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
        assert h.matrix()[0, 0] == 1.0
        assert not h.hk.flags.writeable
        with pytest.raises(ValueError):
            h.hk[2] = 5.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_caller_matrix_copied_and_stored_read_only(self, dtype):
        mat = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=dtype)
        h = Hamiltonian(mat)
        mat[0, 0] = 5.0
        np.testing.assert_array_equal(h.matrix(), [[1.0, 0.5], [0.5, -1.0]])
        assert not h.hk.flags.writeable
        with pytest.raises(ValueError):
            h.hk[0, 0] = 5.0


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
        # a .real view would keep the complex array, twice its size, alive behind it
        traj = run()
        assert traj.bloch.base is None
        basis = PAULI_OR_L[traj.matrices.shape[1]]
        assert np.array_equal(traj.bloch, np.einsum("kij,nji->nk", basis, traj.matrices).real)

    def test_matrix_run_holds_only_matrices_and_times(self):
        rho0, ham = _random_state_and_hamiltonian(np.random.default_rng(12), 4)
        integrate_von_neumann(rho0, ham, (0.0, 0.01), 1e-3)   # warm numpy's caches
        tracemalloc.start()
        try:
            traj = integrate_von_neumann(rho0, ham, (0.0, 10.0), 1e-3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 10_001
        assert peak < 3 * 2**20
        assert held <= traj.matrices.nbytes + traj.times.nbytes + 64 * 2**10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]))
    def test_bloch_is_derived_once_from_the_matrices(self, seed, dim):
        rho0, ham = _random_state_and_hamiltonian(np.random.default_rng(seed), dim)
        traj = integrate_von_neumann(rho0, ham, (0.0, 0.5), 0.01)
        want = np.einsum("kij,nji->nk", PAULI_OR_L[dim], traj.matrices).real
        assert np.array_equal(traj.bloch, want)
        assert traj.bloch is traj.bloch

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
        want = _rk4(y, 0.0, h, lambda v, _t: a @ v)
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
        assert np.abs(const.matrices - call.matrices).max() <= 1e-12
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
        # a step matrix that overflows, and a finite one whose trajectory overflows
        # on the way: each raises, and no overflow warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                interference_trajectory(1.0, 1e300, 4096)
            with pytest.raises(ValueError, match="overflowed"):
                _linear_flow(np.array([1.0]), [[100.0]], 1.0, 1000)


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


class TestOpenEvolution:
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

    @pytest.mark.parametrize("d_rate", [0.5, lambda _b, _t: 0.5])
    def test_purity_overflow_reported_at_first_step(self, d_rate):
        # P(t) = 0.81 exp(t) first exceeds 1 + 1e-9 at step 22 (t = ln(1/0.81) = 0.2107)
        t_first = (0.0 + 0.01 * np.arange(501))[22]
        with pytest.raises(ConstraintViolation, match=re.escape(f"at t = {t_first!r}: P = ")):
            integrate_open(np.array([0.0, 0.0, 0.9]), None, d_rate, (0.0, 5.0), 0.01)


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

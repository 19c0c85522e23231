import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleq import qmatrix
from ensembleq.correlations import (conditional_correlation_2pt, conditional_correlation_3pt, measurement_chain,
                                    simulate_sequences)
from ensembleq.dynamics import integrate_open, integrate_von_neumann
from ensembleq.manifolds import BlochState
from ensembleq.observables import ProductObservable, TwoLevelObservable, expectation, prob_plus, spin
from ensembleq.qmatrix import (
    L_BASIS,
    PAULI,
    basis_identity_error,
    anticommutator_expectation,
    density_from_bloch,
    l_operator,
    nested_anticommutator_expectation,
    operator_from_direction,
    qm_expectation,
)
from ensembleq.validate import ConstraintViolation

SQ2 = 1.0 / math.sqrt(2.0)


def random_bloch(rng, radius=1.0):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, radius)


def random_psi(rng, dim=2):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _basis(dim):
    return PAULI if dim == 2 else L_BASIS


def bloch_from_density(rho) -> np.ndarray:
    """The basis-operator values tr(tau_k rho) or tr(L_k rho), inverting density_from_bloch."""
    return np.einsum("kij,ji->k", _basis(len(rho)), rho).real


def bloch_from_psi(psi) -> np.ndarray:
    """The basis-observable values f_k = psi^dagger (tau or L)_k psi of a pure state."""
    psi = np.asarray(psi, dtype=complex)
    return np.einsum("i,kij,j->k", psi.conj(), _basis(len(psi)), psi).real


def _outcome_probability(a, b) -> float:
    """Probability of +1 for the spin along the Bloch vector of a, in the micro-state of b."""
    return prob_plus(spin(bloch_from_psi(a)), bloch_from_psi(b))


def _transition_probability(a, b) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


class TestBases:
    def test_pauli_algebra(self):
        for k in range(3):
            assert np.array_equal(PAULI[k] @ PAULI[k], np.eye(2))
        assert np.array_equal(PAULI[0] @ PAULI[1], 1j * PAULI[2])

    def test_l_basis_identities_exact(self):
        assert basis_identity_error() == 0.0

    def test_corrupted_basis_detected(self, monkeypatch):
        bad = np.array(L_BASIS)
        bad[4, 0, 0] = 0.5
        monkeypatch.setattr(qmatrix, "L_BASIS", bad)
        assert basis_identity_error() > 1e-6

    def test_direct_product_forms(self):
        t1, t2, t3 = PAULI
        eye = np.eye(2)
        pairs = {
            1: np.kron(t3, eye), 2: np.kron(eye, t3), 3: np.kron(t3, t3),
            8: np.kron(t1, eye), 4: np.kron(eye, t1), 12: np.kron(t1, t1),
            6: np.kron(t3, t1), 10: np.kron(t1, t3), 14: -np.kron(t2, t2),
        }
        for k, want in pairs.items():
            assert np.array_equal(l_operator(k), want)


class TestDensityMatrices:
    def test_center_is_maximally_mixed(self):
        np.testing.assert_array_equal(density_from_bloch(np.zeros(3)), 0.5 * np.eye(2))

    def test_north_pole_is_projector(self):
        np.testing.assert_array_equal(
            density_from_bloch(np.array([0.0, 0.0, 1.0])), np.diag([1.0, 0.0])
        )

    def test_entangled_bloch_vector(self):
        vec = np.zeros(15)
        vec[2] = -1.0
        vec[11] = -1.0
        vec[13] = 1.0
        want = 0.25 * (np.eye(4) - l_operator(3) - (l_operator(12) - l_operator(14)))
        np.testing.assert_array_equal(density_from_bloch(vec), want)

    def test_round_trip_two_state(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            vec = random_bloch(rng)
            np.testing.assert_allclose(bloch_from_density(density_from_bloch(vec)), vec,
                                       atol=1e-14)

    def test_round_trip_four_state(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vec = bloch_from_psi(random_psi(rng, 4))
            np.testing.assert_allclose(bloch_from_density(density_from_bloch(vec)), vec,
                                       atol=1e-14)

    def test_purity_trace_relation(self):
        rng = np.random.default_rng(2)
        vec = random_bloch(rng)
        rho = density_from_bloch(vec)
        assert abs(np.trace(rho @ rho).real - 0.5 * (1.0 + vec @ vec)) < 1e-14
        vec4 = bloch_from_psi(random_psi(rng, 4))
        rho4 = density_from_bloch(vec4)
        assert abs(np.trace(rho4 @ rho4).real - 0.25 * (1.0 + vec4 @ vec4)) < 1e-13

    def test_purity_bound_rejected(self):
        with pytest.raises(ConstraintViolation):
            density_from_bloch(np.array([0.8, 0.8, 0.0]))


class TestExpectations:
    def test_diagonal(self):
        assert qm_expectation(PAULI[2], np.diag([1.0, 0.0])) == 1.0
        assert qm_expectation(PAULI[0], np.diag([1.0, 0.0])) == 0.0

    def test_matches_dot_product(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            vec = random_bloch(rng)
            got = qm_expectation(operator_from_direction(e), density_from_bloch(vec))
            assert abs(got - e @ vec) < 1e-12

    def test_direction_round_trip(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=15)
        e /= np.linalg.norm(e)
        op = operator_from_direction(e, 0.3)
        # the trace formulas e_k = tr(A L_k)/4 and e0 = tr(A)/4 invert the construction
        got_e = np.array([np.trace(op @ L_BASIS[k]).real / 4.0 for k in range(15)])
        got_e0 = float(np.trace(op).real / 4.0)
        np.testing.assert_allclose(got_e, e, atol=1e-14)
        assert abs(got_e0 - 0.3) < 1e-14

    def test_observable_object_rejected(self):
        # an observable reaches the oracle only through operator_of, which refuses a
        # conditional product; read as an array, its offset would be dropped
        with pytest.raises(ValueError, match="^direction must be an array of numbers"):
            operator_from_direction(ProductObservable(np.array([0.5, 0.0, 0.0]), 0.25))


class TestTransitions:
    # |<a|b>|^2 between two-state wave functions is the classical outcome
    # probability (1 + f_a.f_b)/2 of the spin along f_a in the micro-state f_b
    def test_same_and_orthogonal(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert _outcome_probability(a, a) == _transition_probability(a, a) == 1.0
        assert _outcome_probability(a, b) == _transition_probability(a, b) == 0.0

    def test_z_vs_x(self):
        z_up = np.array([1.0, 0.0], dtype=complex)
        x_up = np.array([SQ2, SQ2], dtype=complex)
        assert abs(_outcome_probability(z_up, x_up) - 0.5) < 1e-15
        assert abs(_transition_probability(z_up, x_up) - 0.5) < 1e-15

    def test_completeness_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = random_psi(rng)
            a_perp = np.array([-a[1].conjugate(), a[0].conjugate()])
            b = random_psi(rng)
            total = _outcome_probability(a, b) + _outcome_probability(a_perp, b)
            assert abs(total - 1.0) < 1e-12
            assert abs(_outcome_probability(a, b) - _transition_probability(a, b)) < 1e-12


class TestOperatorProducts:
    # Re tr(A B rho) = tr({A,B} rho)/2, while Re tr(A B C rho) mixes measurement
    # orders: it is the single-order tr({{A,B},C} rho)/4 plus tr([[A,B],C] rho)/4
    def test_squared_pauli(self):
        rng = np.random.default_rng(6)
        rho = density_from_bloch(random_bloch(rng))
        assert anticommutator_expectation(PAULI[0], PAULI[0], rho) == 1.0

    def test_anticommuting_pair(self):
        rng = np.random.default_rng(7)
        rho = density_from_bloch(random_bloch(rng))
        assert anticommutator_expectation(PAULI[0], PAULI[1], rho) == 0.0

    def test_triple_reads_component(self):
        rng = np.random.default_rng(8)
        vec = random_bloch(rng)
        rho = density_from_bloch(vec)
        assert abs(nested_anticommutator_expectation(PAULI[0], PAULI[0], PAULI[2], rho) - vec[2]) < 1e-14
        assert abs(np.trace(PAULI[0] @ PAULI[0] @ PAULI[2] @ rho).real - vec[2]) < 1e-14

    def test_symmetrized_vs_sequential(self):
        # the symmetrized triple product differs from the single-order value
        # by the double-commutator term
        rng = np.random.default_rng(9)
        a, b, c = (operator_from_direction(rng.normal(size=3) / np.linalg.norm(rng.normal(size=3)))
                   for _ in range(3))
        rho = density_from_bloch(random_bloch(rng))
        sym = np.trace(a @ b @ c @ rho).real
        seq = nested_anticommutator_expectation(a, b, c, rho)
        ab = a @ b - b @ a
        gap = 0.25 * np.trace((ab @ c - c @ ab) @ rho).real
        assert abs(sym - (seq + gap)) < 1e-13


NON_FINITE = [math.nan, math.inf, -math.inf]


def _with_bad_entry(size, bad):
    vec = np.zeros(size)
    vec[size // 2] = bad
    return vec


class TestNonFiniteInput:
    @pytest.mark.parametrize("size", [3, 15])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_density_from_bloch(self, size, bad):
        # rejected on entry, before the 15-component eigvalsh could raise LinAlgError
        with pytest.raises(ValueError, match="non-finite"):
            density_from_bloch(_with_bad_entry(size, bad))

    @pytest.mark.parametrize("size", [3, 15])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_operator_from_direction(self, size, bad):
        with pytest.raises(ValueError, match="non-finite"):
            operator_from_direction(_with_bad_entry(size, bad))
        with pytest.raises(ValueError, match="non-finite"):
            operator_from_direction(np.eye(size)[0], bad)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("bad", NON_FINITE + [complex(0.0, math.nan)])
    def test_check_density_matrix(self, dim, bad):
        mat = np.eye(dim, dtype=complex) / dim
        mat[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qmatrix.check_density_matrix(mat)


# magnitudes up to 1e300, so that e0 +- z cannot overflow
finite = st.floats(-1e300, 1e300)
unit_interval = st.floats(-1.0, 1.0)


class TestClosedFormBuilders:
    """The 2x2 builders equal the basis sums they replace, entry for entry."""

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(finite, finite, finite), finite)
    def test_operator_equals_basis_sum(self, e, e0):
        vec = np.array(e)
        want = np.einsum("k,kij->ij", vec, PAULI) + e0 * np.eye(2)
        got = operator_from_direction(vec, e0)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(unit_interval, unit_interval, unit_interval))
    def test_density_equals_basis_sum(self, rho):
        vec = np.array(rho)
        vec = vec / max(1.0, float(np.linalg.norm(vec)))
        want = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", vec, PAULI))
        got = density_from_bloch(vec)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


_Z = TwoLevelObservable([0.0, 0.0, 1.0])

STATE_CONSUMERS = {
    "measurement_chain": lambda s: measurement_chain([_Z], s),
    "simulate_sequences": lambda s: simulate_sequences([_Z], s, 10, seed=1),
    "conditional_correlation_2pt": lambda s: conditional_correlation_2pt(_Z, _Z, s),
    "conditional_correlation_3pt": lambda s: conditional_correlation_3pt(_Z, _Z, _Z, s),
    "expectation": lambda s: expectation(_Z, s),
    "integrate_von_neumann": lambda s: integrate_von_neumann(s, np.zeros(3), (0.0, 0.1), 0.01),
    "integrate_open": lambda s: integrate_open(s, None, -0.1, (0.0, 0.1), 0.01),
}


@pytest.mark.parametrize("consumer", sorted(STATE_CONSUMERS))
@pytest.mark.parametrize("state, error", [
    (np.array([[0.5, 0.1], [0.0, 0.5]]), ConstraintViolation),
    (np.array([0.8, 0.8, 0.0]), ConstraintViolation),
    (np.array([math.nan, 0.0, 0.0]), ValueError),
    (np.array([[math.nan, 0.0], [0.0, 0.5]]), ValueError),
], ids=["non-hermitian", "purity-bound", "nan-vector", "nan-matrix"])
def test_state_consumers_reject_alike(consumer, state, error):
    # every consumer reads its state through manifolds.bloch_vector: a matrix through
    # qmatrix.check_density_matrix, a vector through BlochState
    with pytest.raises(ValueError) as info:
        STATE_CONSUMERS[consumer](state)
    assert info.type is error


@pytest.mark.parametrize("build, vec", [
    (density_from_bloch, [1e300, 0.0, 0.0]),
    (density_from_bloch, [1e300] + [0.0] * 14),
    (BlochState, [1e300, 0.0, 0.0]),
], ids=["two-state", "four-state", "BlochState"])
def test_huge_bloch_vector_rejected_without_an_overflow_warning(build, vec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintViolation, match="purity bound"):
            build(np.array(vec))

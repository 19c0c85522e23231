import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensembleq import qmatrix
from ensembleq.correlations import classical_correlation, simulate_sequences
from ensembleq.dynamics import MAX_STEPS
from ensembleq.fourstate import (
    basis_psi,
    bell_check,
    classical_pair_correlator,
    entangled_bloch,
    entangled_psi,
    entangled_state,
    exchange_symmetry,
    interference_trajectory,
    is_exchange_symmetric,
    outcomes_from_t,
    plane_direction,
    quantum_pair_correlator,
    rotated_spin_correlation,
    rotated_spin_observables,
    symmetrized_hidden_ensemble,
)
from ensembleq.manifolds import (
    STRUCTURE,
    BlochState,
    Ensemble,
    SubstateEnsemble,
    canonical_direction,
    extend_to_substates,
    reduce_ensemble,
)
from ensembleq.observables import TwoLevelObservable, expectation, operator_of
from ensembleq.validate import PURITY_TOL, SAME_DIRECTION_TOL, ConstraintViolation, DimensionMismatch

SQ2 = 1.0 / math.sqrt(2.0)


def random_four_state_bloch(rng, n_pure=4):
    psis = rng.normal(size=(n_pure, 4)) + 1j * rng.normal(size=(n_pure, 4))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    w = rng.random(n_pure)
    w /= w.sum()
    return sum(wi * _bloch_from_psi(psi) for wi, psi in zip(w, psis))


def _bloch_from_psi(psi) -> np.ndarray:
    """The basis-observable values f_k = psi^dagger L_k psi of a pure state."""
    psi = np.asarray(psi, dtype=complex)
    return np.einsum("i,kij,j->k", psi.conj(), qmatrix.L_BASIS, psi).real


def exchange_matrix() -> np.ndarray:
    """E on wave functions: the permutation swapping components 2 and 3."""
    e = np.eye(4)
    e[[1, 2]] = e[[2, 1]]
    return e


def _exchange_class_by_matrix(rho) -> str:
    """The exchange class by the matrix rule: E rho E against rho, tr rho^2, then the sign of tr(E rho)."""
    ex = exchange_matrix()
    if np.abs(ex @ rho @ ex - rho).max() > PURITY_TOL:
        return "forbidden"
    if np.trace(rho @ rho).real < 1.0 - PURITY_TOL:
        return "symmetric"
    return "bosonic" if np.trace(ex @ rho).real > 0 else "fermionic"


def _point_mass_four(psi) -> Ensemble:
    return Ensemble("four", [_bloch_from_psi(psi)], [1.0])


def _rotated_spin_operators(theta, phi):
    """cos(t) L1 + sin(t) L8 and cos(p) L2 + sin(p) L4, the operators of the rotated spins."""
    return tuple(map(operator_of, rotated_spin_observables(theta, phi)))


def _interference_at(delta, t):
    """The reduced state at time t of an interference run with 64 steps per radian, and <T_2>."""
    _, f2, f5 = interference_trajectory(delta, t, max(64, int(math.ceil(abs(delta * t) * 64))))
    return _interference_state(f2[-1], f5[-1]), float(f2[-1])


def _interference_state(f2, f5) -> BlochState:
    """The superposed state: f1 = 1, f2 = f3, f5 = f7 and every other component zero."""
    vec = np.zeros(15)
    vec[0] = 1.0
    vec[1] = vec[2] = f2
    vec[4] = vec[6] = f5
    return BlochState(vec)


class TestOutcomeTables:
    def test_anticorrelated(self):
        table = outcomes_from_t(0.0, 0.0, -1.0)
        assert table.w_pm == 0.5 and table.w_mp == 0.5
        assert table.w_pp == 0.0 and table.w_mm == 0.0

    def test_both_bits_up(self):
        table = outcomes_from_t(1.0, 1.0, 1.0)
        assert table.w_pp == 1.0

    def test_centre(self):
        table = outcomes_from_t(0.0, 0.0, 0.0)
        assert (table.w_pp, table.w_pm, table.w_mp, table.w_mm) == (0.25, 0.25, 0.25, 0.25)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            outcomes_from_t(1.0, 1.0, -1.0)


class TestEntangledState:
    def test_matrix_equals_tensor_form(self):
        t = qmatrix.PAULI
        want = 0.25 * (np.eye(4) - np.kron(t[0], t[0]) - np.kron(t[1], t[1])
                       - np.kron(t[2], t[2]))
        np.testing.assert_array_equal(entangled_state(-1), want)

    def test_matrix_matches_wavefunction_dyad(self):
        for sign in (1, -1):
            dyad = np.outer(entangled_psi(sign), entangled_psi(sign).conj())
            np.testing.assert_allclose(entangled_state(sign), dyad, atol=1e-15)

    def test_bit_expectations_exact(self):
        rho = entangled_state(-1)
        assert qmatrix.qm_expectation(qmatrix.l_operator(1), rho) == 0.0
        assert qmatrix.qm_expectation(qmatrix.l_operator(2), rho) == 0.0
        assert qmatrix.qm_expectation(qmatrix.l_operator(3), rho) == -1.0

    def test_bloch_components(self):
        for sign in (1, -1):
            vec = entangled_bloch(sign).rho
            assert vec[2] == -1.0 and vec[11] == sign and vec[13] == -sign
            assert np.count_nonzero(vec) == 3
            assert entangled_bloch(sign).rho @ entangled_bloch(sign).rho == 3.0

    def test_anticorrelation_conditionals(self):
        # conditional probability of bit 2 given bit 1 from the outcome table
        rho = entangled_state(-1)
        t_vals = [qmatrix.qm_expectation(qmatrix.l_operator(m), rho) for m in (1, 2, 3)]
        w = outcomes_from_t(*t_vals)
        p_up = w.w_pp + w.w_pm
        assert w.w_pp / p_up == 0.0       # p(+1; +1)
        assert w.w_pm / p_up == 1.0       # p(-1; +1)
        p_down = w.w_mp + w.w_mm
        assert w.w_mp / p_down == 1.0     # p(+1; -1)
        assert w.w_mm / p_down == 0.0


class TestRotatedSpins:
    def test_operators_square_to_one(self):
        a, b = _rotated_spin_operators(0.7, 1.9)
        np.testing.assert_allclose(a @ a, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(b @ b, np.eye(4), atol=1e-15)

    def test_equal_angles_fully_anticorrelated(self):
        bloch = entangled_bloch(-1)
        for theta in (0.0, 0.4, 2.2):
            assert abs(rotated_spin_correlation(theta, theta, bloch) + 1.0) < 1e-15

    def test_right_angle_uncorrelated(self):
        bloch = entangled_bloch(-1)
        val = rotated_spin_correlation(math.pi / 2.0, 0.0, bloch)
        assert abs(val) < 1e-15

    def test_specific_angles(self):
        bloch = entangled_bloch(-1)
        val = rotated_spin_correlation(math.pi / 2.0, math.pi / 4.0, bloch)
        assert abs(val + SQ2) < 1e-15

    def test_minus_cosine_over_random_angles(self):
        rng = np.random.default_rng(0)
        bloch = entangled_bloch(-1)
        for _ in range(100):
            th, ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
            assert abs(rotated_spin_correlation(th, ph, bloch) + math.cos(th - ph)) < 1e-12

    def test_component_combination_matches_anticommutator(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            bloch = random_four_state_bloch(rng)
            th, ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
            a, b = _rotated_spin_operators(th, ph)
            rho = qmatrix.density_from_bloch(bloch)
            oracle = qmatrix.anticommutator_expectation(a, b, rho)
            assert abs(rotated_spin_correlation(th, ph, bloch) - oracle) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
    def test_correlation_is_the_d_contraction(self, seed, n_pure, theta, phi):
        # a.b = 0 (the spins act on different bits), so tr({A, B} rho)/2 = a_k b_l d_klm rho_m
        bloch = random_four_state_bloch(np.random.default_rng(seed), n_pure)
        a, b = rotated_spin_observables(theta, phi)
        want = np.einsum("k,l,klm,m->", a.e, b.e, STRUCTURE[15][0], bloch)
        assert abs(rotated_spin_correlation(theta, phi, bloch) - want) < 1e-12

    @pytest.mark.parametrize("rho3", [5.0, 1.5])
    def test_unphysical_state_rejected(self, rho3):
        # at theta = phi = 0 the correlation is rho_3: beyond 1 only off the state
        # space, past the purity bound (5) or with the bound met but rho not positive (1.5)
        vec = np.zeros(15)
        vec[2] = rho3
        with pytest.raises(ConstraintViolation):
            rotated_spin_correlation(0.0, 0.0, vec)
        with pytest.raises(ConstraintViolation):
            quantum_pair_correlator(vec)


class TestBellHarness:
    def test_quantum_violation_at_marked_angles(self):
        corr = quantum_pair_correlator(entangled_bloch(-1))
        res = bell_check(corr, math.pi / 2.0, math.pi / 4.0)
        assert res.violated
        assert abs(res.lhs - SQ2) < 1e-12
        assert abs(res.rhs - (1.0 - SQ2)) < 1e-12
        assert res.lhs - res.rhs > 0.414 - 1e-9

    def test_zero_correlator_satisfies(self):
        res = bell_check(lambda _t: 0.0, math.pi / 2.0, math.pi / 4.0)
        assert not res.violated and res.lhs == 0.0 and res.rhs == 1.0

    def test_classical_correlators_satisfy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ens = symmetrized_hidden_ensemble(rng, n_base=3, order=int(rng.integers(3, 7)))
            corr = classical_pair_correlator(ens)
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            res = bell_check(corr, t1, t2)
            assert not res.violated

    def test_classical_correlator_is_stationary(self):
        # pair correlations of the symmetrised ensemble depend only on the
        # angle difference, which is what the single-angle Bell form assumes
        rng = np.random.default_rng(3)
        ens = symmetrized_hidden_ensemble(rng, n_base=4, order=5)
        corr = classical_pair_correlator(ens)
        from ensembleq.correlations import classical_correlation
        from ensembleq.manifolds import extend_to_substates
        from ensembleq.fourstate import plane_direction

        for t1, t2 in ((0.9, 0.3), (2.5, 1.1)):
            sub = extend_to_substates(ens, [plane_direction(t1), plane_direction(t2)])
            pairwise = -classical_correlation(plane_direction(t1), plane_direction(t2), sub)
            assert abs(pairwise - corr(t1 - t2)) < 1e-12

    def test_classical_coincident_angles(self):
        rng = np.random.default_rng(4)
        corr = classical_pair_correlator(symmetrized_hidden_ensemble(rng))
        assert corr(0.0) == -1.0
        assert corr(math.pi) == 1.0   # antipodal analyser, anticorrelated pair

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(3, 12))
    def test_hidden_ensemble_equals_the_point_by_point_build(self, seed, n_base, order):
        # the reference: one point at a time with math.cos and math.sin, bit for bit
        rng = np.random.default_rng(seed)
        z, phi0 = rng.uniform(-1.0, 1.0, size=n_base), rng.uniform(0.0, 2.0 * math.pi, size=n_base)
        w = rng.random(n_base) + 0.05
        w = w / w.sum()
        pts, probs = [], []
        for j in range(n_base):
            r = math.sqrt(max(0.0, 1.0 - z[j] ** 2))
            for k in range(order):
                ang = phi0[j] + 2.0 * math.pi * k / order
                pts.append([r * math.cos(ang), r * math.sin(ang), z[j]])
                probs.append(w[j] / order)
        pts = np.asarray(pts)
        ens = symmetrized_hidden_ensemble(np.random.default_rng(seed), n_base, order)
        assert np.array_equal(ens.points, pts / np.linalg.norm(pts, axis=1, keepdims=True))
        assert np.array_equal(ens.probs, probs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(3, 8),
           st.floats(-4.0 * math.pi, 4.0 * math.pi), st.floats(-4.0 * math.pi, 4.0 * math.pi))
    # t2 inside a 1e-9 coincidence window broke the inequality by 4e-11
    @example(0, 1, 3, 1.0, 1e-10)
    def test_classical_correlator_equals_substate_composition(self, seed, n_base, order, t1, t2):
        # the paper's construction: sharp sign values on a substate table at
        # the two directions, anticorrelated by the flip of the second member
        ens = symmetrized_hidden_ensemble(np.random.default_rng(seed), n_base, order)

        def by_substates(theta):
            c0, f0 = canonical_direction(plane_direction(0.0))
            c1, f1 = canonical_direction(plane_direction(theta))
            if np.abs(c0 - c1).max() < SAME_DIRECTION_TOL:
                return -float(f0 * f1)
            sub = extend_to_substates(ens, [c0, c1])
            return -float(f0 * f1) * classical_correlation(c0, c1, sub)

        corr = classical_pair_correlator(ens)
        for theta in (t1, t2, t1 - t2, 0.0, math.pi, 2.0 * math.pi):
            assert abs(corr(theta) - by_substates(theta)) < 1e-12
        assert not bell_check(by_substates, t1, t2).violated

    def test_classical_correlator_needs_a_sphere_ensemble(self):
        ens = _point_mass_four(entangled_psi(1))
        with pytest.raises(ValueError, match="sphere ensembles"):
            classical_pair_correlator(ens)

    def test_classical_correlator_builds_no_substate_table(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a substate table was built")

        monkeypatch.setattr(SubstateEnsemble, "__init__", refuse)
        corr = classical_pair_correlator(symmetrized_hidden_ensemble(np.random.default_rng(5)))
        for theta in (0.0, 0.7, math.pi, 2.0, 2.0 * math.pi):
            assert abs(corr(theta)) <= 1.0


class TestInterference:
    def test_oscillation_values(self):
        delta = 1.0
        assert _interference_at(delta, 0.0)[1] == 1.0
        assert abs(_interference_at(delta, math.pi / 2.0)[1]) < 1e-8
        assert abs(_interference_at(delta, math.pi)[1] + 1.0) < 1e-8

    def test_matches_cosine_over_period(self):
        delta = 1.0
        times, f2, _f5 = interference_trajectory(delta, 2.0 * math.pi, 4096)
        assert np.abs(f2 - np.cos(delta * times)).max() < 1e-8

    def test_density_matrix_form(self):
        # rho = (1 + L1 + cos(dt)(L2 + L3) - sin(dt)(L5 + L7)) / 4
        delta, t = 0.8, 1.3
        state, _ = _interference_at(delta, t)
        l = qmatrix.L_BASIS
        want = 0.25 * (np.eye(4) + l[0] + math.cos(delta * t) * (l[1] + l[2])
                       - math.sin(delta * t) * (l[4] + l[6]))
        np.testing.assert_allclose(qmatrix.density_from_bloch(state.rho), want, atol=1e-8)

    def test_state_stays_pure(self):
        times, f2, f5 = interference_trajectory(1.0, 5.0, 4096)
        for i in range(0, len(times), 512):
            rho = _interference_state(f2[i], f5[i]).rho
            assert abs(rho @ rho - 3.0) < 1e-8


    def test_step_count_bounded_before_allocating(self):
        tracemalloc.start()
        try:
            for n_steps in (MAX_STEPS + 1, 10**12):
                with pytest.raises(ValueError, match="limit"):
                    interference_trajectory(1.0, 1.0, n_steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("t_final", [math.inf, math.nan, -1.0])
    def test_bad_span_rejected(self, t_final):
        with pytest.raises(ValueError, match="t_final"):
            interference_trajectory(1.0, t_final)

class TestExchangeSymmetry:
    def test_classifications(self):
        assert is_exchange_symmetric(entangled_psi(-1)) == "fermionic"
        assert is_exchange_symmetric(entangled_psi(1)) == "bosonic"
        assert is_exchange_symmetric(basis_psi(1)) == "bosonic"
        assert is_exchange_symmetric(basis_psi(4)) == "bosonic"
        # a global phase leaves the class alone; |psi|^2 sums re^2 + im^2, not re^2 - im^2
        assert is_exchange_symmetric(np.exp(0.7j) * basis_psi(1)) == "bosonic"
        combo = (entangled_psi(1) + basis_psi(1) + basis_psi(4)) / math.sqrt(3.0)
        assert is_exchange_symmetric(combo) == "bosonic"

    def test_superposition_forbidden(self):
        mixed = 0.6 * entangled_psi(-1) + 0.8 * entangled_psi(1)
        assert is_exchange_symmetric(mixed) == "forbidden"
        assert is_exchange_symmetric(basis_psi(2)) == "forbidden"

    def test_symmetric_mixed_state(self):
        rho = 0.5 * entangled_state(1) + 0.5 * entangled_state(-1)
        assert is_exchange_symmetric(rho) == "symmetric"

    @pytest.mark.parametrize("psi, error, message", [
        (np.zeros(4), ConstraintViolation, "not normalised"),
        (2.0 * basis_psi(1), ConstraintViolation, "not normalised"),
        ((1.0 + 1e-9) * entangled_psi(-1), ConstraintViolation, "not normalised"),
        (np.array([1e300, 0.0, 0.0, 0.0]), ConstraintViolation, "not normalised"),
        (np.full(4, np.nan), ValueError, "non-finite"),
        (np.array([0.0, 1j * np.inf, 0.0, 0.0]), ValueError, "non-finite"),
    ], ids=["zeros", "doubled", "off-by-2e-9", "huge", "nan", "inf"])
    def test_wave_function_must_be_finite_and_normalised(self, psi, error, message):
        # these were classified: zeros as "bosonic", NaN as "forbidden"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                is_exchange_symmetric(psi)

    @pytest.mark.parametrize("state", [np.eye(2) / 2.0, np.array([0.0, 0.0, 1.0])],
                             ids=["matrix", "bloch"])
    def test_two_state_input_rejected(self, state):
        with pytest.raises(DimensionMismatch):
            is_exchange_symmetric(state)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["bosonic", "fermionic", "forbidden"]),
           st.booleans())
    def test_exchange_eigenspaces_by_sign(self, seed, want, as_matrix):
        # E = +1 on psi_1, psi_4 and psi_2 + psi_3, E = -1 on psi_2 - psi_3; weight in both is forbidden
        rng = np.random.default_rng(seed)
        sym = (rng.normal(size=3) + 1j * rng.normal(size=3)) @ [basis_psi(1), basis_psi(4), entangled_psi(1)]
        sym /= np.linalg.norm(sym)
        weight = {"bosonic": 1.0, "fermionic": 0.0, "forbidden": rng.uniform(0.05, 0.95)}[want]
        anti = np.exp(2j * math.pi * rng.random()) * entangled_psi(-1)
        psi = math.sqrt(weight) * sym + math.sqrt(1.0 - weight) * anti
        psi = np.exp(2j * math.pi * rng.random()) * psi / np.linalg.norm(psi)
        assert is_exchange_symmetric(np.outer(psi, psi.conj()) if as_matrix else psi) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["bosonic", "fermionic", "forbidden", "symmetric"]),
           st.floats(1e-6, 1.0 - 1e-6), st.sampled_from(["psi", "matrix", "vector"]))
    @example(0, "forbidden", 1e-6, "psi")
    @example(0, "forbidden", 1.0 - 1e-6, "vector")
    def test_vector_classes_equal_the_matrix_rule(self, seed, want, weight, form):
        # pure states in the E = +1 and E = -1 spaces, pure states with weight >= 1e-6 in both,
        # and E-invariant mixtures of a +1 state with a state of either space
        rng = np.random.default_rng(seed)

        def eigenstate(sign):
            if sign < 0:
                return np.exp(2j * math.pi * rng.random()) * entangled_psi(-1)
            v = (rng.normal(size=3) + 1j * rng.normal(size=3)) @ [basis_psi(1), basis_psi(4), entangled_psi(1)]
            return v / np.linalg.norm(v)

        if want == "symmetric":
            pair = eigenstate(1), eigenstate(rng.choice([1, -1]))
            rho = sum(w * np.outer(v, v.conj()) for w, v in zip((weight, 1.0 - weight), pair))
            psi, form = None, "matrix" if form == "psi" else form
        else:
            w = {"bosonic": 1.0, "fermionic": 0.0, "forbidden": weight}[want]
            psi = math.sqrt(w) * eigenstate(1) + math.sqrt(1.0 - w) * eigenstate(-1)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
        assert _exchange_class_by_matrix(rho) == want
        vec = np.einsum("kij,ji->k", qmatrix.L_BASIS, rho).real
        assert is_exchange_symmetric({"psi": psi, "matrix": rho, "vector": vec}[form]) == want

    def test_index_map_matches_conjugation(self):
        ex = exchange_matrix()
        perm = [exchange_symmetry(np.eye(15)[k]) for k in range(15)]
        for k in range(15):
            conj = ex @ qmatrix.L_BASIS[k] @ ex
            want = sum(perm[k][l] * qmatrix.L_BASIS[l] for l in range(15))
            np.testing.assert_array_equal(conj, want)

    def test_index_map_on_wavefunctions(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            f_swapped = _bloch_from_psi(exchange_matrix() @ psi)
            np.testing.assert_allclose(f_swapped, exchange_symmetry(_bloch_from_psi(psi)), atol=1e-13)

    def test_involution(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=15)
        np.testing.assert_array_equal(exchange_symmetry(exchange_symmetry(f)), f)

    @pytest.mark.parametrize("f, message", [
        (np.zeros(3), "15-component"),
        (np.eye(4) / 4.0, "3 or 15 components"),
        (np.eye(15)[0] * 1j, "complex entries"),
        (np.full(15, np.nan), "non-finite"),
    ], ids=["3-vector", "density-matrix", "complex", "nan"])
    def test_index_map_reads_only_real_finite_15_vectors(self, f, message):
        with pytest.raises(ValueError, match=message):
            exchange_symmetry(f)


class TestBasisExpectations:
    def test_three_ways_agree(self):
        rng = np.random.default_rng(7)
        states, probs = [], rng.random(5)
        probs /= probs.sum()
        for _ in range(5):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            states.append(_bloch_from_psi(psi / np.linalg.norm(psi)))
        ens = Ensemble("four", np.array(states), probs)
        # <T_m> by per-micro-state sum, by the reduced state, and by tr(L_m rho)
        by_sum = [math.fsum(float(p) * float(f[m]) for f, p in zip(ens.points, ens.probs)) for m in range(15)]
        reduced = reduce_ensemble(ens)
        by_state = [expectation(TwoLevelObservable(np.eye(15)[m]), reduced) for m in range(15)]
        rho = qmatrix.density_from_bloch(reduced.rho)
        by_trace = [qmatrix.qm_expectation(qmatrix.L_BASIS[m], rho) for m in range(15)]
        np.testing.assert_allclose(by_sum, by_state, atol=1e-12)
        np.testing.assert_allclose(by_state, by_trace, atol=1e-12)


class TestMonteCarloOnEntangled:
    def test_reproduces_minus_cosine(self):
        rng = np.random.default_rng(8)
        bloch = entangled_bloch(-1)
        for _ in range(3):
            th, ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
            a, b = rotated_spin_observables(th, ph)
            est = simulate_sequences([a, b], bloch, 1_000_000, seed=int(rng.integers(1e6)))
            assert abs(est.value + math.cos(th - ph)) <= 5.0 * est.stderr

    def test_pure_point_mass_realises_entangled_state(self):
        # the entangled reduced state comes from a single classical micro-state
        ens = _point_mass_four(entangled_psi(-1))
        np.testing.assert_allclose(reduce_ensemble(ens).rho, entangled_bloch(-1).rho,
                                   atol=1e-14)

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleq import correlations, qmatrix
from ensembleq.correlations import (
    classical_correlation,
    conditional_correlation_2pt,
    conditional_correlation_3pt,
    conditional_product,
    measurement_chain,
    pointwise_correlation,
    simulate_sequences,
)
from ensembleq.fourstate import (entangled_bloch, quantum_pair_correlator, rotated_spin_correlation,
                                 rotated_spin_observables)
from ensembleq.manifolds import (
    BlochState,
    Ensemble,
    SubstateEnsemble,
    extend_to_substates,
    grid_ensemble,
)
from ensembleq.observables import (
    NoEigenstateError,
    ProductObservable,
    RANDOM,
    TwoLevelObservable,
    basis_spin,
    expectation,
    moment,
    operator_of,
    prob_plus,
    spin,
)
from ensembleq.validate import (INVARIANT_TOL, ZERO_TOL, ConstraintViolation, DimensionMismatch,
                                _outcome_probabilities)

SQ2 = 1.0 / math.sqrt(2.0)
A1, A2, A3 = basis_spin(1), basis_spin(2), basis_spin(3)
DIAG = spin(np.array([SQ2, SQ2, 0.0]))


def random_unit(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_bloch(rng):
    return random_unit(rng) * rng.uniform(0.0, 1.0)


def _mean_in_plus_eigenstate(a, b):
    """<A>_{+B}: the mean of A in the +1 eigenstate of B, whose Bloch vector is e_B."""
    return expectation(a, b.e)


def _signed_sum(wes) -> np.ndarray:
    """sum_i w_i (1, rho_i) over a measurement chain's (weight, Bloch vector) terms."""
    return sum(w * np.concatenate(([1.0], vec)) for w, vec in wes.terms)


def _lueders_components(chain, rho_vec) -> np.ndarray:
    """(tr X, tr(B_k X)) of the oracle's Lueders maps X <- {A, X}/2 applied to the
    density matrix, rightmost observable first."""
    x = qmatrix.density_from_bloch(rho_vec)
    for obs in reversed(chain):
        op = operator_of(obs)
        x = 0.5 * (op @ x + x @ op)
    basis = qmatrix.PAULI if len(x) == 2 else qmatrix.L_BASIS
    return np.concatenate(([np.trace(x).real], np.einsum("kij,ji->k", basis, x).real))


def _sequence_probabilities(a, b, rho_vec):
    """W_{s_A s_B} for measuring B first, then A, keyed by the A outcome first: the
    magnitudes of the chain's branch weights, which run (B+, A+), (B+, A-), (B-, A+), (B-, A-)."""
    terms = measurement_chain([a, b], rho_vec)[0].terms
    return {key: abs(w) for key, (w, _) in zip(("++", "-+", "+-", "--"), terms)}


class TestEigenstateExpectations:
    def test_same_observable(self):
        assert _mean_in_plus_eigenstate(A1, A1) == 1.0

    def test_orthogonal(self):
        assert _mean_in_plus_eigenstate(A1, A2) == 0.0

    def test_quarter_angle(self):
        assert abs(_mean_in_plus_eigenstate(A1, DIAG) - SQ2) < 1e-15

    def test_equals_half_trace_and_eigenstate_value(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = spin(random_unit(rng)), spin(random_unit(rng))
            val = _mean_in_plus_eigenstate(a, b)
            half_tr = 0.5 * np.trace(operator_of(a) @ operator_of(b)).real
            via_state = qmatrix.qm_expectation(
                operator_of(a), qmatrix.density_from_bloch(b.e)
            )
            assert abs(val - half_tr) < 1e-14
            assert abs(val - via_state) < 1e-14


@pytest.mark.parametrize("correlation", [
    lambda state: conditional_correlation_2pt(A1, A3, state),
    lambda state: conditional_correlation_3pt(A1, A2, A3, state),
    lambda state: measurement_chain([A1, A3], state)[1],
], ids=["2pt", "3pt", "chain"])
@pytest.mark.parametrize("state", [[0.0, 0.0, 5.0], [0.8, 0.0, 0.8]], ids=["far", "just-outside"])
def test_unphysical_state_rejected(correlation, state):
    with pytest.raises(ConstraintViolation):
        correlation(np.array(state))


# One factor rule: the leftmost factor (measured last) may be R, every other is a unit spin
_PRODUCTS = {
    "2pt": lambda obs, state: conditional_correlation_2pt(*obs, state),
    "3pt": lambda obs, state: conditional_correlation_3pt(*obs, state),
    "chain": lambda obs, state: measurement_chain(obs, state)[1],
    "monte-carlo": lambda obs, state: simulate_sequences(obs, state, 1000, seed=3).value,
}


@pytest.mark.parametrize("product", sorted(_PRODUCTS))
def test_random_observable_stands_only_leftmost(product):
    # R o X = R: R measured last gives 0 (the sampled +-1 average of 1000 draws, within
    # 5 standard errors of 0); R measured before another factor has no eigenstates
    rho_vec, run = np.array([0.3, -0.1, 0.5]), _PRODUCTS[product]
    factors = [A1, DIAG] if product == "2pt" else [A1, DIAG, A3]
    value = run([RANDOM, *factors[1:]], rho_vec)
    assert abs(value) < 5.0 / math.sqrt(1000) if product == "monte-carlo" else value == 0.0
    for i in range(1, len(factors)):
        with pytest.raises(NoEigenstateError):
            run(factors[:i] + [RANDOM] + factors[i + 1:], rho_vec)


def test_random_observable_with_four_state_factors_is_a_dimension_mismatch():
    a, b = rotated_spin_observables(0.3, 1.1)
    for name, product in _PRODUCTS.items():
        with pytest.raises(DimensionMismatch):
            product([RANDOM, a] if name == "2pt" else [RANDOM, a, b], entangled_bloch(-1))


def _random_state(rng, dim):
    """A physical Bloch vector: a random 3-vector in the ball, or the 15-vector of a
    random mixture of three pure four-state states."""
    if dim == 3:
        return random_bloch(rng)
    psis = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    w = rng.random(3)
    rho = np.einsum("n,ni,nj->ij", w / w.sum(), psis, psis.conj())
    return np.einsum("kij,ji->k", qmatrix.L_BASIS, rho).real


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 15]))
def test_every_state_form_gives_the_same_value(seed, dim):
    # a BlochState, a list and an array are the same numbers; a density matrix is read
    # back as tr(B_k rho), which may differ in the last bits
    rng = np.random.default_rng(seed)
    rho_vec = _random_state(rng, dim)
    if dim == 3:
        a, b, c = (spin(random_unit(rng)) for _ in range(3))
    else:
        (a, b), (c, _) = rotated_spin_observables(*rng.uniform(0.0, 6.3, 2)), rotated_spin_observables(1.0, 0.0)
    uses = [lambda s: conditional_correlation_2pt(a, b, s),
            lambda s: conditional_correlation_3pt(a, b, c, s),
            lambda s: expectation(a, s),
            lambda s: simulate_sequences([a, b, c], s, 500, seed=seed).value]
    forms = [BlochState(rho_vec), rho_vec.tolist(), rho_vec]
    for use in uses:
        values = [use(form) for form in forms]
        assert values[0] == values[1] == values[2]
        assert abs(use(qmatrix.density_from_bloch(rho_vec)) - values[0]) <= 1e-12


def test_a_four_state_bloch_state_is_not_checked_again():
    state = entangled_bloch(-1)
    a, b = rotated_spin_observables(0.4, 1.3)
    with mock.patch.object(qmatrix, "density_from_bloch", wraps=qmatrix.density_from_bloch) as spy:
        conditional_correlation_2pt(a, b, state)
        conditional_correlation_3pt(a, b, a, state)
        rotated_spin_correlation(0.4, 1.3, state)
    assert spy.call_count == 0


def test_the_pair_correlator_reads_its_state_once():
    vec = entangled_bloch(1).rho.copy()
    with mock.patch.object(qmatrix, "density_from_bloch", wraps=qmatrix.density_from_bloch) as spy:
        correlator = quantum_pair_correlator(vec)
        values = [correlator(theta) for theta in (0.0, 0.5, 2.0)]
    assert spy.call_count == 1
    assert values == [rotated_spin_correlation(theta, 0.0, vec) for theta in (0.0, 0.5, 2.0)]


class TestConditional2pt:
    def test_same_spin_any_state(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert conditional_correlation_2pt(A1, A1, random_bloch(rng)) == 1.0

    def test_orthogonal_spins(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert conditional_correlation_2pt(A1, A2, random_bloch(rng)) == 0.0

    def test_state_independent_quarter_angle(self):
        rng = np.random.default_rng(3)
        b = spin(np.array([SQ2, 0.0, SQ2]))
        for _ in range(20):
            val = conditional_correlation_2pt(A1, b, random_bloch(rng))
            assert abs(val - SQ2) < 1e-14

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_oracle_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a, b = spin(random_unit(rng)), spin(random_unit(rng))
        rho_vec = random_bloch(rng)
        val = conditional_correlation_2pt(a, b, rho_vec)
        rev = conditional_correlation_2pt(b, a, rho_vec)
        oracle = qmatrix.anticommutator_expectation(
            operator_of(a), operator_of(b), qmatrix.density_from_bloch(rho_vec)
        )
        assert abs(val - oracle) < 1e-12
        assert abs(val - rev) < 1e-12


class TestConditional3pt:
    def test_repeated_pair_reads_component(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho_vec = random_bloch(rng)
            # the expectation-expression path rounds at the last bit; the
            # product-algebra route gives the identity exactly
            assert abs(conditional_correlation_3pt(A1, A1, A3, rho_vec) - rho_vec[2]) < 1e-15
            via_product = expectation(
                conditional_product(conditional_product(A1, A1), A3), rho_vec
            )
            assert via_product == rho_vec[2]

    def test_orthogonal_pair_vanishes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert conditional_correlation_3pt(A1, A2, spin(random_unit(rng)),
                                               random_bloch(rng)) == 0.0

    def test_order_sensitivity(self):
        rho_vec = np.array([0.2, 0.1, 0.6])
        assert conditional_correlation_3pt(A1, A3, A1, rho_vec) == 0.0
        assert abs(conditional_correlation_3pt(A1, A1, A3, rho_vec) - rho_vec[2]) < 1e-15

    def test_swap_of_first_two_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b, c = (spin(random_unit(rng)) for _ in range(3))
            rho_vec = random_bloch(rng)
            assert abs(conditional_correlation_3pt(a, b, c, rho_vec)
                       - conditional_correlation_3pt(b, a, c, rho_vec)) < 1e-13

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (spin(random_unit(rng)) for _ in range(3))
        rho_vec = random_bloch(rng)
        val = conditional_correlation_3pt(a, b, c, rho_vec)
        oracle = qmatrix.nested_anticommutator_expectation(
            operator_of(a), operator_of(b), operator_of(c),
            qmatrix.density_from_bloch(rho_vec),
        )
        assert abs(val - oracle) < 1e-12

    def test_random_observable_slots(self):
        rho_vec = np.array([0.1, 0.0, 0.3])
        assert conditional_correlation_3pt(RANDOM, A1, A3, rho_vec) == 0.0
        with pytest.raises(NoEigenstateError):
            conditional_correlation_3pt(A1, RANDOM, A3, rho_vec)
        with pytest.raises(NoEigenstateError):
            conditional_correlation_3pt(A1, A3, RANDOM, rho_vec)


class TestConditionalProduct:
    def test_repeated_is_unit(self):
        out = conditional_product(A1, A1)
        assert isinstance(out, TwoLevelObservable)
        assert out.e0 == 1.0 and np.linalg.norm(out.e) == 0.0

    def test_orthogonal_is_random(self):
        assert conditional_product(A1, A2) is RANDOM

    def test_antipodal_is_minus_unit(self):
        out = conditional_product(A1, spin(np.array([-1.0, 0.0, 0.0])))
        assert out.e0 == -1.0 and np.linalg.norm(out.e) == 0.0

    def test_random_absorbs(self):
        assert conditional_product(RANDOM, A1) is RANDOM

    def test_product_with_random_undefined(self):
        with pytest.raises(NoEigenstateError):
            conditional_product(A1, RANDOM)

    def test_general_angle_constant_mean(self):
        out = conditional_product(A1, DIAG)
        assert isinstance(out, ProductObservable)
        assert abs(out.e0 - SQ2) < 1e-15
        rng = np.random.default_rng(7)
        for _ in range(10):
            assert abs(expectation(out, random_bloch(rng)) - SQ2) < 1e-15

    def test_left_association_identities(self):
        # (A o A) o C = C and (A o B) o C = R for orthogonal A, B
        out = conditional_product(conditional_product(A1, A1), A3)
        assert isinstance(out, TwoLevelObservable)
        np.testing.assert_array_equal(out.e, A3.e)
        assert conditional_product(conditional_product(A1, A2), A3) is RANDOM

    def test_left_association_general(self):
        # mean function of (A o B) o C is (e_A.e_B)(e_C.f)
        out = conditional_product(conditional_product(A1, DIAG), A3)
        assert isinstance(out, ProductObservable)
        np.testing.assert_allclose(out.e, SQ2 * A3.e, atol=1e-15)
        assert out.e0 == 0.0

    def test_right_association_undefined(self):
        inner = conditional_product(A2, A3)   # random observable
        with pytest.raises(NoEigenstateError):
            conditional_product(A1, inner)

    def test_product_expectation_is_one_for_every_state(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = spin(random_unit(rng))
            assert expectation(conditional_product(a, a), random_bloch(rng)) == 1.0


class TestSequenceProbabilities:
    def test_order_asymmetry_example(self):
        rho_vec = np.array([0.0, 0.0, 1.0])
        w_ab = _sequence_probabilities(A3, A1, rho_vec)   # first A1, then A3
        w_ba = _sequence_probabilities(A1, A3, rho_vec)   # first A3, then A1
        assert abs(w_ab["++"] - 0.25) < 1e-15
        assert abs(w_ba["++"] - 0.5) < 1e-15

    def test_repeated_measurement_in_eigenstate(self):
        w = _sequence_probabilities(A3, A3, np.array([0.0, 0.0, 1.0]))
        assert w["++"] == 1.0
        assert w["+-"] == w["-+"] == w["--"] == 0.0

    def test_orthogonal_at_center(self):
        w = _sequence_probabilities(A1, A2, np.zeros(3))
        for key in ("++", "+-", "-+", "--"):
            assert abs(w[key] - 0.25) < 1e-15

    def test_sum_and_order_symmetric_combination(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b = spin(random_unit(rng)), spin(random_unit(rng))
            rho_vec = random_bloch(rng)
            w_ab = _sequence_probabilities(a, b, rho_vec)
            w_ba = _sequence_probabilities(b, a, rho_vec)
            assert abs(sum(w_ab.values()) - 1.0) < 1e-14
            # the probability of product value +1 forgets the order
            assert abs((w_ab["++"] + w_ab["--"]) - (w_ba["++"] + w_ba["--"])) < 1e-13


class TestMeasurementChain:
    def test_sums_compare_and_hash_by_identity(self):
        rho_vec = np.array([0.1, 0.2, 0.3])
        first, _ = measurement_chain([A1, A3], rho_vec)
        second, _ = measurement_chain([A1, A3], rho_vec)
        assert first == first and first != second
        assert len({first, second, first}) == 2
        assert [w for w, _ in first.terms] == [w for w, _ in second.terms]

    def test_single_measurement(self):
        rho_vec = np.array([0.2, -0.3, 0.4])
        wes, value = measurement_chain([A3], rho_vec)
        assert abs(value - rho_vec[2]) < 1e-14
        assert len(wes.terms) == 2
        np.testing.assert_allclose(_signed_sum(wes), _lueders_components([A3], rho_vec), rtol=0, atol=1e-14)

    def test_two_chain_matches_2pt(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = spin(random_unit(rng)), spin(random_unit(rng))
            rho_vec = random_bloch(rng)
            _, value = measurement_chain([a, b], rho_vec)
            assert abs(value - conditional_correlation_2pt(a, b, rho_vec)) < 1e-12

    def test_three_chain_matches_3pt(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (spin(random_unit(rng)) for _ in range(3))
            rho_vec = random_bloch(rng)
            _, value = measurement_chain([a, b, c], rho_vec)
            assert abs(value - conditional_correlation_3pt(a, b, c, rho_vec)) < 1e-12

    def test_three_chain_example(self):
        rho_vec = np.array([0.1, 0.2, 0.5])
        _, value = measurement_chain([A1, A1, A3], rho_vec)
        assert abs(value - 0.5) < 1e-14

    def test_degenerate_first_measurement_keeps_zero_branch(self):
        wes, value = measurement_chain([A3], np.array([0.0, 0.0, 1.0]))
        weights = sorted(w for w, _ in wes.terms)
        assert weights == [0.0, 1.0]
        assert value == 1.0

    def test_random_leftmost_allowed(self):
        wes, value = measurement_chain([RANDOM, A1], np.array([0.3, 0.0, 0.2]))
        assert value == 0.0
        assert wes.terms == ()

    def test_random_inner_rejected(self):
        with pytest.raises(NoEigenstateError):
            measurement_chain([A1, RANDOM], np.array([0.3, 0.0, 0.2]))

    def test_luders_identity(self):
        # projective reduction reproduces the anticommutator: for spectrum
        # +-1, P+ rho P+ - P- rho P- = {A, rho}/2 in both dimensions
        rng = np.random.default_rng(12)
        for dim in (3, 15):
            if dim == 3:
                e = random_unit(rng)
                rho = qmatrix.density_from_bloch(random_bloch(rng))
            else:
                e = np.zeros(15)
                e[0], e[7] = math.cos(0.6), math.sin(0.6)
                psi = rng.normal(size=4) + 1j * rng.normal(size=4)
                psi /= np.linalg.norm(psi)
                rho = np.outer(psi, psi.conj())
            op = qmatrix.operator_from_direction(e)
            eye = np.eye(op.shape[0])
            p_plus, p_minus = 0.5 * (eye + op), 0.5 * (eye - op)
            lhs = p_plus @ rho @ p_plus - p_minus @ rho @ p_minus
            rhs = 0.5 * (op @ rho + rho @ op)
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestPointwise:
    def test_point_masses(self):
        north = Ensemble([[0.0, 0.0, 1.0]], [1.0])
        east = Ensemble([[1.0, 0.0, 0.0]], [1.0])
        assert pointwise_correlation(A3, A3, north) == 1.0
        assert pointwise_correlation(A3, A3, east) == 0.0

    def test_uniform_grid_third(self):
        ens = grid_ensemble(128, lambda pts: np.ones(len(pts)))
        assert abs(pointwise_correlation(A3, A3, ens) - 1.0 / 3.0) < 1e-4

    def test_bounded_by_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pts = rng.normal(size=(6, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            p = rng.random(6)
            p /= p.sum()
            ens = Ensemble(pts, p)
            a = spin(random_unit(rng))
            assert pointwise_correlation(a, a, ens) <= 1.0 + 1e-12

    def test_saturation_needs_support_on_axis(self):
        e = np.array([0.0, 0.0, 1.0])
        both_poles = Ensemble([e, -e], [0.3, 0.7])
        assert pointwise_correlation(A3, A3, both_poles) == 1.0
        tilted = Ensemble([e, [1.0, 0.0, 0.0]], [0.9, 0.1])
        assert pointwise_correlation(A3, A3, tilted) < 1.0


class TestClassicalCorrelation:
    def test_same_direction_is_one(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(4, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(4)
        p /= p.sum()
        sub = extend_to_substates(Ensemble(pts, p), [[0.0, 0.0, 1.0]])
        assert abs(classical_correlation([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], sub) - 1.0) < 1e-14

    def test_product_form_factorizes(self):
        # orthogonal directions, both orthogonal to the supported point
        sub = extend_to_substates(
            Ensemble([[0.0, 0.0, 1.0]], [1.0]),
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        )
        assert classical_correlation([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], sub) == 0.0

    def test_product_form_matches_pointwise(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(5, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(5)
        p /= p.sum()
        ens = Ensemble(pts, p)
        ga, gb = random_unit(rng), random_unit(rng)
        sub = extend_to_substates(ens, [ga, gb])
        got = classical_correlation(ga, gb, sub)
        want = pointwise_correlation(spin(ga), spin(gb), ens)
        assert abs(got - want) < 1e-12

    def test_pointwise_dimension_mismatch(self):
        ens = Ensemble([[0.0, 0.0, 1.0]], [1.0])
        four = TwoLevelObservable(np.eye(15)[0])
        for a, b in ((four, spin([0.0, 0.0, 1.0])), (spin([0.0, 0.0, 1.0]), four), (four, four)):
            with pytest.raises(DimensionMismatch):
                pointwise_correlation(a, b, ens)

    def test_unknown_direction(self):
        sub = extend_to_substates(
            Ensemble([[0.0, 0.0, 1.0]], [1.0]), [[1.0, 0.0, 0.0]]
        )
        with pytest.raises(ValueError):
            classical_correlation([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], sub)

    def test_witness_same_probabilistic_observable_different_correlations(self):
        # two sharp-valued assignments with identical per-state means (both
        # mean zero on the single occupied micro-state) correlate differently
        # with a third observable: the classical product is not a function of
        # the probabilistic observables alone
        g1 = np.array([1.0, 0.0, 0.0])
        g2 = np.array([0.0, 1.0, 0.0])
        g3 = np.array([SQ2, SQ2, 0.0])
        # weight 1/4 on the sign patterns (+,+,+), (+,-,+), (-,+,-) and (-,-,-), columns
        # 0, 2, 5 and 7 of the itertools.product((1, -1), repeat=3) order
        sub = SubstateEnsemble([g1, g2, g3], [[0.25, 0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.25]])
        # both g1 and g2 realise the mean-zero observable on this support
        assert float(sub.mean_sign(g1)[0]) == 0.0
        assert float(sub.mean_sign(g2)[0]) == 0.0
        c1 = classical_correlation(g1, g3, sub)
        c2 = classical_correlation(g2, g3, sub)
        assert c1 == 1.0
        assert c2 == 0.0


class TestSimulation:
    def test_repeated_chain_exact(self):
        est = simulate_sequences([A1, A1], np.array([0.3, 0.0, 0.1]), 100000, seed=0)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_orthogonal_within_five_se(self):
        est = simulate_sequences([A1, A2], np.array([0.3, 0.0, 0.1]), 1_000_000, seed=1)
        assert abs(est.value - 0.0) <= 5.0 * est.stderr

    def test_quarter_angle_within_five_se(self):
        b = spin(np.array([SQ2, 0.0, SQ2]))
        est = simulate_sequences([A1, b], np.array([0.1, 0.2, 0.3]), 1_000_000, seed=2)
        assert abs(est.value - SQ2) <= 5.0 * est.stderr

    def test_three_chain_within_five_se(self):
        rng = np.random.default_rng(16)
        a, b, c = (spin(random_unit(rng)) for _ in range(3))
        rho_vec = random_bloch(rng)
        closed = conditional_correlation_3pt(a, b, c, rho_vec)
        est = simulate_sequences([a, b, c], rho_vec, 500_000, seed=3)
        assert abs(est.value - closed) <= 5.0 * est.stderr

    def test_deterministic_and_jobs_independent(self):
        args = ([A1, DIAG], np.array([0.0, 0.1, 0.4]), 200_000)
        first = simulate_sequences(*args, seed=4)
        again = simulate_sequences(*args, seed=4)
        sharded = simulate_sequences(*args, seed=4, n_jobs=4)
        assert first.value == again.value == sharded.value

    def test_unbiased_over_seeds(self):
        b = spin(np.array([SQ2, 0.0, SQ2]))
        rho_vec = np.array([0.0, 0.0, 0.5])
        closed = conditional_correlation_2pt(A1, b, rho_vec)
        n, seeds = 20_000, 50
        estimates = [simulate_sequences([A1, b], rho_vec, n, seed=s) for s in range(seeds)]
        pooled_dev = sum(e.value for e in estimates) / seeds - closed
        pooled_se = math.sqrt(sum(e.stderr ** 2 for e in estimates)) / seeds
        assert abs(pooled_dev) <= 5.0 * pooled_se

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_sequences([A1, A2], np.zeros(3), 0, seed=1)
        with pytest.raises(ValueError):
            simulate_sequences([A1, A2], np.zeros(3), 10, seed=-1)

    @pytest.mark.parametrize("n_jobs", [0, -1, correlations.MAX_JOBS + 1])
    def test_bad_n_jobs_rejected_before_drawing(self, n_jobs, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match="n_jobs"):
            simulate_sequences([A1, A2], np.zeros(3), 1000, seed=1, n_jobs=n_jobs)

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    @pytest.mark.parametrize("n_blocks", [1, 2, 5])
    def test_one_share_per_job_and_block_the_caller_runs_the_first(self, n_blocks, n_jobs, monkeypatch):
        monkeypatch.setattr(correlations, "_BLOCK_SIZE", 1000)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        simulate_sequences([A1, A2], np.array([0.3, 0.0, 0.1]), 1000 * n_blocks, seed=5, n_jobs=n_jobs)
        assert len(started) == min(n_jobs, n_blocks) - 1

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_error_in_a_block_reaches_the_caller_after_every_thread_ends(self, n_jobs, monkeypatch):
        error = RuntimeError("block 1 failed")
        default_rng = np.random.default_rng

        def failing_rng(key):
            if list(key) == [5, 1]:
                raise error
            return default_rng(key)

        monkeypatch.setattr(np.random, "default_rng", failing_rng)
        monkeypatch.setattr(correlations, "_BLOCK_SIZE", 1000)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            simulate_sequences([A1, A2], np.array([0.3, 0.0, 0.1]), 5000, seed=5, n_jobs=n_jobs)
        assert info.value is error
        assert threading.active_count() == before

    def test_more_shares_than_cores_under_fast_switching(self, monkeypatch):
        # every share writes only its own slot: a lost or doubled block sum would move the estimate
        monkeypatch.setattr(correlations, "_BLOCK_SIZE", 200)
        args = ([A1, DIAG, A3], np.array([0.2, -0.1, 0.3]), 40_000)
        one = simulate_sequences(*args, seed=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = simulate_sequences(*args, seed=6, n_jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert (one.value, one.stderr) == (many.value, many.stderr)

    def test_package_import_leaves_the_thread_pool_unloaded(self):
        # the shares run on plain threads: neither importing the package nor a
        # two-job run loads concurrent.futures, or the logging it imports
        src = str(Path(correlations.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, ensembleq\n"
                "loaded = lambda: sorted({'concurrent.futures', 'logging'} & set(sys.modules))\n"
                "print(loaded())\n"
                "a = ensembleq.basis_spin(1)\n"
                "ensembleq.correlations._BLOCK_SIZE = 1000\n"
                "ensembleq.simulate_sequences([a, a], [0.0, 0.0, 0.5], 2000, 1, n_jobs=2)\n"
                "print(loaded())\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
        assert done.stdout.splitlines() == ["[]", "[]"]


def _reference_estimate(chain, state, n, seed, block_size):
    """Untiled reference Monte Carlo: one (count, m) draw per block, 2^i-entry tables.

    Level i of the table holds the +1 probability after every history of earlier
    outcomes, reduced branch by branch with the projectors; each sample walks
    its prefix index through the tables.
    """
    seq = list(reversed(chain))
    rho = getattr(state, "rho", state)
    states = [qmatrix.density_from_bloch(rho)]
    tables = []
    for obs in seq:
        op = operator_of(obs)
        eye = np.eye(op.shape[0])
        projs = (0.5 * (eye + op), 0.5 * (eye - op))
        tables.append(np.array([min(1.0, max(0.0, np.trace(projs[0] @ s).real))
                                for s in states]))
        new = []
        for s in states:
            for proj in projs:
                prob = np.trace(proj @ s).real
                new.append(proj @ s @ proj / prob if prob > 1e-15
                           else proj / np.trace(proj).real)
        states = new
    total = 0
    for j in range(-(-n // block_size)):
        count = min(block_size, n - j * block_size)
        u = np.random.default_rng([seed, j]).random((count, len(seq)))
        prefix = np.zeros(count, dtype=np.int64)
        sign = np.ones(count, dtype=np.int64)
        for i in range(len(seq)):
            plus = u[:, i] < tables[i][prefix]
            sign *= np.where(plus, 1, -1)
            prefix = 2 * prefix + np.where(plus, 0, 1)
        total += int(sign.sum())
    mean = total / n
    var = max(0.0, 1.0 - mean * mean) * n / (n - 1)
    return mean, math.sqrt(var / n)


def _four_state_chain():
    a, b = rotated_spin_observables(0.4, 1.3)
    c, d = rotated_spin_observables(2.1, 0.7)
    return [a, b, c, d], entangled_bloch(-1)


def _two_state_chain(m):
    rng = np.random.default_rng(100 + m)
    return [spin(random_unit(rng)) for _ in range(m)], random_bloch(rng)


class TestSamplingStream:
    """simulate_sequences reproduces the untiled, prefix-table Monte Carlo bit for bit."""

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    @pytest.mark.parametrize("case", ["m2", "m6", "m10", "four-state"])
    def test_matches_reference_stream(self, case, n_jobs, monkeypatch):
        chain, state = _four_state_chain() if case == "four-state" else _two_state_chain(int(case[1:]))
        # 4 full blocks of 10000 rows (two whole tiles and a partial one each) and a 5000-row rest
        n, block_size = 45_000, 10_000
        monkeypatch.setattr(correlations, "_BLOCK_SIZE", block_size)
        est = simulate_sequences(chain, state, n, seed=21, n_jobs=n_jobs)
        assert (est.value, est.stderr) == _reference_estimate(chain, state, n, 21, block_size)

    def test_working_set_bounded(self):
        chain, rho_vec = _two_state_chain(10)
        tracemalloc.start()
        try:
            simulate_sequences(chain, rho_vec, 1_000_000, seed=22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(2, 5000),
        st.integers(16, 2048),
        st.integers(2, 4),
        st.integers(1, 600),
    )
    def test_estimate_independent_of_jobs_and_tile(self, seed, m, n, block_size, n_jobs, tile):
        rng = np.random.default_rng(seed)
        chain = [spin(random_unit(rng)) for _ in range(m)]
        rho_vec = random_bloch(rng)
        with mock.patch.object(correlations, "_BLOCK_SIZE", block_size):
            one = simulate_sequences(chain, rho_vec, n, seed)
            with mock.patch.object(correlations, "_TILE_ROWS", tile):
                many = simulate_sequences(chain, rho_vec, n, seed, n_jobs=n_jobs)
        assert (one.value, one.stderr) == (many.value, many.stderr)


class TestChainCore:
    def test_two_state_terms_share_level_states(self):
        chain, rho_vec = _two_state_chain(6)
        wes, value = measurement_chain(chain, rho_vec)
        assert len(wes.terms) == 2**6
        assert len({id(vec) for _, vec in wes.terms}) == 2
        oracle = _lueders_components(chain, rho_vec)
        assert abs(value - oracle[0]) < 1e-13
        np.testing.assert_allclose(_signed_sum(wes), oracle, rtol=0, atol=1e-13)

    def test_long_two_state_chain_samples(self):
        chain, rho_vec = _two_state_chain(40)
        est = simulate_sequences(chain, rho_vec, 20_000, seed=23)
        assert abs(est.value) <= 1.0
        repeated = simulate_sequences([A1] * 40, rho_vec, 20_000, seed=23)
        assert repeated.value == 1.0 and repeated.stderr == 0.0

    def test_oversized_chain_rejected_before_allocating(self):
        chain, rho_vec = _two_state_chain(21)
        four, bell = _four_state_chain()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2097152 branches"):
                measurement_chain(chain, rho_vec)
            with pytest.raises(ValueError, match="2097152 reduced states"):
                simulate_sequences(four * 5 + four[:2], bell, 100, seed=1)   # m = 22
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_size_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(correlations, "MAX_CHAIN_SIZE", 16)
        chain, rho_vec = _two_state_chain(5)
        assert len(measurement_chain(chain[:4], rho_vec)[0].terms) == 16   # at the limit
        with pytest.raises(ValueError, match="32 branches"):
            measurement_chain(chain, rho_vec)
        simulate_sequences(chain * 8, rho_vec, 100, seed=1)   # two-state tables are exempt
        four, bell = _four_state_chain()
        simulate_sequences(four + four[:1], bell, 100, seed=1)   # 16 states at level 4
        with pytest.raises(ValueError, match="32 reduced states"):
            simulate_sequences(four + four[:2], bell, 100, seed=1)

    def test_rounding_inside_band_snapped(self):
        # |rho|^2 = 1 + 8e-13 passes the purity check; p(+1) = 1 + 2e-13 snaps to 1
        rho_vec = np.array([0.0, 0.0, 1.0 + 4e-13])
        assert measurement_chain([A3], rho_vec)[1] == 1.0
        assert _sequence_probabilities(A3, A3, rho_vec)["++"] == 1.0

    def test_probability_outside_band_raises(self, monkeypatch):
        # a state past the purity check's band: p(+1) = 1 + 5e-10
        monkeypatch.setattr(correlations, "bloch_vector", np.asarray)
        bad = np.array([0.0, 0.0, 1.0 + 1e-9])
        with pytest.raises(ConstraintViolation, match="outcome probability outside"):
            measurement_chain([A3], bad)
        with pytest.raises(ConstraintViolation, match="outcome probability outside"):
            simulate_sequences([A3], bad, 10, seed=1)

    @pytest.mark.parametrize("consumer", [
        lambda a, state: measurement_chain([a], state),
        lambda a, state: conditional_correlation_2pt(a, rotated_spin_observables(0.3, 0.0)[1], state),
        lambda a, state: conditional_correlation_3pt(*rotated_spin_observables(0.3, 0.0), a, state),
        lambda a, state: simulate_sequences([a], state, 10, seed=1),
        lambda a, state: spin(a.e),
        lambda a, state: prob_plus(a, state.rho),
        lambda a, state: moment(a, Ensemble([state.rho], [1.0]), 1),
        lambda a, state: moment(a, Ensemble([state.rho], [1.0]), 2),
    ], ids=["chain", "2pt", "3pt", "monte-carlo", "spin", "prob_plus", "moment-1", "moment-2"])
    def test_unit_direction_without_pm1_spectrum_rejected(self, consumer):
        # (L1 + L2)/sqrt(2) is unit, but squares to 1 + L3: every consumer of a spin rejects it
        a = TwoLevelObservable(np.eye(15)[0] * SQ2 + np.eye(15)[1] * SQ2)
        with pytest.raises(ValueError, match="spectrum is not \\+-1"):
            consumer(a, entangled_bloch(-1))


def _rule_draw(seed: int, dim: int, kind: str):
    """(spin, micro-state) for the outcome-probability property. Three components: a unit e and f
    random, +-e, +-e with e.e rounding past 1 ("past"), or e tilted by 1e-8 ("near": a mean within
    ZERO_TOL of 1). Fifteen: a rotated spin and the point of a random psi, of the spin's +-1
    eigenvector, or of that eigenvector perturbed by 1e-9 ("near")."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([1.0, -1.0])
    if dim == 3:
        e = random_unit(rng)
        while kind == "past" and e @ e <= 1.0:
            e = random_unit(rng)
        f = {"random": random_unit(rng), "plus": e, "minus": -e, "past": sign * e,
             "near": random_unit(rng) * 1e-8 + sign * e}[kind]
        return spin(e), f / np.linalg.norm(f) if kind in ("random", "near") else f
    a = rotated_spin_observables(*rng.uniform(0.0, 6.3, 2))[rng.integers(2)]
    _, vecs = np.linalg.eigh(operator_of(a))
    psi = {"random": rng.normal(size=4) + 1j * rng.normal(size=4), "plus": vecs[:, -1], "minus": vecs[:, 0],
           "near": vecs[:, -1 if sign > 0 else 0] + 1e-9 * rng.normal(size=4)}[kind]
    psi = psi / np.linalg.norm(psi)
    return a, np.einsum("i,kij,j->k", psi.conj(), qmatrix.L_BASIS, psi).real


class TestOutcomeProbabilityRule:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.one_of(st.tuples(st.just(3), st.sampled_from(["random", "plus", "minus", "past", "near"])),
                     st.tuples(st.just(15), st.sampled_from(["random", "plus", "minus", "near"]))))
    def test_prob_plus_the_chain_and_the_substate_row_agree(self, seed, case):
        # one rule, three readers: (P(+1), P(-1)) by prob_plus of A and -A, the magnitudes of the
        # chain's two branch weights, and the two-state substate row of f among other points,
        # over its weight. Each reads e.f by validate._dot, so they agree bit for bit, and at an
        # eigenstate the rule sets the other probability to 0.0
        dim, kind = case
        a, f = _rule_draw(seed, dim, kind)
        pair = [prob_plus(a, f), prob_plus(TwoLevelObservable(-a.e), f)]
        chain = [abs(w) for w, _ in measurement_chain([a], f)[0].terms]
        assert all(0.0 <= p <= 1.0 for p in pair + chain)
        assert chain == pair
        if dim == 3:
            rng = np.random.default_rng(seed)
            pts = [random_unit(rng), f, random_unit(rng), random_unit(rng)]
            sub = extend_to_substates(Ensemble(pts, [0.25] * 4), [a.e])
            row = sub.table[1].tolist()
            assert (row if sub.column(a.e)[1] == 1 else row[::-1]) == [0.25 * p for p in pair]
        elif kind != "random":
            assert min(chain) == min(pair) == 0.0

    def test_a_dot_product_past_one_leaves_no_negative_cell(self):
        f = np.array([0.36486176735685877, 0.9240647543268905, -0.11393077078653184])
        assert f @ f == 1.0000000000000002
        sub = extend_to_substates(Ensemble([f, -f], [0.5, 0.5]), [f])
        assert sub.table.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_prob_plus_snaps_to_zero_where_the_chain_does(self):
        f = [0.0, 0.0, -1.0 + 3e-16]
        assert prob_plus(A3, f) == 0.0
        assert measurement_chain([A3], f)[0].terms[0][0] == 0.0

    @pytest.mark.parametrize("pattern", ["outcome probability outside", r"outside \[0, 1\]"])
    @pytest.mark.parametrize("form", [float, np.array], ids=["float", "array"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rule_rejects_just_outside_its_window(self, pattern, form, sign):
        # mean 1 + 3 INVARIANT_TOL puts one probability 1.5 INVARIANT_TOL past the interval;
        # mean 1 + INVARIANT_TOL stays inside, and both probabilities are rounded onto it
        with pytest.raises(ConstraintViolation, match=pattern):
            _outcome_probabilities(form(sign * (1.0 + 3 * INVARIANT_TOL)))
        inside = np.ravel(_outcome_probabilities(form(sign * (1.0 + INVARIANT_TOL)))).tolist()
        assert inside == ([1.0, 0.0] if sign > 0 else [0.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(-1.0 - 2 * INVARIANT_TOL, 1.0 + 2 * INVARIANT_TOL),
                     st.sampled_from([1.0 - 2 * ZERO_TOL, -1.0 + 2 * ZERO_TOL, 1.0 - 3 * ZERO_TOL, 2.0**-60])))
    def test_float_and_array_forms_give_the_same_pair(self, mean):
        assert list(_outcome_probabilities(mean)) == _outcome_probabilities(np.array([mean]))[0].tolist()


def _anticommuting_words(order) -> list[int]:
    """The L_k, taken in ``order``, that anticommute with every one taken before, by the oracle's matrices."""
    words, basis = [], qmatrix.L_BASIS
    for k in order:
        if all(not np.any(basis[k] @ basis[l] + basis[l] @ basis[k]) for l in words):
            words.append(k)
    return words


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_spin_rule_agrees_with_the_operator_square(seed, anticommuting):
    # a unit combination of mutually anticommuting words squares to 1; a random unit direction does not
    rng = np.random.default_rng(seed)
    e = np.zeros(15)
    if anticommuting:
        words = _anticommuting_words(rng.permutation(15))[:int(rng.integers(1, 6))]
        e[words] = rng.normal(size=len(words))
    else:
        e = rng.normal(size=15)
    e /= np.linalg.norm(e)
    op = operator_of(TwoLevelObservable(e))
    squares_to_one = np.abs(op @ op - np.eye(4)).max() <= INVARIANT_TOL
    try:
        spin(e)
        accepted = True
    except ValueError as exc:
        assert "spectrum is not +-1" in str(exc)
        accepted = False
    assert accepted == squares_to_one == anticommuting

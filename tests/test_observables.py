import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleq.correlations import conditional_product, pointwise_correlation
from ensembleq.manifolds import Ensemble, reduce_ensemble
from ensembleq.observables import (
    RANDOM,
    ProductObservable,
    TwoLevelObservable,
    basis_spin,
    combine,
    expectation,
    mean_in_state,
    moment,
    prob_plus,
    spin,
)
from ensembleq.validate import INVARIANT_TOL, ConstraintViolation, DimensionMismatch

SQ2 = 1.0 / math.sqrt(2.0)


def random_unit(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


finite = st.floats(allow_nan=False, allow_infinity=False)
directions = st.sampled_from([3, 15]).flatmap(lambda n: st.lists(finite, min_size=n, max_size=n))


class TestConstruction:
    @settings(max_examples=100, deadline=None)
    @given(directions, st.data())
    def test_non_finite_entry_rejected(self, e, data):
        i = data.draw(st.integers(0, len(e) - 1))
        e[i] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(ValueError, match="non-finite"):
            TwoLevelObservable(np.array(e))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 20).filter(lambda n: n not in (3, 15)))
    def test_wrong_length_rejected(self, n):
        with pytest.raises(ValueError, match="3 or 15"):
            TwoLevelObservable(np.ones(n))

    @settings(max_examples=100, deadline=None)
    @given(directions)
    def test_caller_array_copied_and_stored_read_only(self, e):
        arr = np.array(e)
        obs = TwoLevelObservable(arr)
        assert obs.e is not arr and obs.e.base is None
        arr[...] = 7.0
        np.testing.assert_array_equal(obs.e, e)
        assert not obs.e.flags.writeable
        with pytest.raises(ValueError):
            obs.e[0] = 0.0

    @settings(max_examples=50, deadline=None)
    @given(directions)
    def test_frozen_array_shared_not_copied(self, e):
        obs = TwoLevelObservable(np.array(e))
        assert TwoLevelObservable(obs.e, 0.5).e is obs.e


    @pytest.mark.parametrize("e", [np.zeros(5), np.zeros((3, 3)), np.zeros(0)], ids=["5-vector", "3x3", "empty"])
    def test_product_observable_needs_3_or_15_components(self, e):
        with pytest.raises(ValueError, match="3 or 15"):
            ProductObservable(e)

    @pytest.mark.parametrize("cls", [TwoLevelObservable, ProductObservable])
    @pytest.mark.parametrize("e0", [math.nan, math.inf, -math.inf, "0.5", True, [0.5]],
                             ids=["nan", "inf", "-inf", "string", "bool", "list"])
    def test_offset_must_be_a_finite_real_number(self, cls, e0):
        # a bare float(e0) built ProductObservable([0.5, 0, 0], nan) and read "0.5" and True as numbers
        with pytest.raises(ValueError, match="^e0 "):
            cls([0.5, 0.0, 0.0], e0)


class TestMeanInState:
    def test_aligned(self):
        assert mean_in_state(basis_spin(1), [1.0, 0.0, 0.0]) == 1.0

    def test_diagonal_state(self):
        # the pi/4 circle state against the first axis spin
        f = np.array([math.cos(math.pi / 4.0), math.sin(math.pi / 4.0), 0.0])
        assert abs(mean_in_state(basis_spin(1), f) - SQ2) < 1e-15

    def test_orthogonal(self):
        assert mean_in_state(basis_spin(2), [1.0, 0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mean_in_state(TwoLevelObservable(np.eye(15)[0]), [1.0, 0.0, 0.0])


class TestOutcomeProbabilities:
    def test_parallel_and_antiparallel(self):
        e = np.array([0.0, 0.0, 1.0])
        assert prob_plus(spin(e), e) == 1.0
        assert prob_plus(spin(e), -e) == 0.0

    def test_right_angle(self):
        assert prob_plus(basis_spin(1), [0.0, 1.0, 0.0]) == 0.5

    def test_scaled_rejected(self):
        with pytest.raises(ValueError):
            prob_plus(TwoLevelObservable(2.0 * basis_spin(1).e), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            prob_plus(TwoLevelObservable(basis_spin(1).e, 0.5), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", [2.0, -3.0, 1.0 + 4 * INVARIANT_TOL])
    def test_probability_outside_the_unit_interval_raises(self, scale):
        e = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ConstraintViolation, match=r"outside \[0, 1\]"):
            prob_plus(spin(e), scale * e)

    def test_roundoff_inside_the_window_is_rounded_onto_the_interval(self):
        e = np.array([0.0, 0.0, 1.0])
        assert prob_plus(spin(e), (1.0 + INVARIANT_TOL) * e) == 1.0
        assert prob_plus(spin(e), -(1.0 + INVARIANT_TOL) * e) == 0.0


class TestMoments:
    def test_even_moment_is_one(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(5)
        p /= p.sum()
        ens = Ensemble("s2", pts, p)
        assert moment(spin(random_unit(rng)), ens, 2) == 1.0
        assert moment(spin(random_unit(rng)), ens, 4) == 1.0

    def test_first_moment_is_component(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(6)
        p /= p.sum()
        ens = Ensemble("s2", pts, p)
        rho = reduce_ensemble(ens).rho
        assert abs(moment(basis_spin(3), ens, 1) - rho[2]) < 1e-15

    def test_odd_moment_point_mass(self):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        assert moment(basis_spin(3), ens, 3) == 1.0

    def test_bad_q(self):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        with pytest.raises(ValueError):
            moment(basis_spin(3), ens, 0)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("obs", [TwoLevelObservable(np.array([0.5, 0.0, 0.0])),
                                     TwoLevelObservable(np.array([1.0, 0.0, 0.0]), 0.3)],
                             ids=["short", "offset"])
    def test_non_spin_rejected_at_every_q(self, obs, q):
        # the even-q shortcut returned 1.0 for these
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="unit-direction observable with zero offset"):
            moment(obs, ens, q)

    @pytest.mark.parametrize("q", [1, 2])
    def test_dimension_mismatch(self, q):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        with pytest.raises(DimensionMismatch):
            moment(TwoLevelObservable(np.eye(15)[0]), ens, q)


class TestExpectation:
    def test_components(self):
        rho = np.array([0.3, -0.2, 0.1])
        assert expectation(basis_spin(1), rho) == rho[0]

    def test_rotated(self):
        rho = np.array([0.3, -0.2, 0.0])
        diag = combine(SQ2, basis_spin(1), SQ2, basis_spin(2))
        assert abs(expectation(diag, rho) - (rho[0] + rho[1]) * SQ2) < 1e-15

    @pytest.mark.parametrize("state", [[5.0, 0.0, 0.0], [0.8, 0.0, 0.8]], ids=["far", "just-outside"])
    def test_unphysical_state_rejected(self, state):
        with pytest.raises(ConstraintViolation):
            expectation(basis_spin(1), np.array(state))

    def test_pure_offset(self):
        unit_half = TwoLevelObservable(np.zeros(3), 0.5)
        assert expectation(unit_half, np.array([0.9, 0.0, 0.0])) == 0.5

    def test_agreement_with_micro_average(self):
        # ensemble average of per-state means equals the reduced-state value
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(8, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(8)
        p /= p.sum()
        ens = Ensemble("s2", pts, p)
        obs = spin(random_unit(rng))
        micro = float(ens.probs @ (ens.points @ obs.e))
        assert abs(micro - expectation(obs, reduce_ensemble(ens))) < 1e-12


class TestAlgebra:
    def test_combine_diagonal(self):
        diag = combine(SQ2, basis_spin(1), SQ2, basis_spin(2))
        np.testing.assert_allclose(diag.e, [SQ2, SQ2, 0.0], atol=1e-16)
        assert abs(np.linalg.norm(diag.e) - 1.0) < 1e-15
        assert diag.e0 == 0.0

    def test_scale_flips_direction(self):
        flipped = combine(-1.0, basis_spin(1), 0.0, basis_spin(2))
        np.testing.assert_array_equal(flipped.e, [-1.0, 0.0, 0.0])

    def test_complex_scaling_rejected(self):
        with pytest.raises(ValueError):
            combine(1.0j, basis_spin(1), 0.0, basis_spin(2))

    def test_spectrum_matches_operator_eigenvalues(self):
        from ensembleq.observables import operator_of

        obs = TwoLevelObservable(-1.5 * basis_spin(2).e, 0.25)
        eigenvalues = sorted(np.linalg.eigvalsh(operator_of(obs)), reverse=True)
        norm = np.linalg.norm(obs.e)
        np.testing.assert_allclose(eigenvalues, (obs.e0 + norm, obs.e0 - norm), atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_combine_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = spin(random_unit(rng)), spin(random_unit(rng))
        l1, l2 = rng.normal(size=2)
        rho = random_unit(rng) * rng.uniform(0.0, 1.0)
        lhs = expectation(combine(l1, a, l2, b), rho)
        rhs = l1 * expectation(a, rho) + l2 * expectation(b, rho)
        assert abs(lhs - rhs) < 1e-14


class TestRandomObservable:
    def test_mean_and_square(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = random_unit(rng)
            assert mean_in_state(RANDOM, f) == 0.0
            assert prob_plus(RANDOM, f) == 0.5
        pts = rng.normal(size=(4, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(4)
        p /= p.sum()
        ens = Ensemble("s2", pts, p)
        assert moment(RANDOM, ens, 1) == 0.0
        assert moment(RANDOM, ens, 2) == 1.0


class TestMeanFunction:
    """Every reading of an observable goes through its one mean function e0 + e . f."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16),
           st.sampled_from(["spin", "product", "nested", "random"]))
    def test_readings_agree(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(n) + 0.01
        ens = Ensemble("s2", pts, p / p.sum())
        a, b, c = (spin(random_unit(rng)) for _ in range(3))
        obs = {"spin": a, "product": conditional_product(a, b),
               "nested": conditional_product(conditional_product(a, b), c), "random": RANDOM}[kind]
        assert isinstance(obs, ProductObservable) == (kind != "spin")
        means = np.array([mean_in_state(obs, f) for f in ens.points])
        first = moment(obs, ens, 1)
        assert abs(first - math.fsum(ens.probs * means)) <= 1e-12
        assert abs(pointwise_correlation(obs, obs, ens) - math.fsum(ens.probs * means**2)) <= 1e-12
        assert abs(expectation(obs, reduce_ensemble(ens)) - first) <= 1e-12
        for f, mean in zip(ens.points, means):
            assert abs(prob_plus(obs, f) - 0.5 * (1.0 + mean)) <= 1e-12


class TestBasicStateProbability:
    # a beam polarised along f with degree sqrt(p) has the state vector sqrt(p) f, and the
    # analyser along e passes it with probability (1 + sqrt(p) e.f)/2
    def test_pure_aligned(self):
        e = np.array([0.0, 0.0, 1.0])
        assert prob_plus(spin(e), e) == 1.0

    def test_zero_purity(self):
        rng = np.random.default_rng(5)
        assert prob_plus(spin(random_unit(rng)), 0.0 * random_unit(rng)) == 0.5
        assert 1.0 - prob_plus(spin(random_unit(rng)), 0.0 * random_unit(rng)) == 0.5

    def test_quarter_turn(self):
        f = np.array([1.0, 0.0, 0.0])
        e = np.array([SQ2, SQ2, 0.0])
        want = 0.5 * (1.0 + math.cos(math.pi / 4.0))
        assert abs(prob_plus(spin(e), f) - want) < 1e-15

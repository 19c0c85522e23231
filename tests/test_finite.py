import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleq.finite import (
    HALF_SQRT2,
    Q2,
    FiniteSpinSystem,
    SPIN_VALUES,
    _cos_index,
    _is_exact_seq,
    cartesian_measure_sz,
    cartesian_purity,
    integrate_out,
    pure_system,
    realizable_region_check,
    zn_step_evolution,
    zn_system,
)
from ensembleq.manifolds import weighted_sum

SQ2 = 1.0 / math.sqrt(2.0)
THIRD = Fraction(1, 3)


def _rho_components(system):
    """(rho_1, rho_2) = sum_s p_s (cos, sin)(2 pi s / N), in the system's arithmetic."""
    n = system.n_positions
    if system.exact:
        return tuple(sum(_cos_index(shift - s, n, True) * p for s, p in zip(system.state_angles, system.probs))
                     for shift in (0, n // 4))
    angles = np.array([2.0 * math.pi * s / n for s in system.state_angles])
    probs = np.array([float(p) for p in system.probs])
    return weighted_sum(probs, np.cos(angles)), weighted_sum(probs, np.sin(angles))


def _rho(system) -> np.ndarray:
    """The reduced state (rho_1, rho_2) of a circle system, as floats."""
    return np.array([float(r) for r in _rho_components(system)])


def _spin_expectations(probs) -> list:
    """<S_x>, <S_y>, <S_z> of eight substate probabilities, exact for exact input."""
    return [sum(v * p for v, p in zip(values, probs)) for values in SPIN_VALUES]


class TestQ2:
    def test_arithmetic(self):
        x = Q2(1, Fraction(1, 2))          # 1 + sqrt(2)/2
        y = HALF_SQRT2                      # 1/sqrt(2) = sqrt(2)/2
        assert x - 1 == y
        assert y * y == Q2(Fraction(1, 2))
        assert float(y) == pytest.approx(SQ2)

    def test_ordering(self):
        assert Q2(0, 1) > 1                  # sqrt 2 > 1
        assert Q2(0, 1) < Fraction(3, 2)     # sqrt 2 < 1.5
        assert Q2(-3, 2) < 0                 # 2 sqrt 2 < 3
        assert Q2(-1, 1) > 0                 # sqrt 2 > 1

    def test_equality_with_other_types(self):
        # a rational Q2 hashed apart from the int it equals, and Q2(1) == "x" raised ValueError
        assert len({Q2(1), 1}) == 1 and len({Q2(Fraction(1, 2)), 0.5}) == 1
        assert Q2(1) != "x" and Q2(1) != "1" and Q2(1) != None and Q2(1) != math.inf  # noqa: E711

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(), st.fractions()))
    def test_equal_values_hash_equal(self, x):
        assert x == Q2.of(x) and hash(x) == hash(Q2.of(x))


class TestZnSystems:
    def test_table_means_n8(self):
        sys8 = zn_system(8, probs=(Fraction(1, 8),) * 8)
        table = sys8.mean_table()
        # axis spin in the four axis states, then the diagonal states
        assert table[0][:4] == [Q2(1), Q2(-1), Q2(0), Q2(0)]
        assert table[0][4:] == [HALF_SQRT2, HALF_SQRT2, -HALF_SQRT2, -HALF_SQRT2]
        # second spin
        assert table[1][:4] == [Q2(0), Q2(0), Q2(1), Q2(-1)]
        assert table[1][4:] == [HALF_SQRT2, -HALF_SQRT2, HALF_SQRT2, -HALF_SQRT2]
        # first diagonal spin
        assert table[2][:4] == [HALF_SQRT2, -HALF_SQRT2, HALF_SQRT2, -HALF_SQRT2]
        assert table[2][4:] == [Q2(1), Q2(0), Q2(0), Q2(-1)]
        # second diagonal spin
        assert table[3][:4] == [HALF_SQRT2, -HALF_SQRT2, -HALF_SQRT2, HALF_SQRT2]
        assert table[3][4:] == [Q2(0), Q2(1), Q2(-1), Q2(0)]

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            zn_system(4, probs=(0.5, 0.5, 0.5, -0.5))

    def test_exact_probabilities_give_exact_means(self):
        # exact probabilities keep every mean in Q(sqrt 2): the uniform means are 0, not -2.8e-17
        sys8 = zn_system(8, probs=(Fraction(1, 8),) * 8)
        assert sys8.exact and sys8.expectations() == [0, 0, 0, 0]
        assert all(isinstance(x, Q2) for x in sys8.expectations())
        assert not zn_system(8).exact and pure_system(8, 3).exact

    def test_exact_probabilities_need_n_dividing_8(self):
        with pytest.raises(ValueError, match="N dividing 8"):
            zn_system(16, probs=(Fraction(1, 16),) * 16)
        with pytest.raises(ValueError, match="N dividing 8"):
            pure_system(16, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_signed_weights_must_be_finite(self, bad):
        # signed waives nonnegativity and the total, not finiteness
        with pytest.raises(ValueError, match="non-finite"):
            FiniteSpinSystem(8, (0, 1), (bad, 0.5), (0,), signed=True)
        assert FiniteSpinSystem(8, (0, 1), (-2.0, 0.5), (0,), signed=True).signed

    @pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
    def test_empty_system_rejected(self, signed):
        # the signed system's expectations() were [None]; the unsigned one failed as an invalid vector
        with pytest.raises(ValueError, match="at least one micro-state") as info:
            FiniteSpinSystem(8, (), (), (0,), signed=signed)
        assert info.type is ValueError


def _fraction_probs(weights):
    return tuple(Fraction(w, sum(weights)) for w in weights)


class TestExactFloatTwins:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 16), min_size=8, max_size=8).filter(any).map(_fraction_probs),
           st.fractions(-4, 4, max_denominator=16), st.fractions(-4, 4, max_denominator=16),
           st.integers(-9, 9), st.integers(0, 7), st.sampled_from([Fraction, Q2.of]))
    def test_float_twin_agrees(self, probs, alpha, beta, steps, kept, kind):
        # the same Z_8 system with exact and with float probabilities: the exact
        # one stays in Q(sqrt 2), the float one in floats, and they agree to roundoff;
        # the twin keeps one exact entry (Fraction or Q2), which is read as a float
        exact = zn_system(8, probs=probs)
        twin = zn_system(8, probs=tuple(kind(p) if i == kept else float(p) for i, p in enumerate(probs)))
        assert exact.exact and not twin.exact
        pairs = [(exact, twin), (integrate_out(exact, alpha, beta), integrate_out(twin, alpha, beta)),
                 (zn_step_evolution(exact, steps), zn_step_evolution(twin, steps))]
        for a, b in pairs:
            assert a.exact and not b.exact
            assert all(type(x) is float for x in b.probs)
            assert all(isinstance(x, float) for x in b.expectations())
            assert max(abs(float(x) - y) for x, y in zip(a.probs, b.probs)) <= 1e-12
            assert max(abs(float(x) - y) for x, y in zip(a.expectations(), b.expectations())) <= 1e-12


class TestRegion:
    def test_n4_summed_mean_bound(self):
        region = realizable_region_check(zn_system(4, probs=(Fraction(1, 4),) * 4))
        assert region.max_mean_sum == Q2(1)

    def test_n8_inradius_in_purity_terms(self):
        region = realizable_region_check(zn_system(8, probs=(Fraction(1, 8),) * 8))
        want = (Q2(2) + Q2(0, 1)) * Fraction(1, 4)   # (2 + sqrt 2)/4
        assert abs(region.inradius ** 2 - float(want)) < 1e-12
        assert abs(region.inradius - math.cos(math.pi / 8.0)) < 1e-12

    def test_no_inradius_when_the_origin_is_outside_the_hull(self):
        # states at 0, pi/4 and pi/2: the triangle of their means leaves the origin out
        third = FiniteSpinSystem(8, (0, 1, 2), (THIRD,) * 3, (0, 2))
        assert realizable_region_check(third).inradius == 0.0
        # the square's diagonal half has the origin on its edge, not strictly inside
        half = FiniteSpinSystem(4, (0, 1, 2), (THIRD,) * 3, (0, 1))
        assert realizable_region_check(half).inradius == 0.0

    def test_inradius_converges_to_one(self):
        previous = 0.0
        for n in (8, 16, 32, 64):
            region = realizable_region_check(zn_system(n))
            assert abs(region.inradius - math.cos(math.pi / n)) < 1e-12
            assert region.inradius > previous
            previous = region.inradius
        assert previous > 0.998



class TestIntegrateOut:
    def test_pure_diagonal_negative_weights(self):
        eff = integrate_out(pure_system(8, 1))
        # weights on (0), (pi), (pi/2), (-pi/2)
        assert eff.probs[0] == HALF_SQRT2 * Fraction(1, 2)
        assert eff.probs[1] == -HALF_SQRT2 * Fraction(1, 2)
        assert eff.probs[2] == HALF_SQRT2 * Fraction(1, 2)
        assert eff.probs[3] == -HALF_SQRT2 * Fraction(1, 2)
        assert eff.signed
        assert min(eff.probs) == -HALF_SQRT2 * Fraction(1, 2)

    def test_axis_mass_unchanged(self):
        probs = (Fraction(1, 4),) * 4 + (Fraction(0),) * 4
        sys8 = zn_system(8, probs=probs)
        eff = integrate_out(sys8)
        assert eff.probs == (Fraction(1, 4),) * 4

    def test_expectations_preserved_for_any_coefficients(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            raw = [Fraction(int(x), 32) for x in rng.integers(0, 5, size=8)]
            raw[-1] = 1 - sum(raw[:-1])
            if raw[-1] < 0:
                continue
            sys8 = zn_system(8, probs=tuple(raw))
            alpha = Fraction(int(rng.integers(-8, 9)), 8)
            beta = Fraction(int(rng.integers(-8, 9)), 8)
            eff = integrate_out(sys8, alpha, beta)
            assert sys8.expectations() == eff.expectations()

    def test_nonnegativity_costs_total_sqrt2(self):
        eff = integrate_out(pure_system(8, 1), Fraction(1), Fraction(1))
        assert all(Q2.of(w) >= 0 for w in eff.probs)
        assert sum(eff.probs, Q2(0)) == Q2(0, 1)   # exactly sqrt 2
        # and any alpha, beta >= 1 keeps the total at or above sqrt 2
        eff2 = integrate_out(pure_system(8, 1), Fraction(3, 2), Fraction(5, 4))
        assert sum(eff2.probs, Q2(0)) >= Q2(0, 1)

    def test_requires_full_z8(self):
        with pytest.raises(ValueError):
            integrate_out(zn_system(4))

    def test_a_float_coefficient_gives_a_float_system(self):
        # 0.1 was taken as the Fraction of its binary value: the "exact" first weight was
        # Q2(1/36, -3602879701896397/648518346341351424), float roundoff presented as exact
        sys8 = zn_system(8, probs=tuple(Fraction(k, 36) for k in range(1, 9)))
        exact = integrate_out(sys8, Fraction(1, 10), Fraction(1, 2))
        for alpha, beta in ((0.1, Fraction(1, 2)), (Fraction(1, 10), 0.5), (0.1, 0.5)):
            eff = integrate_out(sys8, alpha, beta)
            assert exact.exact and not eff.exact and all(type(w) is float for w in eff.probs)
            assert max(abs(float(x) - y) for x, y in zip(exact.probs, eff.probs)) <= 1e-15


class TestReduceToRho:
    def test_pure_states(self):
        np.testing.assert_allclose(_rho(pure_system(8, 0)), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(_rho(pure_system(8, 1)), [SQ2, SQ2], atol=1e-15)

    def test_uniform_is_centred(self):
        assert np.abs(_rho(zn_system(8))).max() < 1e-15

    def test_independent_of_coarse_graining_coefficients(self):
        rng = np.random.default_rng(1)
        raw = [Fraction(int(x), 32) for x in rng.integers(0, 5, size=8)]
        raw[-1] = 1 - sum(raw[:-1])
        sys8 = zn_system(8, probs=tuple(raw))
        direct = _rho_components(sys8)
        for alpha, beta in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(2), Fraction(-1))):
            eff = integrate_out(sys8, alpha, beta)
            assert (eff.probs[0] - eff.probs[1], eff.probs[2] - eff.probs[3]) == direct


class TestZnSteps:
    def test_one_step_rotates_pure_state(self):
        stepped = zn_step_evolution(pure_system(8, 0), 1)
        assert stepped.probs == pure_system(8, 1).probs

    def test_negative_steps_rotate_back(self):
        # steps is a whole number (tests/test_validate.py), and a negative one is legal
        assert zn_step_evolution(pure_system(8, 1), -1).probs == pure_system(8, 0).probs

    def test_zero_positions_rejected(self):
        # n_positions=0 raised ZeroDivisionError
        with pytest.raises(ValueError, match="n_positions must be >= 1"):
            FiniteSpinSystem(0, (0,), (1.0,), (0,))

    def test_full_cycle_is_identity(self):
        rng = np.random.default_rng(2)
        p = rng.random(8)
        p /= p.sum()
        sys8 = zn_system(8, probs=tuple(p))
        assert zn_step_evolution(sys8, 8).probs == pytest.approx(sys8.probs)

    def test_reduced_state_rotates(self):
        rng = np.random.default_rng(3)
        p = rng.random(8)
        p /= p.sum()
        sys8 = zn_system(8, probs=tuple(p))
        before = _rho(sys8)
        after = _rho(zn_step_evolution(sys8, 1))
        angle = math.pi / 4.0
        rot = np.array([
            [math.cos(angle), -math.sin(angle)],
            [math.sin(angle), math.cos(angle)],
        ])
        np.testing.assert_allclose(after, rot @ before, atol=1e-12)
        assert abs(float(after @ after) - float(before @ before)) < 1e-14


class TestCartesianPurity:
    def test_uniform_is_zero(self):
        assert cartesian_purity([Fraction(1, 8)] * 8) == 0

    def test_point_mass_is_three(self):
        assert cartesian_purity([1, 0, 0, 0, 0, 0, 0, 0]) == 3
        assert cartesian_purity([0, 0, 0, 0, 0, 0, 0, 1]) == 3

    def test_scenario_third(self):
        assert cartesian_purity([THIRD, 0, 0, 0, THIRD, 0, 0, THIRD]) == THIRD

    def test_polynomial_identity_random(self):
        rng = np.random.default_rng(4)
        p = rng.random((10000, 8))
        p /= p.sum(axis=1, keepdims=True)
        direct = cartesian_purity(p)
        s = np.array(SPIN_VALUES, dtype=float)
        via_spins = ((p @ s.T) ** 2).sum(axis=1)
        assert np.abs(direct - via_spins).max() < 1e-12

    def test_exact_identity_on_fractions(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            raw = [Fraction(int(x), 16) for x in rng.integers(0, 4, size=8)]
            raw[-1] = 1 - sum(raw[:-1])
            if raw[-1] < 0:
                continue
            sx, sy, sz = _spin_expectations(raw)
            assert cartesian_purity(raw) == sx * sx + sy * sy + sz * sz

    def test_exactness_probe_of_float_table_allocates_nothing(self):
        # deciding that a (10^4, 8) float table is not exact must not build
        # its 10^4 row views
        p = np.random.default_rng(6).random((10000, 8))
        _is_exact_seq(p)
        tracemalloc.start()
        try:
            assert not _is_exact_seq(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        third = np.array([THIRD, 0, 0, 0, THIRD, 0, 0, THIRD], dtype=object)
        assert _is_exact_seq(third) and _is_exact_seq(list(third))
        assert cartesian_purity(third) == THIRD


class TestCartesianMeasurement:
    SCENARIO = [THIRD, 0, 0, 0, THIRD, 0, 0, THIRD]

    def test_classical_rule_violates_purity(self):
        out = cartesian_measure_sz(self.SCENARIO, "classical")
        assert out.probs == (1, 0, 0, 0, 0, 0, 0, 0)
        assert out.purity_after == 3
        assert out.constraint_violated

    def test_quantum_rule_restores_purity_one(self):
        out = cartesian_measure_sz(self.SCENARIO, "quantum")
        assert out.purity_after == 1
        assert not out.constraint_violated
        assert out.pair_sums == (Fraction(1, 2),) * 4
        assert _spin_expectations(out.probs) == [0, 0, 1]

    def test_quantum_rule_free_parameter(self):
        out = cartesian_measure_sz(self.SCENARIO, "quantum", free_p1=Fraction(1, 8))
        assert out.probs[:4] == (Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))
        assert out.purity_after == 1
        with pytest.raises(ValueError):
            cartesian_measure_sz(self.SCENARIO, "quantum", free_p1=Fraction(3, 4))

    def test_zero_outcome_probability(self):
        probs = [0, 0, 0, 0, 0.5, 0.5, 0, 0]
        with pytest.raises(ValueError):
            cartesian_measure_sz(probs, "classical")

    def test_classical_rule_keeps_relative_weights(self):
        probs = [0.2, 0.1, 0.05, 0.05, 0.3, 0.1, 0.1, 0.1]
        out = cartesian_measure_sz(probs, "classical")
        np.testing.assert_allclose(out.probs[:4], np.array([0.2, 0.1, 0.05, 0.05]) / 0.4)
        assert out.probs[4:] == (0.0, 0.0, 0.0, 0.0)

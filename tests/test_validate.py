"""The shared input checks: one count check and one probability check.

Every count a public entry point takes goes through ``validate.check_count``,
and every float probability vector through ``validate.check_probabilities``;
these tests hold each entry point to the same rules.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleq import experiments
from ensembleq.correlations import simulate_sequences
from ensembleq.finite import CartesianSpinEnsemble, FiniteSpinSystem, cartesian_measure_sz, zn_system
from ensembleq.fourstate import OutcomeTable, interference_trajectory, symmetrized_hidden_ensemble
from ensembleq.manifolds import grid_ensemble
from ensembleq.observables import basis_spin, moment
from ensembleq.validate import check_count, check_real

_CHAIN = [basis_spin(3), basis_spin(1)]
_RHO = np.array([0.1, 0.2, 0.3])


def _grid(resolution):
    ens = grid_ensemble(resolution)
    return ens.points, ens.probs


def _body(name, **params):
    """An experiment body's table, results and check records, as plain values."""
    columns, rows, results, checks = experiments.EXPERIMENTS[name](params, 0)
    return columns, list(rows), results, [c.as_dict() for c in checks]


# each entry point as a function of one count, with a valid whole value
COUNT_ENTRY_POINTS = {
    "simulate_sequences-n_samples": (lambda n: simulate_sequences(_CHAIN, _RHO, n, seed=1), 1000),
    "simulate_sequences-seed": (lambda n: simulate_sequences(_CHAIN, _RHO, 1000, seed=n), 3),
    "simulate_sequences-block_size": (
        lambda n: simulate_sequences(_CHAIN, _RHO, 1000, seed=1, block_size=n), 256),
    "simulate_sequences-n_jobs": (
        lambda n: simulate_sequences(_CHAIN, _RHO, 1000, seed=1, n_jobs=n, block_size=256), 2),
    "grid_ensemble": (_grid, 8),
    "interference_trajectory": (lambda n: interference_trajectory(1.0, 1.0, n), 64),
    "moment": (lambda n: moment(basis_spin(3), grid_ensemble(4), n), 3),
    "zn_system": (zn_system, 8),
    "symmetrized_hidden_ensemble": (
        lambda n: symmetrized_hidden_ensemble(np.random.default_rng(0), order=n).points, 5),
    "bell-sweep-steps": (lambda n: _body("bell-sweep", steps=n, classical_trials=3), 4),
    "bell-sweep-classical_trials": (lambda n: _body("bell-sweep", steps=2, classical_trials=n), 3),
    "interference-points": (lambda n: _body("interference", points=n), 16),
    "pseudo-quantum-region-sizes": (lambda n: _body("pseudo-quantum-region", sizes=[4, n]), 8),
    "correlation-table-grid_resolution": (
        lambda n: _body("correlation-table", grid_resolution=n), 8),
    "mc-sequences-n": (lambda n: _body("mc-sequences", n=n), 1000),
    "mc-sequences-jobs": (lambda n: _body("mc-sequences", n=1000, jobs=n), 2),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_count_entry_point_takes_whole_numbers_only(entry):
    call, whole = COUNT_ENTRY_POINTS[entry]
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="integer"):
            call(bad)
    np.testing.assert_equal(call(float(whole)), call(whole))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(-10**6, 10**6), lo=st.integers(-100, 100), span=st.integers(0, 10**6),
       bounded=st.booleans())
def test_check_count_accepts_exactly_the_whole_numbers_in_range(n, lo, span, bounded):
    hi = lo + span if bounded else None
    inside = n >= lo and (hi is None or n <= hi)
    for given_as in (n, float(n), np.int64(n)):
        if inside:
            got = check_count(given_as, "n", lo, hi)
            assert got == n and type(got) is int
        else:
            with pytest.raises(ValueError, match=r"n must be >= |the limit is"):
                check_count(given_as, "n", lo, hi)
    for bad in (n + 0.5, bool(n % 2), str(n), math.nan, math.inf, None):
        with pytest.raises(ValueError, match="must be an integer"):
            check_count(bad, "n", lo, hi)


@pytest.mark.parametrize("value", [True, "1.5", None, math.nan, -math.inf, [1.0, False]])
def test_check_real_rejects_bools_strings_and_non_finite_values(value):
    with pytest.raises(ValueError, match="^x"):
        check_real(value, "x")


def test_check_real_names_the_bad_list_entry_and_keeps_good_values():
    assert check_real((1, 2.5, np.float32(0.5)), "x") == [1.0, 2.5, 0.5]
    with pytest.raises(ValueError, match=r"x\[2\] is non-finite"):
        check_real([0.0, 1.0, math.nan], "x")
    with pytest.raises(ValueError, match=r"x = 2.0 outside \[0.0, 1.0\]"):
        check_real(2, "x", 0.0, 1.0)


PROBABILITY_ENTRY_POINTS = {
    "FiniteSpinSystem": lambda p: FiniteSpinSystem(4, (0, 1, 2, 3), p[:4], (0, 1)),
    "CartesianSpinEnsemble": CartesianSpinEnsemble,
    "cartesian_measure_sz-classical": lambda p: cartesian_measure_sz(p, "classical"),
    "cartesian_measure_sz-quantum": lambda p: cartesian_measure_sz(p, "quantum"),
    "OutcomeTable": lambda p: OutcomeTable(*p[:4]),
}


@pytest.mark.parametrize("entry", PROBABILITY_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_float_probabilities_reject_non_finite_entries(entry, bad):
    build = PROBABILITY_ENTRY_POINTS[entry]
    build((0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0))   # control: a valid vector passes
    with pytest.raises(ValueError, match="non-finite"):
        build((bad, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0))

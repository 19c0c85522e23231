"""The shared input checks: one count check, one probability check, one unit-vector check
and one real-array check.

Every count a public entry point takes goes through ``validate.check_count``,
every float probability vector through ``validate.check_probabilities``, and
every array a caller passes (states, directions, Hamiltonians, tables, times)
through ``validate.real_array``; these tests hold each entry point to the same rules.
"""
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleq import experiments, qmatrix
from ensembleq.dynamics import FlowParams, Hamiltonian, integrate_von_neumann, syncoherence_closed_form
from ensembleq.correlations import conditional_correlation_2pt, simulate_sequences
from ensembleq.finite import FiniteSpinSystem, cartesian_measure_sz, cartesian_purity, zn_step_evolution, zn_system
from ensembleq.fourstate import (OutcomeTable, basis_psi, entangled_bloch, exchange_symmetry, interference_trajectory,
                                 is_exchange_symmetric, symmetrized_hidden_ensemble)
from ensembleq.manifolds import (BlochState, Ensemble, SubstateEnsemble, bloch_vector, canonical_direction,
                                 grid_ensemble)
from ensembleq.observables import TwoLevelObservable, basis_spin, moment, spin
from ensembleq.validate import (ConstraintViolation, check_components, check_count, check_real, check_unit_vector,
                                real_array)

_CHAIN = [basis_spin(3), basis_spin(1)]
_RHO = np.array([0.1, 0.2, 0.3])


def _uniform(points):
    return np.ones(len(points))


def _grid(resolution):
    ens = grid_ensemble(resolution, _uniform)
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
    "moment": (lambda n: moment(basis_spin(3), grid_ensemble(4, _uniform), n), 3),
    "zn_system": (zn_system, 8),
    "FiniteSpinSystem-observable_angles": (
        lambda n: FiniteSpinSystem(4, (0, 1, 2, 3), (0.25,) * 4, (0, n)).observable_angles, 2),
    "FiniteSpinSystem-n_positions": (lambda n: FiniteSpinSystem(n, (0, 1), (0.5, 0.5), (0,)).mean_table(), 4),
    "zn_step_evolution": (lambda n: zn_step_evolution(zn_system(4, probs=(0.5, 0.5, 0, 0)), n).probs, 3),
    "FiniteSpinSystem-state_angles": (
        lambda n: FiniteSpinSystem(4, (0, 1, 2, n), (0.25,) * 4, (0, 1)).state_angles, 3),
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


def test_angle_indices_are_whole_and_reduce_mod_n():
    # a fractional index was truncated: observable_angles=(0.5, 2.7) built (0, 2)
    with pytest.raises(ValueError, match="observable_angles must be an integer, got 0.5"):
        FiniteSpinSystem(8, (0,), (1.0,), (0.5, 2.7))
    system = FiniteSpinSystem(8, (-1, 9.0, np.int64(-8)), (0.5, 0.25, 0.25), (-2, 10))
    assert system.state_angles == (7, 1, 0) and system.observable_angles == (6, 2)


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
    with pytest.raises(ValueError, match=r"x = -2.0 outside \[0.0, inf\]"):
        check_real(-2, "x", 0.0)
    assert check_real([1, 2, 3], "x", length=3) == [1.0, 2.0, 3.0]
    for wrong in (7, [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError, match="x must be a list of 3 real numbers"):
            check_real(wrong, "x", length=3)


PROBABILITY_ENTRY_POINTS = {
    "FiniteSpinSystem": lambda p: FiniteSpinSystem(4, (0, 1, 2, 3), p[:4], (0, 1)),
    "FiniteSpinSystem-signed": lambda p: FiniteSpinSystem(4, (0, 1, 2, 3), p[:4], (0, 1), signed=True),
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


@pytest.mark.parametrize("entry", PROBABILITY_ENTRY_POINTS)
@pytest.mark.parametrize("bad, rest", [("0.5", Fraction(1, 2)), (True, 0)], ids=["string", "bool"])
@pytest.mark.parametrize("kind", [float, Fraction], ids=["among-floats", "among-fractions"])
def test_probabilities_reject_string_and_bool_entries(entry, bad, rest, kind):
    # float("0.5") and float(True) were read as 0.5 and 1.0, a system with "0.5" failed only in
    # its expectations, and (True, 0, 0, 0) built an exact system
    with pytest.raises(ValueError, match=r"^(probs\[0\]|p\[0\]|w_pp) must be a real number, got"):
        PROBABILITY_ENTRY_POINTS[entry]((bad, *map(kind, (0, 0, rest, 0, 0, 0, 0))))


@pytest.mark.parametrize("check", [check_unit_vector, spin, canonical_direction],
                         ids=["check_unit_vector", "spin", "canonical_direction"])
@pytest.mark.parametrize("vec", [[1e300, 0.0, 0.0], [0.0, -1e200, 1e200], [1e155] * 15],
                         ids=["1e300", "1e200-pair", "15x1e155"])
def test_a_huge_direction_is_a_constraint_violation_without_a_warning(check, vec):
    # the squared norm overflows to inf: the check must reject it, not warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintViolation, match="not unit norm"):
            check(vec)


@pytest.mark.parametrize("build, name", [
    (lambda v: real_array(v, "x"), "x"),
    (Hamiltonian, "hk"),
    (TwoLevelObservable, "e"),
    (BlochState, "rho"),
    (qmatrix.density_from_bloch, "Bloch vector"),
    (qmatrix.operator_from_direction, "direction"),
    (lambda v: integrate_von_neumann(v, np.zeros(3), (0.0, 1.0), 0.1), "Bloch vector"),
    (lambda v: SubstateEnsemble([[0.0, 0.0, 1.0]], [v[:2]]), "table"),
    (lambda v: grid_ensemble(2, lambda pts: np.resize(v, len(pts))), "density"),
    (lambda v: cartesian_purity([*v, *v, 0.0, 0.0]), "p"),
    (lambda v: syncoherence_closed_form(0.9, 0.0, FlowParams(3.0, 1.0), v), "times"),
], ids=["real_array", "Hamiltonian", "TwoLevelObservable", "BlochState", "density_from_bloch",
        "operator_from_direction", "integrate_von_neumann", "SubstateEnsemble", "grid_ensemble",
        "cartesian_purity", "syncoherence_closed_form"])
@pytest.mark.parametrize("form", [list, np.array], ids=["list", "array"])
def test_complex_input_rejected_not_cut_to_its_real_part(build, name, form):
    with pytest.raises(ValueError, match=f"^{name} has complex entries$"):
        build(form([0.5j, 0.0, 0.5]))


_Z = basis_spin(3)

# Public readers of caller arrays: (call, a valid input, the names its messages may give the
# argument, whether a BlochState is a valid input). A state reader names the state, its vector
# form (BlochState's ``rho``) or its matrix form, a Hamiltonian its components or its matrix.
JUNK_READERS = {
    "check_components": (lambda x: check_components(x, "v"), np.array([0.0, 0.0, 1.0]), "v", False),
    "TwoLevelObservable": (TwoLevelObservable, np.array([0.0, 0.0, 1.0]), "e", False),
    "BlochState": (BlochState, np.array([0.0, 0.0, 0.5]), "rho", False),
    "bloch_vector-vector": (bloch_vector, np.array([0.0, 0.0, 0.5]), "state|Bloch vector|rho|density matrix", True),
    "bloch_vector-matrix": (bloch_vector, np.eye(2) / 2.0, "state|Bloch vector|rho|density matrix", True),
    "Hamiltonian-vector": (Hamiltonian, np.array([0.0, 0.0, 1.0]), "hk|Hamiltonian matrix", False),
    "Hamiltonian-matrix": (Hamiltonian, np.diag([1.0, -1.0]), "hk|Hamiltonian matrix", False),
    "spin": (spin, np.array([0.0, 0.0, 1.0]), "e", False),
    "Ensemble-points": (lambda x: Ensemble("s2", x, [1.0]), np.array([[0.0, 0.0, 1.0]]), "points", False),
    "Ensemble-probs": (lambda x: Ensemble("s2", [[0.0, 0.0, 1.0]], x), np.array([1.0]), "probabilities|probs",
                       False),
    "conditional_correlation_2pt-state": (lambda x: conditional_correlation_2pt(_Z, _Z, x),
                                          np.array([0.0, 0.0, 0.5]), "state|Bloch vector|rho|density matrix", True),
    "exchange_symmetry": (exchange_symmetry, np.eye(15)[0], "f", False),
    "is_exchange_symmetric-vector": (is_exchange_symmetric, entangled_bloch(-1).rho,
                                     "state|Bloch vector|rho|density matrix|wave function", True),
    "is_exchange_symmetric-psi": (is_exchange_symmetric, basis_psi(1),
                                  "state|Bloch vector|rho|density matrix|wave function", True),
    "check_density_matrix": (qmatrix.check_density_matrix, np.eye(2) / 2.0, "density matrix", False),
}


def _with_entry(valid, value):
    out = valid.astype(np.result_type(valid, value))
    out.flat[0] += value
    return out


def _junk(valid, takes_state):
    """Inputs that are no array of numbers, or the valid array spoiled one way."""
    not_arrays = st.one_of(
        st.text(max_size=5), st.binary(max_size=5), st.sampled_from([None, object(), {}, {"rho": valid.tolist()}]),
        st.integers(0, 3).flatmap(lambda a: st.integers(a + 1, 4).map(
            lambda b: [[0.0] * a, [0.0] * b])),                      # ragged
        st.just([0.0, valid.tolist()]))                              # a list nested in a list of numbers
    if not takes_state:
        not_arrays = st.one_of(not_arrays, st.just(BlochState([0.0, 0.0, 0.5])))
    spoiled = st.sampled_from([
        np.ones(valid.shape, dtype=bool),                            # a bool array
        valid.astype(bool).tolist(),
        np.concatenate([valid, np.zeros(valid.shape[:-1] + (1,))], axis=-1),   # one entry too many
        valid[None, None],                                           # nested two levels deeper
        0.5,                                                         # a scalar
        _with_entry(valid, 0.5j),                                    # a complex entry
        _with_entry(valid, math.nan), _with_entry(valid, math.inf), _with_entry(valid, -math.inf)])
    return st.one_of(not_arrays, spoiled, spoiled.map(lambda a: a.tolist() if isinstance(a, np.ndarray) else a))


@pytest.mark.parametrize("reader", JUNK_READERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_junk_input_is_a_value_error_naming_the_argument(reader, data):
    # a BlochState, string, object or ragged list escaped as numpy's own TypeError or
    # ValueError naming no argument, and a bool array read as 0s and 1s
    call, valid, names, takes_state = JUNK_READERS[reader]
    call(valid)   # control: the valid input is read
    junk = data.draw(_junk(valid, takes_state), label="junk")
    with pytest.raises(ValueError) as info:
        call(junk)
    assert re.search(rf"\b({names})\b", str(info.value)), str(info.value)

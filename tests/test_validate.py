"""The shared input checks: one count check, one probability check, one unit-vector check,
one real-number check, one real-array check and one pairing check.

Every count or index a public entry point takes goes through ``validate.check_count``,
every float probability vector through ``validate.check_probabilities``, every real
scalar a caller passes (rates, initial values, coefficients) through
``validate._real_number``, and every array or list a caller passes (states,
directions, Hamiltonians, tables, times) through ``validate.real_array``, the one
place that decides non-finite and bool entries. Every observable, state or operator
paired with another of the same length goes through ``validate._check_dim``, and every
mean and sum of squares is added by ``validate._dot``. These tests hold each entry point
to the same rules.
"""
import math
import re
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ensembleq import experiments, qmatrix
from ensembleq.dynamics import (FlowParams, Hamiltonian, integrate_open, integrate_von_neumann, rotation_from_generator,
                                syncoherence_closed_form, syncoherence_flow)
from ensembleq.correlations import (conditional_correlation_2pt, conditional_correlation_3pt, conditional_product,
                                    measurement_chain, pointwise_correlation, simulate_sequences)
from ensembleq.finite import (FiniteSpinSystem, cartesian_measure_sz, cartesian_purity, integrate_out,
                              zn_step_evolution, zn_system)
from ensembleq.fourstate import (OutcomeTable, basis_psi, entangled_bloch, entangled_psi, entangled_state,
                                 exchange_symmetry, interference_trajectory, is_exchange_symmetric,
                                 quantum_pair_correlator, rotated_spin_correlation, rotated_spin_observables,
                                 symmetrized_hidden_ensemble)
from ensembleq.manifolds import (BlochState, Ensemble, SubstateEnsemble, bloch_vector, canonical_direction,
                                 extend_to_substates, grid_ensemble)
from ensembleq.observables import (TwoLevelObservable, _mean, basis_spin, combine, expectation, mean_in_state, moment,
                                   prob_plus, spin)
from ensembleq.validate import (_PREFIX_SUM_ROWS, ConstraintViolation, DimensionMismatch, _dot, _real_number,
                                check_components, check_count, check_probabilities, check_rotation,
                                check_unit_vector, real_array)

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
    "simulate_sequences-n_jobs": (lambda n: simulate_sequences(_CHAIN, _RHO, 1000, seed=1, n_jobs=n), 2),
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


def test_real_number_keeps_good_values_and_holds_its_lower_bound():
    assert [_real_number(v, "x") for v in (1, 2.5, np.float32(0.5), Fraction(1, 4))] == [1.0, 2.5, 0.5, 0.25]
    assert _real_number(0, "x", 0.0) == 0.0
    with pytest.raises(ValueError, match=r"^x = -2.0 outside \[0.0, inf\]$"):
        _real_number(-2, "x", 0.0)


# a caller's value that a message repeats, each shown through validate._brief: an int past Python's int-to-str
# digit limit ended in Python's own "Exceeds the limit (4300 digits)" ValueError, naming no argument, and a
# 10^4-entry t_span was repeated in a 58,935-character message
LONG_VALUES = {
    "check_count-over-hi": (lambda: check_count(10**5000, "n", hi=5), "n = <int of 16610 bits>; the limit is 5"),
    "check_count-under-lo": (lambda: check_count(-10**5000, "n"), "n must be >= 0, got <negative int of 16610 bits>"),
    "_real_number": (lambda: _real_number(10**5000, "x"), "x must be within the float range, got <int of 16610 bits>"),
    "integrate_von_neumann-t_span": (
        lambda: integrate_von_neumann(np.eye(3)[2], np.eye(3)[0], list(range(10000)), 0.1),
        "t_span must be a list of 2 real numbers, got [0, 1, 2, 3, 4, 5, ...]"),
    "real_array-nested": (lambda: real_array([[[[[[["x"] * 6] * 6] * 6] * 6] * 6] * 6], "rho"),
                          "rho must be an array of numbers, got [[[[[[[...], [...], [...], [...], [...], [...]], "),
}


@pytest.mark.parametrize("site", LONG_VALUES)
def test_a_long_value_is_shortened_in_the_message(site):
    call, message = LONG_VALUES[site]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(message) and len(str(info.value)) <= 200, str(info.value)


# numpy 2 shows a numpy scalar as np.float64(-0.5); each message shows the Python float
@pytest.mark.parametrize("call, message", [
    (lambda: integrate_von_neumann(np.eye(3)[0], [0.0, 0.0, 1.0], (0.0, 8.0), 2.0), r"purity exceeded 1 at t = 2\.0: P = [\d.]+;"),
    (lambda: syncoherence_flow(1.0, 0.5, FlowParams(3.0, 2.0), (0.0, 1.0), 0.25),
     r"purity exceeded 1 at t = 0\.25: P = [\d.]+;"),
    (lambda: check_probabilities([1.5, -0.5]), r"negative probability: min = -0\.5$"),
    (lambda: qmatrix.check_density_matrix(np.diag([1.5, -0.5])), r"density matrix has a negative eigenvalue -0\.5$"),
], ids=["_check_purity", "syncoherence_flow", "_check_distribution", "check_density_matrix"])
def test_a_number_in_a_message_is_a_python_float(call, message):
    with pytest.raises(ConstraintViolation, match=f"^{message}"):
        call()


@pytest.mark.parametrize("read, bad", [
    (lambda x: real_array(x, "probabilities"), [True, 0.0]),
    (lambda x: real_array(x, "probabilities"), (0.5, np.False_)),
    (lambda x: real_array(x, "probabilities"), [[0.5, 0.0], [np.True_, 0.5]]),
    (lambda x: real_array(x, "probabilities"), [np.array([True, False]), [0.5, 0.5]]),
    (check_probabilities, [True, 0.0]),
], ids=["True-in-list", "numpy-False-in-tuple", "nested", "bool-array-in-list", "check_probabilities"])
def test_a_bool_among_numbers_is_not_read_as_0_or_1(read, bad):
    # numpy reads [True, 0.0] as [1.0, 0.0], so check_probabilities passed it as a distribution
    with pytest.raises(ValueError, match=r"^probabilities must be an array of numbers, got"):
        read(bad)


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
@pytest.mark.parametrize("vec", [[1e300, 0.0, 0.0], [0.0, -1e200, 1e200], [1e155] * 15, np.zeros(0)],
                         ids=["1e300", "1e200-pair", "15x1e155", "empty"])
def test_a_huge_direction_is_a_constraint_violation_without_a_warning(check, vec):
    # the squared norm overflows to inf (or is the empty sum): the check must reject it, not warn first
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
    "Ensemble-points": (lambda x: Ensemble(x, [1.0]), np.array([[0.0, 0.0, 1.0]]), "points", False),
    "Ensemble-probs": (lambda x: Ensemble([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], x), np.array([0.5, 0.5]),
                       "probabilities|probs", False),
    "conditional_correlation_2pt-state": (lambda x: conditional_correlation_2pt(_Z, _Z, x),
                                          np.array([0.0, 0.0, 0.5]), "state|Bloch vector|rho|density matrix", True),
    "exchange_symmetry": (exchange_symmetry, np.eye(15)[0], "f", False),
    "is_exchange_symmetric-vector": (is_exchange_symmetric, entangled_bloch(-1).rho,
                                     "state|Bloch vector|rho|density matrix|wave function", True),
    "is_exchange_symmetric-psi": (is_exchange_symmetric, basis_psi(1),
                                  "state|Bloch vector|rho|density matrix|wave function", True),
    "check_density_matrix": (qmatrix.check_density_matrix, np.eye(2) / 2.0, "density matrix", False),
    "rotation_from_generator": (rotation_from_generator, np.zeros(3), "alpha", False),
    "check_rotation": (check_rotation, np.eye(3), "rotation", False),
    "SubstateEnsemble-directions": (lambda x: SubstateEnsemble(x, [[0.5, 0.5]]), np.array([[0.0, 0.0, 1.0]]),
                                    "directions", False),
    "SubstateEnsemble-table": (lambda x: SubstateEnsemble([[0.0, 0.0, 1.0]], x), np.array([[0.5, 0.5]]), "table",
                               False),
    "mean_in_state": (lambda x: mean_in_state(_Z, x), np.array([0.0, 0.0, 1.0]), "f", False),
    "expectation": (lambda x: expectation(_Z, x), np.array([0.0, 0.0, 0.5]), "state|Bloch vector|rho|density matrix",
                    True),
    "moment-points": (lambda x: moment(_Z, Ensemble(x, [1.0]), 1), np.array([[0.0, 0.0, 1.0]]), "points",
                      False),
}


def _with_entry(valid, value):
    out = valid.astype(np.result_type(valid, value))
    out.flat[0] += value
    return out


def _with_first(valid, value, last=False):
    """valid as nested lists with its first (or last) entry replaced by ``value``."""
    out = row = valid.tolist()
    while isinstance(row[-1 if last else 0], list):
        row = row[-1 if last else 0]
    row[-1 if last else 0] = value
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
        _with_first(valid, True), tuple(_with_first(valid, np.False_, last=True)),   # numpy reads them as 1.0, 0.0
        _with_first(valid, 10**400),                                 # an int beyond the float range
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


_EXACT_Z8 = zn_system(8, probs=tuple(Fraction(k, 36) for k in range(1, 9)))
_FLOW = FlowParams(3.0, 2.0)

# Public readers of caller scalars: (call, a valid value, the argument's name, values of the right
# type outside the reader's range). Each reads its value through validate._real_number or check_count.
SCALAR_READERS = {
    "basis_psi": (basis_psi, 1, "m", (0, 5, 1.5)),
    "basis_spin": (basis_spin, 1, "k", (0, 4, 1.5)),
    "l_operator": (qmatrix.l_operator, 1, "k", (0, 16, 2.5)),
    "entangled_psi": (entangled_psi, -1, "sign", (0, 0.5, 2, -2)),
    "entangled_state": (entangled_state, -1, "sign", (0, 0.5, 2, -2)),
    "entangled_bloch": (entangled_bloch, -1, "sign", (0, 0.5, 2, -2)),
    "FlowParams-a": (lambda x: FlowParams(x, 2.0), 3.0, "a", ()),
    "FlowParams-b": (lambda x: FlowParams(3.0, x), 2.0, "b", ()),
    "syncoherence_flow-p0": (lambda x: syncoherence_flow(x, 0.1, _FLOW, (0.0, 0.01), 0.001), 0.9, "p0", ()),
    "syncoherence_flow-d0": (lambda x: syncoherence_flow(0.9, x, _FLOW, (0.0, 0.01), 0.001), 0.1, "d0", ()),
    "syncoherence_closed_form-p0": (lambda x: syncoherence_closed_form(x, 0.1, _FLOW, [0.0, 0.1]), 0.9, "p0", ()),
    "syncoherence_closed_form-d0": (lambda x: syncoherence_closed_form(0.9, x, _FLOW, [0.0, 0.1]), 0.1, "d0", ()),
    "integrate_open-d_rate": (lambda x: integrate_open(np.array([0.5, 0.0, 0.0]), None, x, (0.0, 0.01), 0.001),
                              -0.1, "d_rate", ()),
    "combine-lam1": (lambda x: combine(x, basis_spin(1), 0.0, basis_spin(2)), 1.0, "lam1", ()),
    "combine-lam2": (lambda x: combine(1.0, basis_spin(1), x, basis_spin(2)), 0.0, "lam2", ()),
    "integrate_out-alpha": (lambda x: integrate_out(_EXACT_Z8, x, Fraction(1, 2)), Fraction(1, 2), "alpha", ()),
    "integrate_out-beta": (lambda x: integrate_out(_EXACT_Z8, Fraction(1, 2), x), Fraction(1, 2), "beta", ()),
    "interference_trajectory-delta": (lambda x: interference_trajectory(x, 1.0, 16), 1.0, "delta", ()),
    "interference_trajectory-t_final": (lambda x: interference_trajectory(1.0, x, 16), 1.0, "t_final", (-1.0,)),
}

# no scalar reader takes these: a bool is no number, and a string, a list or an array is no scalar
_SCALAR_JUNK = (True, False, np.True_, "1", b"1", None, object(), 1j, [1.0], (1.0,), np.array([1.0]),
                math.nan, math.inf, -math.inf)
# an int beyond the float range: no float reader takes it, and integrate_out's exact path keeps it exact
_HUGE_INT = 10**400


@pytest.mark.parametrize("reader", SCALAR_READERS)
def test_scalar_junk_is_a_value_error_naming_the_argument(reader):
    # float() read "0.5" and True as numbers, NaN and a list escaped into numpy, an index of 0 read
    # psi_4, and a sign of 0.5 built a mixed state
    call, valid, name, outside = SCALAR_READERS[reader]
    call(valid)   # control: the valid value is read
    if reader.startswith("integrate_out"):
        call(_HUGE_INT)
    else:
        outside = (*outside, _HUGE_INT)   # a float reader let it out as a bare OverflowError
    for junk in (*_SCALAR_JUNK, *outside):
        with pytest.raises(ValueError) as info:
            call(junk)
        assert re.match(rf"{name}\b", str(info.value)), (junk, str(info.value))


def _ensemble(n):
    """A one-point ensemble with n-component points: a pole of S^2 or a pure four-state point."""
    return Ensemble([entangled_bloch(-1).rho if n == 15 else np.eye(n)[2]], [1.0])


# Every place an observable, state or operator is paired with another: (call with the argument
# under test given n components, its name in a mismatch message, its name when it has one entry
# too many, the length it is read at). Every other operand has the length given last; a 3-vector
# stands against 15, a 15-vector against 3, a 2x2 matrix against 4x4.
PAIRINGS = {
    "mean_in_state": (lambda n: mean_in_state(_Z, np.eye(n)[2]), "f", "f", 3),
    "prob_plus": (lambda n: prob_plus(_Z, np.eye(n)[2]), "f", "f", 3),
    "expectation": (lambda n: expectation(_Z, np.zeros(n)), "state", "rho", 3),
    "moment": (lambda n: moment(_Z, _ensemble(n), 1), "ensemble", "points", 3),
    "combine": (lambda n: combine(1.0, _Z, 0.0, TwoLevelObservable(np.eye(n)[0])), "b", "e", 3),
    "conditional_correlation_2pt": (lambda n: conditional_correlation_2pt(_Z, spin(np.eye(n)[0]), np.zeros(3)),
                                    "factor 2 of the product", "e", 3),
    "conditional_correlation_3pt": (
        lambda n: conditional_correlation_3pt(spin(np.eye(n)[0]), _Z, _Z, np.zeros(3)), "factor 1 of the product",
        "e", 3),
    "measurement_chain": (lambda n: measurement_chain([_Z, _Z], np.zeros(n)), "factor 1 of the product", "rho", 3),
    "simulate_sequences": (lambda n: simulate_sequences([_Z, spin(np.eye(n)[0])], np.zeros(3), 10, seed=1),
                           "factor 2 of the product", "e", 3),
    "conditional_product-right": (lambda n: conditional_product(_Z, spin(np.eye(n)[0])), "the right factor", "e", 3),
    "conditional_product-left": (lambda n: conditional_product(TwoLevelObservable(np.eye(n)[0]), _Z),
                                 "the left factor", "e", 3),
    "pointwise_correlation-ensemble": (lambda n: pointwise_correlation(_Z, _Z, _ensemble(n)), "ensemble", "points",
                                       3),
    "pointwise_correlation-b": (lambda n: pointwise_correlation(_Z, TwoLevelObservable(np.eye(n)[0]), _ensemble(3)),
                                "ensemble", "e", 3),
    "integrate_von_neumann": (lambda n: integrate_von_neumann(np.zeros(n), Hamiltonian(np.eye(3)[2]), (0.0, 0.01),
                                                              0.001), "rho0", "rho", 3),
    "integrate_open": (lambda n: integrate_open(np.zeros(n), np.eye(n)[0], 0.0, (0.0, 0.01), 0.001), "rho0", "rho",
                       3),
    "rotated_spin_correlation": (lambda n: rotated_spin_correlation(0.3, 0.7, np.zeros(n)), "state", "rho", 15),
    "quantum_pair_correlator": (lambda n: quantum_pair_correlator(np.zeros(n))(0.3), "state", "rho", 15),
    "is_exchange_symmetric": (lambda n: is_exchange_symmetric(np.zeros(n)), "state", "rho", 15),
    "exchange_symmetry": (lambda n: exchange_symmetry(np.eye(n)[0]), "f", "f", 15),
    "qm_expectation": (lambda n: qmatrix.qm_expectation(np.eye(n), np.eye(2) / 2.0), "op", "op", 2),
}


@pytest.mark.parametrize("site", PAIRINGS)
def test_every_pairing_names_the_argument_and_both_lengths(site):
    # the rule was written at 13 sites: ten DimensionMismatch and three plain ValueError
    # messages, none naming the argument or a length
    call, name, too_many_name, good = PAIRINGS[site]
    other = {3: 15, 15: 3, 2: 4}[good]
    call(good)   # control: the paired lengths are read
    with pytest.raises(DimensionMismatch) as info:
        call(other)
    lengths = re.fullmatch(rf"{name} must be (\d+)-component to match .+, got (\d+) components", str(info.value))
    assert lengths and {int(lengths[1]), int(lengths[2])} == {good, other}, str(info.value)
    with pytest.raises(ValueError) as info:
        call(good + 1)
    assert re.match(rf"{too_many_name}\b", str(info.value)), str(info.value)


def _vectors(n):
    return st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).map(np.array)


def _k_order(x, y) -> float:
    """sum_k x_k y_k of two vectors, added in k order from the first product."""
    total = float(x[0]) * float(y[0])
    for k in range(1, len(x)):
        total += float(x[k]) * float(y[k])
    return total


def _bits(value) -> bytes:
    return struct.pack("d", value)   # tells -0.0 from 0.0


# finite entries with both zeros and magnitudes up to 1e150: a product stays finite, and so does a sum of 15
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150),
                     st.floats(-1.0, 1.0))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([3, 15]), st.data())
def test_dot_reads_a_row_alike_at_any_batch_size_and_layout(d, data):
    # n from 1 to 40, or on either side of the prefix-sum row count, where the batch switches to a column
    # loop; past 40 the drawn rows repeat, each still read as a row of the whole batch
    n = data.draw(st.one_of(st.integers(1, 40), st.integers(_PREFIX_SUM_ROWS - 2, _PREFIX_SUM_ROWS + 2)),
                  label="n")
    rows = data.draw(arrays(float, (min(n, 40), d), elements=_ENTRIES, fill=st.nothing()), label="rows")
    x = np.resize(rows, (n, d))
    e = data.draw(arrays(float, d, elements=_ENTRIES, fill=st.nothing()), label="e")
    batch, fortran, squares = _dot(x, e), _dot(np.asfortranarray(x), e), _dot(x, x)
    assert batch.shape == fortran.shape == squares.shape == (n,)
    for i in range(n):
        want = _bits(_k_order(x[i], e))
        assert _bits(_dot(x[i], e)) == want
        assert _bits(batch[i]) == want
        assert _bits(_dot(x[i:i + 1], e)[0]) == want
        assert _bits(fortran[i]) == want
        assert _bits(squares[i]) == _bits(_dot(x[i], x[i])) == _bits(_k_order(x[i], x[i]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.sampled_from([3, 15]))
def test_a_micro_state_has_one_mean_in_every_public_reader(seed, n, d):
    # the mean of a point read with the whole ensemble, alone, and as the substate factor of its row
    rng = np.random.default_rng(seed)
    if d == 3:
        pts = rng.normal(size=(n + 1, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        a, ens = spin(pts[n]), Ensemble(pts[:n], rng.dirichlet(np.ones(n)))
    else:
        a = rotated_spin_observables(*rng.uniform(0.0, 6.3, 2))[rng.integers(2)]
        psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        ens = Ensemble(np.einsum("ni,kij,nj->nk", psi.conj(), qmatrix.L_BASIS, psi).real,
                       rng.dirichlet(np.ones(n)))
    means = _mean(a, ens.points, "ensemble")
    assert [_bits(m) for m in means] == [_bits(mean_in_state(a, f)) for f in ens.points]
    if d == 3:
        sub = extend_to_substates(ens, [a.e])
        flip, minus_a = sub.column(a.e)[1], TwoLevelObservable(-a.e)
        for row, f, p in zip(sub.table.tolist(), ens.points, ens.probs.tolist()):
            assert (row if flip == 1 else row[::-1]) == [prob_plus(a, f) * p, prob_plus(minus_a, f) * p]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 15]), st.integers(1, 16), st.data())
def test_a_mean_is_read_on_a_micro_state_of_the_observable_length_only(d_obs, d_f, data):
    e, f = data.draw(_vectors(d_obs), label="e"), data.draw(_vectors(d_f), label="f")
    e0 = data.draw(st.floats(-1.0, 1.0), label="e0")
    obs = TwoLevelObservable(e, e0)
    if d_f not in (3, 15):
        with pytest.raises(ValueError, match=rf"^f must have 3 or 15 components, got shape \({d_f},\)$"):
            mean_in_state(obs, f)
    elif d_f != d_obs:
        with pytest.raises(DimensionMismatch,
                           match=rf"^f must be {d_obs}-component to match the observable, got {d_f} components$"):
            mean_in_state(obs, f)
    else:
        assert mean_in_state(obs, f) == _k_order(f, obs.e) + e0   # the k-order reading, to the bit
        assert mean_in_state(obs, list(f)) == mean_in_state(obs, f)

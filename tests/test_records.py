"""The package's records are immutable, slotted, and compare as they did as dataclasses."""
import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from ensembleq import (acceptance, correlations, dynamics, experiments, finite, fourstate, manifolds,
                       observables)
from ensembleq.validate import Record, ValueRecord


def _check():
    return experiments.Check("c", True, 0.0, 0.0, 1e-12)


def _sphere_point():
    return manifolds.Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])


# each factory builds a fresh record with the same fields on every call
FACTORIES = {
    manifolds.BlochState: lambda: manifolds.BlochState([0.1, 0.2, 0.3]),
    manifolds.Ensemble: _sphere_point,
    manifolds.SubstateEnsemble: lambda: manifolds.extend_to_substates(_sphere_point(), [[0.0, 0.0, 1.0]]),
    observables.TwoLevelObservable: lambda: observables.TwoLevelObservable(np.array([0.0, 0.0, 1.0])),
    observables.ProductObservable: lambda: observables.ProductObservable(np.array([0.5, 0.0, 0.0]), 0.1),
    correlations.WeightedEigenstateSum: lambda: correlations.WeightedEigenstateSum(()),
    correlations.SequenceEstimate: lambda: correlations.SequenceEstimate(0.5, 0.01, 100, 3),
    dynamics.Hamiltonian: lambda: dynamics.Hamiltonian(np.array([0.0, 0.0, 1.0])),
    dynamics.FlowParams: lambda: dynamics.FlowParams(3.0, 2.0),
    dynamics.Trajectory: lambda: dynamics.Trajectory(np.zeros(2), components=np.zeros((2, 3))),
    fourstate.OutcomeTable: lambda: fourstate.OutcomeTable(0.25, 0.25, 0.25, 0.25),
    fourstate.BellCheck: lambda: fourstate.BellCheck(0.5, 1.0, False),
    finite.Q2: lambda: finite.Q2(1, Fraction(1, 2)),
    finite.FiniteSpinSystem: lambda: finite.zn_system(4),
    finite.RegionDiagnostics:
        lambda: finite.realizable_region_check(finite.zn_system(4, probs=(Fraction(1, 4),) * 4)),
    finite.MeasurementOutcome: lambda: finite.cartesian_measure_sz([Fraction(1, 8)] * 8, "classical"),
    experiments.ExperimentConfig: lambda: experiments.ExperimentConfig("precession", {"dt": 0.01}),
    experiments.Check: _check,
    experiments.RunReport: lambda: experiments.RunReport(experiments.ExperimentConfig("x"), {}, [_check()]),
    acceptance.CriterionResult: lambda: acceptance.CriterionResult("c1", "name", [_check()], 0.1),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_type_is_covered():
    records = {cls for cls in _subclasses(Record) if cls is not ValueRecord}
    assert records == set(FACTORIES)


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_record_is_immutable_slotted_and_compares_as_before(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls
    field = cls.__slots__[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")
    if issubclass(cls, ValueRecord) or cls is finite.Q2:
        assert a == b and not a != b
        try:
            hashed = hash(a)
        except TypeError:   # a list, dict or array field, unhashable as in a dataclass
            pass
        else:
            assert hashed == hash(b)
    else:
        assert a == a and a != b


def test_repr_names_the_fields_and_hides_the_lazy_slot():
    traj = dynamics.Trajectory(np.zeros(1), matrices=np.eye(2)[None] / 2)
    assert repr(traj).startswith("Trajectory(times=array([0.]), matrices=")
    assert "_bloch" not in repr(traj)
    assert repr(fourstate.BellCheck(0.5, 1.0, False)) == "BellCheck(lhs=0.5, rhs=1.0, violated=False)"


@pytest.mark.parametrize("how", [pickle.dumps, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_records_refuse_pickle_and_copy(how):
    # restoring the slots would assign each field, so a record fails here, not on load
    for factory in FACTORIES.values():
        with pytest.raises(TypeError, match="cannot be pickled or copied"):
            how(factory())

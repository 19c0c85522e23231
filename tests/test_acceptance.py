"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion, prints its pass/fail line, and asserts both the
outcome and (where stated) the runtime budget. The statistical-control and
negative-control tests at the bottom exercise the harness itself, and the
sharing tests check that c6 and c7 report the experiments' own checks.
"""
import math

import numpy as np
import pytest

from ensembleq import acceptance, experiments
from ensembleq.acceptance import (
    basis_audit,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def _report(result, budget=None):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.cid}: {result.name} [{result.seconds:.2f}s] {result.detail}")
    assert result.passed, result.detail
    if budget is not None:
        assert result.seconds < budget, f"{result.cid} exceeded {budget}s"


def test_criterion_1_expectation_law():
    _report(criterion_1(), budget=10.0)


def test_criterion_2_conditional_2pt():
    _report(criterion_2(), budget=5.0)


def test_criterion_3_conditional_3pt():
    _report(criterion_3())


def test_criterion_4_monte_carlo():
    _report(criterion_4(), budget=60.0)


def test_criterion_5_bell():
    _report(criterion_5(), budget=30.0)


def test_criterion_6_unitary_dynamics():
    _report(criterion_6())


def test_criterion_7_open_dynamics():
    _report(criterion_7())


def test_criterion_8_four_state():
    _report(criterion_8())


def test_criterion_9_cartesian_spins():
    _report(criterion_9())


def test_criterion_10_pseudo_quantum():
    _report(criterion_10())


def test_basis_audit_positive():
    _report(basis_audit())


def test_basis_audit_negative_control():
    from ensembleq.qmatrix import L_BASIS

    corrupted = np.array(L_BASIS)
    corrupted[7, 0, 1] = 0.3
    result = basis_audit(corrupted)
    assert not result.passed            # reported, not raised
    assert "deviation" in result.detail


def test_monte_carlo_seed_variation():
    # statistical control: the Monte Carlo criterion stays within 5 sigma
    # across fresh streams
    for seed in range(10):
        result = criterion_4(seed=1000 + seed, n_samples=100_000)
        assert result.passed, result.detail


def test_run_all_matrix():
    results = acceptance.run_all(only={"c6", "c7"})
    assert [r.cid for r in results] == ["basis", "c6", "c7"]
    assert all(r.passed for r in results)


def _report_checks(name, tmp_path):
    config = experiments.ExperimentConfig(name, {}, seed=0, out_dir=str(tmp_path))
    return experiments.run(config).checks


def test_criterion_6_is_the_precession_report(tmp_path):
    assert criterion_6().checks == _report_checks("precession", tmp_path)


def test_criterion_7_contains_decoherence_and_syncoherence(tmp_path):
    checks = criterion_7().checks
    for name in ("decoherence", "syncoherence"):
        shared = _report_checks(name, tmp_path)
        assert shared and all(c in checks for c in shared), name


# small budgets: the check names and tolerances do not depend on them
_SMALL = {"c1": {"n_ensembles": 3}, "c2": {"n_trials": 5}, "c3": {"n_trials": 5, "n_rho": 2},
          "c4": {"n_samples": 1000}, "c5": {"n_trials": 5}, "c8": {"n_angles": 5},
          "c9": {"n_random": 10}}


@pytest.mark.parametrize("cid", ["basis", *acceptance.CRITERIA])
def test_criterion_checks_are_named_and_bounded(cid):
    fn = basis_audit if cid == "basis" else acceptance.CRITERIA[cid]
    result = fn(**_SMALL.get(cid, {}))
    names = [c.name for c in result.checks]
    assert names and len(set(names)) == len(names)
    assert all(math.isfinite(c.tolerance) and c.tolerance >= 0 for c in result.checks)

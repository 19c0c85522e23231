"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion, prints its pass/fail line, and asserts both the
outcome and (where stated) the runtime budget. The statistical-control and
negative-control tests at the bottom exercise the harness itself, and the
sharing tests check that c6 and c7 report the experiments' own checks, and
the planted mutants that each defect in the table fails the criterion that owns it.
"""
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ensembleq
from ensembleq import acceptance, experiments
from ensembleq.acceptance import CRITERIA, basis_audit


def _report(result, budget=None):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.cid}: {result.name} [{result.seconds:.2f}s] {result.detail}")
    assert result.passed, result.detail
    if budget is not None:
        assert result.seconds < budget, f"{result.cid} exceeded {budget}s"


def test_criterion_1_expectation_law():
    _report(CRITERIA["c1"](), budget=10.0)


def test_criterion_2_conditional_2pt():
    _report(CRITERIA["c2"](), budget=5.0)


def test_criterion_3_conditional_3pt():
    _report(CRITERIA["c3"]())


def test_criterion_4_monte_carlo():
    _report(CRITERIA["c4"](), budget=60.0)


def test_criterion_5_bell():
    _report(CRITERIA["c5"](), budget=30.0)


def test_criterion_6_unitary_dynamics():
    _report(CRITERIA["c6"]())


def test_criterion_7_open_dynamics():
    _report(CRITERIA["c7"]())


def test_criterion_8_four_state():
    _report(CRITERIA["c8"]())


def test_criterion_9_cartesian_spins():
    _report(CRITERIA["c9"]())


def test_criterion_10_pseudo_quantum():
    _report(CRITERIA["c10"]())


def test_basis_audit_positive():
    _report(basis_audit())


def test_basis_audit_negative_control(monkeypatch):
    from ensembleq import qmatrix

    corrupted = np.array(qmatrix.L_BASIS)
    corrupted[7, 0, 1] = 0.3
    monkeypatch.setattr(qmatrix, "L_BASIS", corrupted)
    result = basis_audit()
    assert not result.passed            # reported, not raised
    assert "deviation" in result.detail


def test_monte_carlo_seed_variation():
    # statistical control: the Monte Carlo criterion stays within 5 sigma
    # across fresh streams
    for seed in range(10):
        result = CRITERIA["c4"](seed=1000 + seed, n_samples=100_000)
        assert result.passed, result.detail


def test_run_all_matrix():
    results = acceptance.run_all(only={"c6", "c7"})
    assert [r.cid for r in results] == ["basis", "c6", "c7"]
    assert all(r.passed for r in results)


def _report_checks(name, tmp_path):
    config = experiments.ExperimentConfig(name, {}, seed=0, out_dir=str(tmp_path))
    return experiments.run(config).checks


def test_criterion_6_is_the_precession_report(tmp_path):
    assert CRITERIA["c6"]().checks == _report_checks("precession", tmp_path)


def test_criterion_7_contains_decoherence_and_syncoherence(tmp_path):
    checks = CRITERIA["c7"]().checks
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


# every criterion's checks in order, as (name, tolerance) at the _SMALL budgets;
# c4's tolerances are 5 standard errors of its seeded estimates
PINNED_CHECKS = {
    "basis": [
        ('max identity deviation', 1e-12),
    ],
    "c1": [
        ('max |sum p (e.f) - tr(A rho)|', 1e-12),
        ('grid has at least 2048 points', 0.0),
        ('sum p (2 P(+1) - 1) equals tr(A rho)', 1e-12),
        ('<A^1> equals the ensemble mean', 0.0),
        ('<A^2>', 0.0),
    ],
    "c2": [
        ('max |construction - tr({A,B}rho)/2|', 1e-12),
        ('max asymmetry under A <-> B', 1e-12),
    ],
    "c3": [
        ('max |expr - tr({{A,B},C}rho)/4|', 1e-12),
        ('max |<(A o B) o C> - expr|', 1e-12),
        ('(k, l, m, rho) breaking delta_kl rho_m', 0.0),
        ('measurement_chain([R, B]) value (R o X = R)', 0.0),
        ('<A o (-A)>', 0.0),
    ],
    "c4": [
        ('trial 0 2-chain within 5 standard errors', 0.1558354410417755),
        ('trial 0 3-chain within 5 standard errors', 0.15817749561843533),
        ('trial 1 2-chain within 5 standard errors', 0.07024624213817086),
        ('trial 1 3-chain within 5 standard errors', 0.1580397942816194),
        ('trial 2 2-chain within 5 standard errors', 0.14205696104091547),
        ('trial 2 3-chain within 5 standard errors', 0.15543249100255474),
        ('repeated chain value', 0.0),
        ('repeated chain standard error', 0.0),
        ('trial 2 3-chain at n_jobs=2 equals n_jobs=1', 0.0),
        ('R o B chain within 5 standard errors of 0', 0.1581926829057682),
    ],
    "c5": [
        ('correlator equals -cos(theta1-theta2)', 1e-12),
        ('violation at (pi/2, pi/4)', 1e-09),
        ('classical correlators satisfy the inequality', 0.0),
        ('lhs at (pi/2, pi/4)', 5e-06),
        ('rhs at (pi/2, pi/4)', 5e-06),
        ('classical pair correlator is -1 at theta = 0 and +1 at pi (coincident branch)', 0.0),
    ],
    "c6": [
        ('trajectory equals (cos 2wt, sin 2wt, 0)', 1e-08),
        ('purity drift', 1e-10),
        ('Hamiltonian recovered from the rotation', 1e-08),
        ('rotating the distribution commutes with reduction', 1e-12),
    ],
    "c7": [
        ('rho_k(t) equals rho_k(0) exp(D t)', 1e-08),
        ('P(t) equals P(0) exp(2 D t)', 1e-08),
        ('flow matches the two-exponential closed form (rel)', 1e-06),
        ('eps1 of (a, b) = (3, 2)', 0.0),
        ('eps2 of (a, b) = (3, 2)', 0.0),
        ('flow with both rates excited (d0 = 0.15) matches the closed form (rel)', 1e-06),
        ('time-dependent rate D(t) = -0.2 - 0.1 cos t at H = 0: rho(t) = rho(0) exp(-0.2t - 0.1 sin t)', 1e-08),
    ],
    "c8": [
        ('T1 of the entangled state', 0.0),
        ('T2 of the entangled state', 0.0),
        ('T3 of the entangled state', 0.0),
        ('weight w_pm', 0.0),
        ('weight w_mp', 0.0),
        ('weight w_pp', 0.0),
        ('weight w_mm', 0.0),
        ('<T2> equals cos(delta t)', 1e-06),
        ('chain 2-pt equals -cos(theta - phi) and tr({A,B}rho)/2', 1e-12),
        ('chain 3-pt equals tr({{A,B},C}rho)/4', 1e-12),
        ('exchange classes of psi-, psi+, basis 1, basis 4, mixed, rho-, (rho+ + rho-)/2', 0.0),
        ('four-ensemble of psi micro-states reduces to tr(L_m rho) of their mixture', 1e-12),
        ('entangled 15-vectors moved by the exchange map', 0.0),
        ('weights of diag(3/8, 3/8, 0, 1/4) from its T1, T2, T3', 0.0),
        ('(L1 + L2)/sqrt(2) is rejected by measurement_chain, prob_plus and moment', 0.0),
    ],
    "c9": [
        ('max |poly - sum <S>^2|', 1e-12),
        ('scenario purity before', 0.0),
        ('classical-rule purity', 0.0),
        ('classical rule flagged', 0.0),
        ('quantum-rule purity', 0.0),
        ('quantum pair sums all 1/2', 0.0),
    ],
    "c10": [
        ('N=4 summed-mean bound equals 1', 0.0),
        ('inradius equals cos(pi/N)', 1e-12),
        ('most negative effective weight', 0.0),
        ('alpha=beta=1 nonnegative weights cost total sqrt(2)', 0.0),
        ('reductions changing an expectation', 0.0),
        ('steps k carrying the pure state at 1 elsewhere than 1 + k', 0.0),
    ],
}


def test_every_criterion_keeps_its_checks():
    assert list(PINNED_CHECKS) == ["basis", *acceptance.CRITERIA]
    for cid, pinned in PINNED_CHECKS.items():
        fn = basis_audit if cid == "basis" else acceptance.CRITERIA[cid]
        got = [(c.name, c.tolerance) for c in fn(**_SMALL.get(cid, {})).checks]
        assert [name for name, _ in got] == [name for name, _ in pinned], cid
        assert [tol for _, tol in got] == pytest.approx([tol for _, tol in pinned], rel=1e-12, abs=0), cid


@pytest.mark.parametrize("cid, budget, message", [
    ("c1", {"n_ensembles": 0}, "n_ensembles must be >= 1"),
    ("c2", {"n_trials": 0}, "n_trials must be >= 1"),
    ("c2", {"n_trials": 2.5}, "n_trials must be an integer"),
    ("c3", {"n_rho": 0}, "n_rho must be >= 1"),
    ("c8", {"n_angles": -5}, "n_angles must be >= 1"),
    ("c9", {"n_random": 0}, "n_random must be >= 1"),
])
def test_criterion_budget_is_a_positive_count(cid, budget, message):
    # these passed on no trials, or died inside the body with TypeError or numpy's zero-size error
    with pytest.raises(ValueError, match=message):
        CRITERIA[cid](**budget)


@pytest.mark.parametrize("seed", [True, 1.5, -1])
def test_run_all_rejects_a_bad_seed_before_running(monkeypatch, seed):
    # True ran as seed 1 and 1.5 failed inside c4 with numpy's TypeError
    def must_not_run(**kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(acceptance, "basis_audit", must_not_run)
    for cid in acceptance.CRITERIA:
        monkeypatch.setitem(acceptance.CRITERIA, cid, must_not_run)
    with pytest.raises(experiments.ConfigError, match="seed"):
        acceptance.run_all(seed=seed)


# Planted defects, one a row: (module, source fragment, replacement, owning criterion).
# ``verify --criteria <owner>`` on a copy of the package with the defect must fail.
_MUTANTS = [
    ("manifolds.py", '"XY", "-YY", "YX"', '"XY", "YY", "YX"', "c8"),
    ("dynamics.py", "x2 = u0 - x1", "x2 = u0 + x1", "c7"),
    ("dynamics.py", "k1 = gen @ y + d_vals[i] * y", "k1 = gen @ y", "c7"),
    ("fourstate.py",
     "(1.0 + t1 + t2 + t3)\n    w_pm = 0.25 * (1.0 + t1 - t2 - t3)\n"
     "    w_mp = 0.25 * (1.0 - t1 + t2 - t3)\n    w_mm = 0.25 * (1.0 - t1 - t2 + t3)",
     "(1.0 + t1 - t2 + t3)\n    w_pm = 0.25 * (1.0 + t1 + t2 - t3)\n"
     "    w_mp = 0.25 * (1.0 - t1 - t2 - t3)\n    w_mm = 0.25 * (1.0 - t1 + t2 + t3)", "c8"),
    ("observables.py",
     "    if obs.dim == 15 and np.abs(obs.e @ STRUCTURE[15][0] @ obs.e).max() > INVARIANT_TOL:\n"
     '        raise ValueError(f"{name}: the operator does not square to 1 (spectrum is not +-1)")\n',
     "", "c8"),
    ("dynamics.py", "bound = 3.0 if rows.shape[1] == 15 else 1.0", "bound = 1.0", "c8"),
]


@pytest.mark.parametrize("module, fragment, replacement, owner", _MUTANTS,
                         ids=["L14-sign", "syncoherence-x2", "callable-rate-k1", "outcome-T2-signs",
                              "spin-square-test", "four-state-purity-bound"])
def test_planted_mutant_fails_its_criterion(tmp_path, module, fragment, replacement, owner):
    package = Path(ensembleq.__file__).parent
    shutil.copytree(package, tmp_path / "ensembleq", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "ensembleq" / module
    source = path.read_text(encoding="utf-8")
    assert source.count(fragment) == 1, "the planted fragment must name one place"
    path.write_text(source.replace(fragment, replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "ensembleq", "verify", "--criteria", owner],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and re.search(rf"^FAIL +{owner} ", proc.stdout, re.M), proc.stdout + proc.stderr

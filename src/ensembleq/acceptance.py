"""The acceptance suite: every shipped guarantee as a runnable check.

A criterion is one row of ``_TABLE``: (cid, name, body, default seed, default
budget, reseeded), where ``body(params, seed)`` returns the same Check records
an experiment report carries. The bodies live in ``experiments``, beside the
experiment bodies that c5-c10 take their checks from, so each tolerance is
defined once. ``CRITERIA[cid](seed=..., **budget)`` runs one criterion, timed;
``run_all`` runs the suite for ``ensembleq verify`` and the pytest acceptance
module, and its ``seed`` reseeds only the reseeded rows (c4 and c5). In
``run_all`` a criterion that raises fails, with one check naming the exception,
and the criteria after it still run; a direct call lets the exception through.
"""
from __future__ import annotations

import math
import time

import numpy as np

from . import dynamics, experiments, fourstate, qmatrix
from .experiments import Check, ConfigError, _exact_check, _merge_params, _tol_check
from .validate import ValueRecord, _brief


class CriterionResult(ValueRecord):
    __slots__ = ("cid", "name", "checks", "seconds")

    def __init__(self, cid: str, name: str, checks: list, seconds: float):
        self._set(cid, name, checks, seconds)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def detail(self) -> str:
        """The failing checks, one summary each; empty when the criterion passes."""
        return "; ".join(c.summary() for c in self.checks if not c.passed)


def _criterion(cid, name, body, seed=0, budget=None):
    """Criterion ``cid`` as a call: merge keyword overrides into the budget, run the body, time it."""
    def run(*, seed=seed, **params) -> CriterionResult:
        t0 = time.perf_counter()
        checks = body(_merge_params(budget or {}, params, cid), seed)
        return CriterionResult(cid, name, checks, time.perf_counter() - t0)
    return run


def _bell(params, seed):
    """The bell-sweep body, plus the marked lhs and rhs values and the classical
    correlator's coincident branch."""
    _, _, res, checks = experiments._bell_sweep({"classical_trials": params["n_trials"]}, seed)
    hidden = fourstate.symmetrized_hidden_ensemble(np.random.default_rng(seed))
    corr = fourstate.classical_pair_correlator(hidden)
    return checks + [
        _tol_check("lhs at (pi/2, pi/4)", res["lhs_at_mark"], 0.70711, 5e-6),
        _tol_check("rhs at (pi/2, pi/4)", res["rhs_at_mark"], 0.29289, 5e-6),
        _exact_check("classical pair correlator is -1 at theta = 0 and +1 at pi (coincident branch)",
                     (corr(0.0), corr(math.pi)) == (-1.0, 1.0), True),
    ]


def _open_dynamics(params, seed):
    """The decoherence and syncoherence bodies, plus the flow's rates and a
    time-dependent rate.

    At the default d0 = eps2 (1 - P0) the eps1 mode is not excited; the
    both-rates row starts at d0 = 0.15, where both modes carry 0.05 of 1 - P0.
    The last row runs the callable-rate integrator at H = 0, where the flow
    d rho/dt = D(t) rho integrates to rho(0) exp of the integral of D."""
    _, _, sync, sync_checks = experiments._syncoherence({}, seed)
    both = experiments._syncoherence({"d0": 0.15}, seed)[2]
    rho0 = np.array([0.4, -0.2, 0.5])
    timed = dynamics.integrate_open(rho0, None, lambda bloch, t: -0.2 - 0.1 * math.cos(t), (0.0, 5.0), 0.005)
    decayed = rho0 * np.exp(-0.2 * timed.times - 0.1 * np.sin(timed.times))[:, None]
    decay_gap = float(np.abs(timed.bloch - decayed).max())
    return experiments._decoherence({}, seed)[3] + sync_checks + [
        _exact_check("eps1 of (a, b) = (3, 2)", sync["eps1"], 2.0),
        _exact_check("eps2 of (a, b) = (3, 2)", sync["eps2"], 1.0),
        _tol_check("flow with both rates excited (d0 = 0.15) matches the closed form (rel)",
                   both["max_rel_error"], 0.0, 1e-6),
        _tol_check("time-dependent rate D(t) = -0.2 - 0.1 cos t at H = 0: "
                   "rho(t) = rho(0) exp(-0.2t - 0.1 sin t)", decay_gap, 0.0, 1e-8),
    ]


# (cid, name, body, default seed, default budget, reseeded by run_all(seed))
_TABLE = [
    ("c1", "expectation law: ensemble sum vs trace rule",
     experiments._expectation_law, 101, {"n_ensembles": 1000, "resolution": 32}, False),
    ("c2", "conditional 2-pt: oracle equality and symmetry",
     experiments._conditional_2pt, 202, {"n_trials": 1000}, False),
    ("c3", "conditional 3-pt: oracle equality and exact orthogonal-spin identity",
     experiments._conditional_3pt, 303, {"n_trials": 1000, "n_rho": 100}, False),
    ("c4", "Monte Carlo convergence to closed forms (5 sigma), repeated chain exact",
     experiments._mc_convergence, 404, {"n_samples": 1_000_000}, True),
    ("c5", "Bell inequality: quantum violation, classical compliance",
     _bell, 505, {"n_trials": 1000}, True),
    ("c6", "unitary dynamics: precession, purity drift, Hamiltonian extraction",
     lambda p, seed: experiments._precession(p, seed)[3], 0, {"omega": 1.0, "dt": 0.002}, False),
    ("c7", "open dynamics: constant-rate decay and syncoherence closed form",
     _open_dynamics, 0, {}, False),
    ("c8", "four-state: entangled values, -cos correlation, interference, exchange classes",
     experiments._four_state, 808, {"n_angles": 100}, False),
    ("c9", "cartesian spins: purity polynomial identity and measurement rules",
     experiments._cartesian_identities, 909, {"n_random": 10_000}, False),
    ("c10", "pseudo-quantum: N=4 bound, exact reduction identities, negativity witness",
     lambda p, seed: experiments._pseudo_quantum_region({}, 0)[3]
     + experiments._reduction_identities(p, seed), 7, {}, False),
]
CRITERIA = {cid: _criterion(cid, name, body, seed, budget) for cid, name, body, seed, budget, _ in _TABLE}
_RESEEDED = frozenset(cid for cid, *_, reseeded in _TABLE if reseeded)
_NAMES = {"basis": "L-basis identities (square, trace, orthogonality)",
          **{cid: name for cid, name, *_ in _TABLE}}

basis_audit = _criterion(
    "basis", _NAMES["basis"],
    lambda p, seed: [_tol_check("max identity deviation", qmatrix.basis_identity_error(), 0.0, 1e-12)])


def run_all(seed: int | None = None, only=None) -> list[CriterionResult]:
    """Run the basis audit and the acceptance criteria (all, or the ids in ``only``).

    ``seed`` reseeds the rows marked reseeded; the others keep their default seeds.
    A seed that is not a nonnegative integer, or an id in ``only`` that names
    no criterion, raises ConfigError before any runs. A criterion that raises
    an Exception fails with one check naming it, and the rest still run.
    """
    if seed is not None:
        seed = experiments.check_seed(seed)
    unknown = sorted(set(only or ()) - {"basis", *CRITERIA})
    if unknown:
        raise ConfigError(f"unknown criteria {_brief(unknown)}; choose from {list(CRITERIA)}")
    runs = [("basis", basis_audit)] + [(cid, fn) for cid, fn in CRITERIA.items()
                                        if only is None or cid in only]
    return [_caught(cid, fn, seed if cid in _RESEEDED else None) for cid, fn in runs]


def _caught(cid: str, run, seed) -> CriterionResult:
    """``run()``, given ``seed`` unless it is None; if that raises, a failing result whose
    one check names the exception."""
    t0 = time.perf_counter()
    try:
        return run() if seed is None else run(seed=seed)
    except Exception as exc:
        raised = Check(f"raised {type(exc).__name__}: {exc}", False, math.nan, 0.0, 0.0)
        return CriterionResult(cid, _NAMES[cid], [raised], time.perf_counter() - t0)

"""The acceptance suite: every shipped guarantee as a runnable check.

Each criterion returns a CriterionResult holding the experiments' Check records;
c5-c10 take their checks from the experiment bodies (c8 from interference, c9
from the cartesian-spins results, c10 from pseudo-quantum-region).
``run_all`` executes the suite and is what both the CLI ``verify`` command and
the pytest acceptance module drive. Monte Carlo criteria take a seed so
statistical controls can rerun them on fresh streams.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import correlations, experiments, finite, fourstate, manifolds, observables, qmatrix
from .experiments import Check, ConfigError, _exact_check, _stderr_check, _tol_check


@dataclass
class CriterionResult:
    cid: str
    name: str
    checks: list
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def detail(self) -> str:
        """The failing checks, one summary each; empty when the criterion passes."""
        return "; ".join(c.summary() for c in self.checks if not c.passed)


CRITERIA = {}


def _criterion(cid, name, register=True):
    """Time a function returning Checks as criterion ``cid``; add it to CRITERIA."""
    def wrap(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            checks = fn(*args, **kwargs)
            return CriterionResult(cid, name, checks, time.perf_counter() - t0)

        if register:
            CRITERIA[cid] = timed
        return timed
    return wrap


def _random_unit(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_bloch(rng):
    return _random_unit(rng) * rng.uniform(0.0, 1.0)


def _random_observables(rng, k):
    return [observables.TwoLevelObservable(_random_unit(rng)) for _ in range(k)]


@_criterion("c1", "expectation law: ensemble sum vs trace rule")
def criterion_1(seed: int = 101, n_ensembles: int = 1000, resolution: int = 32) -> CriterionResult:
    """Expectation law: ensemble average equals the trace rule on grid ensembles."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    n_points = None
    for _ in range(n_ensembles):
        axis = _random_unit(rng)
        kappa = rng.uniform(0.0, 3.0)

        def density(points, axis=axis, kappa=kappa):
            return np.exp(kappa * (points @ axis))

        ens = manifolds.grid_ensemble(resolution, density)
        n_points = len(ens)
        e = _random_unit(rng)
        classical = float(ens.probs @ (ens.points @ e))
        rho = qmatrix.density_from_bloch(manifolds.reduce_ensemble(ens).rho)
        oracle = qmatrix.qm_expectation(qmatrix.operator_from_direction(e), rho)
        worst = max(worst, abs(classical - oracle))
    return [
        _tol_check("max |sum p (e.f) - tr(A rho)|", worst, 0.0, 1e-12),
        Check("grid has at least 2048 points", n_points >= 2048, float(n_points), 2048.0, 0.0),
    ]


@_criterion("c2", "conditional 2-pt: oracle equality and symmetry")
def criterion_2(seed: int = 202, n_trials: int = 1000) -> CriterionResult:
    """Conditional 2-point correlation: construction equals the anticommutator value."""
    rng = np.random.default_rng(seed)
    worst_eq = 0.0
    worst_sym = 0.0
    for _ in range(n_trials):
        a, b = _random_observables(rng, 2)
        rho_vec = _random_bloch(rng)
        val = correlations.conditional_correlation_2pt(a, b, rho_vec)
        rev = correlations.conditional_correlation_2pt(b, a, rho_vec)
        oracle = qmatrix.anticommutator_expectation(
            observables.operator_of(a), observables.operator_of(b),
            qmatrix.density_from_bloch(rho_vec),
        )
        worst_eq = max(worst_eq, abs(val - oracle))
        worst_sym = max(worst_sym, abs(val - rev))
    return [
        _tol_check("max |construction - tr({A,B}rho)/2|", worst_eq, 0.0, 1e-12),
        _tol_check("max asymmetry under A <-> B", worst_sym, 0.0, 1e-12),
    ]


@_criterion("c3", "conditional 3-pt: oracle equality and exact orthogonal-spin identity")
def criterion_3(seed: int = 303, n_trials: int = 1000, n_rho: int = 100) -> CriterionResult:
    """Conditional 3-point correlation: oracle equality plus the orthogonal-spin identity."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        a, b, c = _random_observables(rng, 3)
        rho_vec = _random_bloch(rng)
        val = correlations.conditional_correlation_3pt(a, b, c, rho_vec)
        oracle = qmatrix.nested_anticommutator_expectation(
            observables.operator_of(a), observables.operator_of(b), observables.operator_of(c),
            qmatrix.density_from_bloch(rho_vec),
        )
        worst = max(worst, abs(val - oracle))
    spins = [observables.basis_spin(k) for k in (1, 2, 3)]
    products = [(k, l, m, correlations.conditional_product(
                    correlations.conditional_product(spins[k], spins[l]), spins[m]))
                for k, l, m in itertools.product(range(3), repeat=3)]
    mismatches = 0
    for _ in range(n_rho):
        rho_vec = _random_bloch(rng)
        for k, l, m, prod in products:
            want = rho_vec[m] if k == l else 0.0
            mismatches += int(observables.expectation(prod, rho_vec) != want)
    return [
        _tol_check("max |expr - tr({{A,B},C}rho)/4|", worst, 0.0, 1e-12),
        _exact_check("(k, l, m, rho) breaking delta_kl rho_m", mismatches, 0),
    ]


@_criterion("c4", "Monte Carlo convergence to closed forms (5 sigma), repeated chain exact")
def criterion_4(seed: int = 404, n_samples: int = 1_000_000) -> CriterionResult:
    """Monte Carlo sequences reproduce the closed forms within 5 standard errors."""
    rng = np.random.default_rng(seed)
    checks = []
    for trial in range(3):
        a, b, c = _random_observables(rng, 3)
        rho_vec = _random_bloch(rng)
        pairs = [
            ([a, b], correlations.conditional_correlation_2pt(a, b, rho_vec)),
            ([a, b, c], correlations.conditional_correlation_3pt(a, b, c, rho_vec)),
        ]
        for chain, closed in pairs:
            est = correlations.simulate_sequences(chain, rho_vec, n_samples, seed + trial)
            name = f"trial {trial} {len(chain)}-chain within 5 standard errors"
            checks.append(_stderr_check(name, est, closed))
    rho_vec = _random_bloch(np.random.default_rng(seed + 99))
    a = observables.TwoLevelObservable(np.array([1.0, 0.0, 0.0]))
    rep = correlations.simulate_sequences([a, a], rho_vec, n_samples, seed)
    return checks + [
        _exact_check("repeated chain value", rep.value, 1.0),
        _exact_check("repeated chain standard error", rep.stderr, 0.0),
    ]


@_criterion("c5", "Bell inequality: quantum violation, classical compliance")
def criterion_5(seed: int = 505, n_trials: int = 1000) -> CriterionResult:
    """Bell harness: the bell-sweep body, plus the marked lhs and rhs values."""
    _, _, results, checks = experiments._bell_sweep({"classical_trials": n_trials}, seed)
    return checks + [
        _tol_check("lhs at (pi/2, pi/4)", results["lhs_at_mark"], 0.70711, 5e-6),
        _tol_check("rhs at (pi/2, pi/4)", results["rhs_at_mark"], 0.29289, 5e-6),
    ]


@_criterion("c6", "unitary dynamics: precession, purity drift, Hamiltonian extraction")
def criterion_6(omega: float = 1.0, dt: float = 0.002) -> CriterionResult:
    """Unitary dynamics: the precession body (closed form, purity drift, H recovery)."""
    return experiments._precession({"omega": omega, "dt": dt}, 0)[3]


@_criterion("c7", "open dynamics: constant-rate decay and syncoherence closed form")
def criterion_7() -> CriterionResult:
    """Open dynamics: the decoherence and syncoherence bodies, plus the flow's rates."""
    _, _, sync, sync_checks = experiments._syncoherence({}, 0)
    return experiments._decoherence({}, 0)[3] + sync_checks + [
        _exact_check("eps1 of (a, b) = (3, 2)", sync["eps1"], 2.0),
        _exact_check("eps2 of (a, b) = (3, 2)", sync["eps2"], 1.0),
    ]


@_criterion("c8", "four-state: entangled values, -cos correlation, interference, exchange classes")
def criterion_8(seed: int = 808, n_angles: int = 100) -> CriterionResult:
    """Four-state checks: entangled state values, rotated correlation, interference, exchange."""
    rho_m = fourstate.entangled_state(-1)
    t_vals = [qmatrix.qm_expectation(qmatrix.l_operator(m), rho_m) for m in (1, 2, 3)]
    table = fourstate.outcomes_from_t(*t_vals)
    checks = [_exact_check(f"T{m} of the entangled state", t, want)
              for m, t, want in zip((1, 2, 3), t_vals, (0.0, 0.0, -1.0))]
    checks += [_exact_check(f"weight w_{k}", getattr(table, f"w_{k}"), want)
               for k, want in (("pm", 0.5), ("mp", 0.5), ("pp", 0.0), ("mm", 0.0))]
    rng = np.random.default_rng(seed)
    bloch = fourstate.entangled_bloch(-1)
    worst = 0.0
    for _ in range(n_angles):
        th, ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
        worst = max(
            worst,
            abs(fourstate.rotated_spin_correlation(th, ph, bloch) + math.cos(th - ph)),
        )
    psi_m = fourstate.entangled_psi(-1)
    psi_p = fourstate.entangled_psi(1)
    mixed = (psi_m + psi_p) / np.linalg.norm(psi_m + psi_p)
    classes = [fourstate.is_exchange_symmetric(psi) for psi in
               (psi_m, psi_p, fourstate.basis_psi(1), fourstate.basis_psi(4), mixed)]
    return checks + experiments._interference({}, 0)[3] + [
        _tol_check("max |corr + cos(theta - phi)|", worst, 0.0, 1e-12),
        _exact_check("exchange classes of psi-, psi+, basis 1, basis 4, mixed",
                     classes == ["fermionic", "bosonic", "bosonic", "bosonic", "forbidden"], True),
    ]


@_criterion("c9", "cartesian spins: purity polynomial identity and measurement rules")
def criterion_9(seed: int = 909, n_random: int = 10_000) -> CriterionResult:
    """Cartesian spins: purity polynomial identity and the cartesian-spins scenario, exactly."""
    rng = np.random.default_rng(seed)
    p = rng.random((n_random, 8))
    p = p / p.sum(axis=1, keepdims=True)
    direct = finite.cartesian_purity(p)
    spin_means = p @ np.array(finite.SPIN_VALUES, dtype=float).T
    poly_err = float(np.abs(direct - (spin_means ** 2).sum(axis=1)).max())
    res = experiments._cartesian_spins({}, seed)[2]
    return [
        _tol_check("max |poly - sum <S>^2|", poly_err, 0.0, 1e-12),
        _exact_check("scenario purity before", res["purity_before"], Fraction(1, 3)),
        _exact_check("classical-rule purity", res["purity_classical"], 3),
        _exact_check("classical rule flagged", res["classical_flagged"], True),
        _exact_check("quantum-rule purity", res["purity_quantum"], 1),
        _exact_check("quantum pair sums all 1/2",
                     all(s == Fraction(1, 2) for s in res["pair_sums"]), True),
    ]


@_criterion("c10", "pseudo-quantum: N=4 bound, exact reduction identities, negativity witness")
def criterion_10() -> CriterionResult:
    """Pseudo-quantum system: the pseudo-quantum-region body, plus exact reduction identities."""
    rng = np.random.default_rng(7)
    changed = 0
    for _ in range(50):
        raw = [Fraction(int(x), 64) for x in rng.integers(0, 9, size=8)]
        raw[-1] = 1 - sum(raw[:-1])
        if raw[-1] < 0:
            continue
        sys8 = finite.zn_system(8, probs=tuple(raw), exact=True)
        alpha = Fraction(int(rng.integers(-3, 4)), 4)
        beta = Fraction(int(rng.integers(-3, 4)), 4)
        eff = finite.integrate_out(sys8, alpha, beta)
        changed += sys8.expectations() != eff.expectations()
    return experiments._pseudo_quantum_region({}, 0)[3] + [
        _exact_check("reductions changing an expectation", changed, 0),
    ]


@_criterion("basis", "L-basis identities (square, trace, orthogonality)", register=False)
def basis_audit(basis=None) -> CriterionResult:
    """Audit the 4x4 basis identities; reports failure for a corrupted basis."""
    return [_tol_check("max identity deviation", qmatrix.basis_identity_error(basis), 0.0, 1e-12)]


def run_all(seed: int | None = None, only=None) -> list[CriterionResult]:
    """Run the acceptance criteria (all, or the ids in ``only``).

    ``seed`` reseeds the Monte Carlo criteria; closed-form criteria ignore it.
    A negative ``seed``, or an id in ``only`` that names no criterion, raises
    ConfigError before any runs.
    """
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    unknown = sorted(set(only or ()) - {"basis", *CRITERIA})
    if unknown:
        raise ConfigError(f"unknown criteria {unknown}; choose from {list(CRITERIA)}")
    results = [basis_audit()]
    for cid, fn in CRITERIA.items():
        if only is not None and cid not in only:
            continue
        if seed is not None and cid in ("c4", "c5"):
            results.append(fn(seed=seed))
        else:
            results.append(fn())
    return results

"""The acceptance suite: every shipped guarantee as a runnable check.

Each criterion function performs the full check at its stated tolerance and
returns a CriterionResult; ``run_all`` executes the suite and is what both the
CLI ``verify`` command and the pytest acceptance module drive. Monte Carlo
criteria take a seed so statistical controls can rerun them on fresh streams.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import correlations, dynamics, finite, fourstate, manifolds, observables, qmatrix
from .finite import Q2, HALF_SQRT2


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(cid, name, passed, detail, t0) -> CriterionResult:
    return CriterionResult(cid, name, bool(passed), detail, time.perf_counter() - t0)


def _random_unit(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, 1.0)


def criterion_1(seed: int = 101, n_ensembles: int = 1000, resolution: int = 32) -> CriterionResult:
    """Expectation law: ensemble average equals the trace rule on grid ensembles."""
    t0 = time.perf_counter()
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
    ok = worst <= 1e-12 and n_points >= 2048
    return _result(
        "c1",
        "expectation law: ensemble sum vs trace rule",
        ok,
        f"max |sum p (e.f) - tr(A rho)| = {worst:.3e} over {n_ensembles} grids of {n_points} points",
        t0,
    )


def criterion_2(seed: int = 202, n_trials: int = 1000) -> CriterionResult:
    """Conditional 2-point correlation: construction equals the anticommutator value."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_eq = 0.0
    worst_sym = 0.0
    for _ in range(n_trials):
        a = observables.TwoLevelObservable(_random_unit(rng))
        b = observables.TwoLevelObservable(_random_unit(rng))
        rho_vec = _random_bloch(rng)
        val = correlations.conditional_correlation_2pt(a, b, rho_vec)
        rev = correlations.conditional_correlation_2pt(b, a, rho_vec)
        oracle = qmatrix.anticommutator_expectation(
            observables.operator_of(a), observables.operator_of(b),
            qmatrix.density_from_bloch(rho_vec),
        )
        worst_eq = max(worst_eq, abs(val - oracle))
        worst_sym = max(worst_sym, abs(val - rev))
    ok = worst_eq <= 1e-12 and worst_sym <= 1e-12
    return _result(
        "c2",
        "conditional 2-pt: oracle equality and symmetry",
        ok,
        f"max |construction - tr({{A,B}}rho)/2| = {worst_eq:.3e}, max asymmetry = {worst_sym:.3e}",
        t0,
    )


def criterion_3(seed: int = 303, n_trials: int = 1000, n_rho: int = 100) -> CriterionResult:
    """Conditional 3-point correlation: oracle equality plus the orthogonal-spin identity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        a = observables.TwoLevelObservable(_random_unit(rng))
        b = observables.TwoLevelObservable(_random_unit(rng))
        c = observables.TwoLevelObservable(_random_unit(rng))
        rho_vec = _random_bloch(rng)
        val = correlations.conditional_correlation_3pt(a, b, c, rho_vec)
        oracle = qmatrix.nested_anticommutator_expectation(
            observables.operator_of(a), observables.operator_of(b), observables.operator_of(c),
            qmatrix.density_from_bloch(rho_vec),
        )
        worst = max(worst, abs(val - oracle))
    exact_ok = True
    for _ in range(n_rho):
        rho_vec = _random_bloch(rng)
        for k in range(1, 4):
            for l in range(1, 4):
                for m in range(1, 4):
                    prod = correlations.conditional_product(
                        correlations.conditional_product(
                            observables.basis_spin(k), observables.basis_spin(l)
                        ),
                        observables.basis_spin(m),
                    )
                    got = observables.expectation(prod, rho_vec)
                    want = rho_vec[m - 1] if k == l else 0.0
                    if got != want:
                        exact_ok = False
    ok = worst <= 1e-12 and exact_ok
    return _result(
        "c3",
        "conditional 3-pt: oracle equality and exact orthogonal-spin identity",
        ok,
        f"max |expr - tr({{{{A,B}},C}}rho)/4| = {worst:.3e}; "
        f"delta_kl rho_m identity exact: {exact_ok}",
        t0,
    )


def criterion_4(seed: int = 404, n_samples: int = 1_000_000) -> CriterionResult:
    """Monte Carlo sequences reproduce the closed forms within 5 standard errors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    checked = 0
    for trial in range(3):
        a = observables.TwoLevelObservable(_random_unit(rng))
        b = observables.TwoLevelObservable(_random_unit(rng))
        c = observables.TwoLevelObservable(_random_unit(rng))
        rho_vec = _random_bloch(rng)
        pairs = [
            ([a, b], correlations.conditional_correlation_2pt(a, b, rho_vec)),
            ([a, b, c], correlations.conditional_correlation_3pt(a, b, c, rho_vec)),
        ]
        for chain, closed in pairs:
            est = correlations.simulate_sequences(chain, rho_vec, n_samples, seed + trial)
            checked += 1
            if est.stderr > 0 and abs(est.value - closed) > 5.0 * est.stderr:
                failures.append((chain, est.value, closed, est.stderr))
    rho_vec = _random_bloch(np.random.default_rng(seed + 99))
    a = observables.TwoLevelObservable(np.array([1.0, 0.0, 0.0]))
    rep = correlations.simulate_sequences([a, a], rho_vec, n_samples, seed)
    repeated_ok = rep.value == 1.0 and rep.stderr == 0.0
    ok = not failures and repeated_ok
    return _result(
        "c4",
        "Monte Carlo convergence to closed forms (5 sigma), repeated chain exact",
        ok,
        f"{checked} chains at n = {n_samples} within 5 se: {not failures}; "
        f"repeated chain returned {rep.value} +- {rep.stderr}",
        t0,
    )


def criterion_5(seed: int = 505, n_trials: int = 1000) -> CriterionResult:
    """Bell harness: quantum violation at (pi/2, pi/4); substate correlators comply."""
    t0 = time.perf_counter()
    quantum = fourstate.quantum_pair_correlator(fourstate.entangled_bloch(-1))
    check = fourstate.bell_check(quantum, math.pi / 2.0, math.pi / 4.0)
    margin = check.lhs - check.rhs
    quantum_ok = (
        check.violated
        and margin > 0.414 - 1e-9
        and abs(check.lhs - 0.70711) < 5e-6
        and abs(check.rhs - 0.29289) < 5e-6
    )
    rng = np.random.default_rng(seed)
    classical_ok = True
    worst_excess = -math.inf
    for _ in range(n_trials):
        ens = fourstate.symmetrized_hidden_ensemble(rng, n_base=3, order=int(rng.integers(3, 7)))
        corr = fourstate.classical_pair_correlator(ens)
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        res = fourstate.bell_check(corr, t1, t2)
        worst_excess = max(worst_excess, res.lhs - res.rhs)
        if res.violated:
            classical_ok = False
    ok = quantum_ok and classical_ok
    return _result(
        "c5",
        "Bell inequality: quantum violation, classical compliance",
        ok,
        f"lhs = {check.lhs:.5f}, rhs = {check.rhs:.5f}, margin = {margin:.5f}; "
        f"classical worst lhs-rhs = {worst_excess:.3e} over {n_trials} ensembles",
        t0,
    )


def criterion_6(omega: float = 1.0, dt: float = 0.002) -> CriterionResult:
    """Unitary dynamics: precession closed form, purity drift, H recovery."""
    t0 = time.perf_counter()
    ham = dynamics.Hamiltonian(np.array([0.0, 0.0, omega]))
    traj = dynamics.integrate_von_neumann(np.array([1.0, 0.0, 0.0]), ham, (0.0, 10.0), dt)
    ref = np.column_stack(
        [np.cos(2.0 * omega * traj.times), np.sin(2.0 * omega * traj.times), np.zeros_like(traj.times)]
    )
    traj_err = float(np.abs(traj.bloch - ref).max())
    purity = traj.purity
    drift = float(np.abs(purity - purity[0]).max())

    def s_of_t(t):
        return dynamics.rotation_from_generator(np.array([0.0, 0.0, -omega * t]))

    h_rec = dynamics.hamiltonian_from_rotation(s_of_t, t=0.7)
    h_err = float(np.abs(h_rec - np.array([0.0, 0.0, omega])).max())
    ok = traj_err <= 1e-8 and drift <= 1e-10 and h_err <= 1e-8
    return _result(
        "c6",
        "unitary dynamics: precession, purity drift, Hamiltonian extraction",
        ok,
        f"trajectory err = {traj_err:.2e}, purity drift = {drift:.2e}, H recovery err = {h_err:.2e}",
        t0,
    )


def criterion_7() -> CriterionResult:
    """Open dynamics: exponential decay closed form and the syncoherence flow."""
    t0 = time.perf_counter()
    d_const = -0.35
    rho0 = np.array([0.4, -0.2, 0.5])
    traj = dynamics.integrate_open(rho0, None, d_const, (0.0, 5.0), 0.005)
    decay = np.exp(d_const * traj.times)
    rho_err = float(np.abs(traj.bloch - rho0[None, :] * decay[:, None]).max())
    p_err = float(np.abs(traj.purity - float(rho0 @ rho0) * np.exp(2 * d_const * traj.times)).max())
    params = dynamics.FlowParams(3.0, 2.0)
    rates_ok = params.rates == (2.0, 1.0)
    sync = dynamics.syncoherence_flow(0.9, 0.1, params, (0.0, 6.0), 0.001)
    p_ref, d_ref = dynamics.syncoherence_closed_form(0.9, 0.1, params, sync.times)
    rel = lambda x, r: np.abs(x - r) / (np.abs(r) + 1e-12)  # noqa: E731
    sync_err = max(float(rel(sync.bloch[:, 0], p_ref).max()), float(rel(sync.d_values, d_ref).max()))
    ok = rho_err <= 1e-8 and p_err <= 1e-8 and rates_ok and sync_err <= 1e-6
    return _result(
        "c7",
        "open dynamics: constant-rate decay and syncoherence closed form",
        ok,
        f"decay err = {rho_err:.2e}, purity err = {p_err:.2e}, "
        f"rates (2,1): {rates_ok}, sync rel err = {sync_err:.2e}",
        t0,
    )


def criterion_8(seed: int = 808, n_angles: int = 100) -> CriterionResult:
    """Four-state checks: entangled state values, rotated correlation, interference, exchange."""
    t0 = time.perf_counter()
    rho_m = fourstate.entangled_state(-1)
    t_vals = [qmatrix.qm_expectation(qmatrix.l_operator(m), rho_m) for m in (1, 2, 3)]
    table = fourstate.outcomes_from_t(*t_vals)
    exact_ok = (
        t_vals[0] == 0.0
        and t_vals[1] == 0.0
        and t_vals[2] == -1.0
        and table.w_pm == 0.5
        and table.w_mp == 0.5
        and table.w_pp == 0.0
        and table.w_mm == 0.0
    )
    rng = np.random.default_rng(seed)
    bloch = fourstate.entangled_bloch(-1)
    worst = 0.0
    for _ in range(n_angles):
        th, ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
        worst = max(
            worst,
            abs(fourstate.rotated_spin_correlation(th, ph, bloch) + math.cos(th - ph)),
        )
    times = np.linspace(0.0, 2.0 * math.pi, 97)
    interf_err = max(
        abs(fourstate.interference_evolution(1.0, float(t))[1] - math.cos(t)) for t in times
    )
    psi_m = fourstate.entangled_psi(-1)
    psi_p = fourstate.entangled_psi(1)
    mixed = (psi_m + psi_p) / np.linalg.norm(psi_m + psi_p)
    exchange_ok = (
        fourstate.is_exchange_symmetric(psi_m) == "fermionic"
        and fourstate.is_exchange_symmetric(psi_p) == "bosonic"
        and fourstate.is_exchange_symmetric(fourstate.basis_psi(1)) == "bosonic"
        and fourstate.is_exchange_symmetric(fourstate.basis_psi(4)) == "bosonic"
        and fourstate.is_exchange_symmetric(mixed) == "forbidden"
    )
    ok = exact_ok and worst <= 1e-12 and interf_err <= 1e-6 and exchange_ok
    return _result(
        "c8",
        "four-state: entangled values, -cos correlation, interference, exchange classes",
        ok,
        f"exact T/W values: {exact_ok}; max |corr + cos| = {worst:.2e}; "
        f"interference err = {interf_err:.2e}; exchange table: {exchange_ok}",
        t0,
    )


def criterion_9(seed: int = 909, n_random: int = 10_000) -> CriterionResult:
    """Cartesian spins: purity polynomial identity and the measurement-rule scenario."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    p = rng.random((n_random, 8))
    p = p / p.sum(axis=1, keepdims=True)
    direct = finite.cartesian_purity(p)
    sx = p @ np.array(finite.SPIN_VALUES[0], dtype=float)
    sy = p @ np.array(finite.SPIN_VALUES[1], dtype=float)
    sz = p @ np.array(finite.SPIN_VALUES[2], dtype=float)
    poly_err = float(np.abs(direct - (sx ** 2 + sy ** 2 + sz ** 2)).max())
    third = Fraction(1, 3)
    scenario = [third, 0, 0, 0, third, 0, 0, third]
    purity_before = finite.cartesian_purity(scenario)
    classical = finite.cartesian_measure_sz(scenario, "classical")
    quantum = finite.cartesian_measure_sz(scenario, "quantum")
    scenario_ok = (
        purity_before == third
        and classical.purity_after == 3
        and classical.constraint_violated
        and quantum.purity_after == 1
        and all(s == Fraction(1, 2) for s in quantum.pair_sums)
    )
    ok = poly_err <= 1e-12 and scenario_ok
    return _result(
        "c9",
        "cartesian spins: purity polynomial identity and measurement rules",
        ok,
        f"max |poly - sum<S>^2| = {poly_err:.3e} over {n_random} random p; "
        f"scenario P'=1/3, classical P=3 flagged, quantum P=1 with pair sums 1/2: {scenario_ok}",
        t0,
    )


def criterion_10() -> CriterionResult:
    """Pseudo-quantum system: exact region bound, reduction identities, negativity."""
    t0 = time.perf_counter()
    region4 = finite.realizable_region_check(finite.zn_system(4, exact=True))
    bound_ok = region4.max_mean_sum == Q2(1)
    rng = np.random.default_rng(7)
    preserved = True
    for _ in range(50):
        raw = [Fraction(int(x), 64) for x in rng.integers(0, 9, size=8)]
        raw[-1] = 1 - sum(raw[:-1])
        if raw[-1] < 0:
            continue
        sys8 = finite.zn_system(8, probs=tuple(raw), exact=True)
        alpha = Fraction(int(rng.integers(-3, 4)), 4)
        beta = Fraction(int(rng.integers(-3, 4)), 4)
        eff = finite.integrate_out(sys8, alpha, beta)
        if sys8.expectations() != eff.expectations():
            preserved = False
    pure_diag = finite.pure_system(8, 1, exact=True)
    eff_half = finite.integrate_out(pure_diag)
    min_weight = min(eff_half.probs)
    neg_ok = min_weight == -HALF_SQRT2 * Fraction(1, 2)
    eff_11 = finite.integrate_out(pure_diag, Fraction(1), Fraction(1))
    total = sum(eff_11.probs, Q2(0))
    witness_ok = all(Q2.of(w) >= 0 for w in eff_11.probs) and total >= Q2(0, 1)
    ok = bound_ok and preserved and neg_ok and witness_ok
    return _result(
        "c10",
        "pseudo-quantum: N=4 bound, exact reduction identities, negativity witness",
        ok,
        f"max sum of means (N=4) == 1: {bound_ok}; expectations preserved exactly: {preserved}; "
        f"min effective weight == -1/(2 sqrt 2): {neg_ok}; "
        f"alpha=beta=1 keeps weights >= 0 with total >= sqrt 2: {witness_ok}",
        t0,
    )


CRITERIA = {
    "c1": criterion_1,
    "c2": criterion_2,
    "c3": criterion_3,
    "c4": criterion_4,
    "c5": criterion_5,
    "c6": criterion_6,
    "c7": criterion_7,
    "c8": criterion_8,
    "c9": criterion_9,
    "c10": criterion_10,
}


def basis_audit(basis=None) -> CriterionResult:
    """Audit the 4x4 basis identities; reports failure for a corrupted basis."""
    t0 = time.perf_counter()
    err = qmatrix.basis_identity_error(basis)
    return _result(
        "basis",
        "L-basis identities (square, trace, orthogonality)",
        err <= 1e-12,
        f"max identity deviation = {err:.3e}",
        t0,
    )


def run_all(seed: int | None = None, only=None) -> list[CriterionResult]:
    """Run the acceptance criteria (all, or the ids in ``only``).

    ``seed`` reseeds the Monte Carlo criteria; closed-form criteria ignore it.
    """
    results = [basis_audit()]
    for cid, fn in CRITERIA.items():
        if only is not None and cid not in only:
            continue
        if seed is not None and cid in ("c4", "c5"):
            results.append(fn(seed=seed))
        else:
            results.append(fn())
    return results

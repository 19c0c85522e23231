"""Named, seeded, reproducible experiment runs.

Every experiment emits a CSV table plus a JSON report that echoes the config,
carries the closed-form reference value next to each measured value, and
records a pass/fail check per tolerance. An experiment returns its table as an
iterable of rows in column order; the writer streams it to the file after
every check is settled, and the returned report does not hold it. Outputs are
byte-identical for a fixed (config, seed); wall time is reported on the
console only so files stay deterministic.
"""
from __future__ import annotations

import itertools
import math
import time
from pathlib import Path

import numpy as np

# finite (and with it fractions) is imported in the four bodies that use it, so
# that importing the package loads neither
from . import correlations, dynamics, fourstate, manifolds, observables, qmatrix
from .reporting import write_csv, write_json
from .validate import (PURITY_TOL, RELATIVE_ERROR_FLOOR, ValueRecord, _brief, _dot, _real_number, check_count,
                       real_array)

# count limits: steps^2 grid rows <= MAX_STEPS (about 30 s of Bell checks); a
# classical trial draws one ensemble in about 0.2 ms, so MAX_STEPS of them take
# minutes; the report holds each polygon's N vertices, about 180 KB at N = 4096,
# and the sizes together may sum to MAX_POLYGON_TOTAL, 16 such polygons (about
# 3 MB of report and 0.4 s of regions)
MAX_BELL_STEPS, MAX_CLASSICAL_TRIALS = 1 << 10, dynamics.MAX_STEPS
MAX_POLYGON_SIZE, MAX_POLYGON_TOTAL = 1 << 12, 1 << 16


class ConfigError(ValueError):
    """Invalid experiment name or parameter."""


class ExperimentConfig(ValueRecord):
    __slots__ = ("experiment", "params", "seed", "out_dir")

    def __init__(self, experiment: str, params: dict | None = None, seed: int = 0, out_dir: str = "."):
        self._set(experiment, {} if params is None else params, seed, out_dir)


class Check(ValueRecord):
    __slots__ = ("name", "passed", "value", "reference", "tolerance")

    def __init__(self, name: str, passed: bool, value: float, reference: float, tolerance: float):
        self._set(name, passed, value, reference, tolerance)

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": self.value,
            "reference": self.reference,
            "tolerance": self.tolerance,
        }

    def summary(self) -> str:
        return (f"{self.name}: value {self.value:.6g} vs {self.reference:.6g}"
                f" (tol {self.tolerance:g})")


class RunReport(ValueRecord):
    __slots__ = ("config", "results", "checks", "wall_time")

    def __init__(self, config: ExperimentConfig, results: dict, checks: list, wall_time: float = 0.0):
        self._set(config, results, checks, wall_time)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        return {
            "experiment": self.config.experiment,
            "seed": self.config.seed,
            "params": self.config.params,
            "results": self.results,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
        }


def _merge_params(defaults: dict, given: dict, name: str) -> dict:
    params = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown parameter {_brief(key)} for experiment {name!r}")
        if isinstance(defaults[key], list) and not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {_brief(value)}")
        params[key] = value
    return params


def _real_list(p: dict, key: str, length: int | None = None) -> np.ndarray:
    """Parameter ``key`` as a 1-d array read by ``validate.real_array``, of ``length`` entries if given."""
    arr = real_array(p[key], key)
    if arr.ndim != 1 or length not in (None, len(arr)):
        raise ValueError(f"{key} must be a list of {length or 'any number of'} real numbers, got {_brief(p[key])}")
    return arr


def _tol_check(name, value, reference, tol) -> Check:
    return Check(name, abs(value - reference) <= tol, float(value), float(reference), tol)


def _stderr_check(name, estimate, closed) -> Check:
    """Estimate within 5 standard errors of its closed form; a zero standard error passes."""
    tol = 5.0 * estimate.stderr
    return Check(name, estimate.stderr == 0 or abs(estimate.value - closed) <= tol,
                 estimate.value, closed, tol)


def _exact_check(name, value, reference) -> Check:
    """An identity tested with ``==`` on the values as given (Fraction, Q2, int, bool)."""
    return Check(name, value == reference, float(value), float(reference), 0.0)


def check_seed(seed) -> int:
    """A seed as a nonnegative int; a bool, a fraction or a negative value is a ConfigError."""
    try:
        return check_count(seed, "seed")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _bell_sweep(params, seed):
    p = _merge_params({"steps": 16, "classical_trials": 100}, params, "bell-sweep")
    steps = check_count(p["steps"], "steps", lo=2, hi=MAX_BELL_STEPS)
    trials = check_count(p["classical_trials"], "classical_trials", lo=1, hi=MAX_CLASSICAL_TRIALS)
    state = fourstate.entangled_bloch(-1)
    angles = [2.0 * math.pi * k / steps for k in range(steps)]
    quantum = fourstate.quantum_pair_correlator(state)
    rows = []
    worst = 0.0
    for t1 in angles:
        for t2 in angles:
            res = fourstate.bell_check(quantum, t1, t2)
            worst = max(worst, abs(fourstate.rotated_spin_correlation(t1, t2, state) + math.cos(t1 - t2)))
            rows.append((t1, t2, res.lhs, res.rhs, res.violated))
    marked = fourstate.bell_check(quantum, math.pi / 2.0, math.pi / 4.0)
    rng = np.random.default_rng(seed)
    satisfied = 0
    for _ in range(trials):
        ens = fourstate.symmetrized_hidden_ensemble(rng, n_base=3, order=int(rng.integers(3, 7)))
        corr = fourstate.classical_pair_correlator(ens)
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        if not fourstate.bell_check(corr, t1, t2).violated:
            satisfied += 1
    checks = [
        _tol_check("correlator equals -cos(theta1-theta2)", worst, 0.0, 1e-12),
        _tol_check("violation at (pi/2, pi/4)", marked.lhs - marked.rhs, 2.0 ** 0.5 - 1.0, 1e-9),
        _exact_check("classical correlators satisfy the inequality", satisfied, trials),
    ]
    results = {"lhs_at_mark": marked.lhs, "rhs_at_mark": marked.rhs,
               "classical_satisfied": satisfied, "classical_trials": trials}
    return ["theta1", "theta2", "lhs", "rhs", "violated"], rows, results, checks


def _interference(params, seed):
    p = _merge_params({"delta": 1.0, "t_final": 2.0 * math.pi, "points": 256}, params, "interference")
    delta, t_final = _real_number(p["delta"], "delta"), _real_number(p["t_final"], "t_final")
    points = check_count(p["points"], "points", lo=2, hi=dynamics.MAX_STEPS // 16)   # 16 steps a point
    if t_final <= 0:
        raise ConfigError("t_final must be > 0")
    n_steps = max(points * 16, 1024)
    times, f2, f5 = fourstate.interference_trajectory(delta, t_final, n_steps)
    idx = np.linspace(0, len(times) - 1, points).round().astype(int)   # fewer rows if the step underflows
    t, t2 = times[idx], f2[idx]
    ref = np.fromiter(map(math.cos, delta * t), float, len(t))
    worst = float(np.abs(t2 - ref).max())
    rows = zip(t, t2, ref, f5[idx])
    checks = [_tol_check("<T2> equals cos(delta t)", worst, 0.0, 1e-6)]
    return ["t", "T2", "T2_ref", "f5"], rows, {"max_abs_error": worst}, checks


def _decoherence(params, seed):
    p = _merge_params(
        {"d": -0.35, "rho0": [0.4, -0.2, 0.5], "t_final": 5.0, "dt": 0.005}, params, "decoherence"
    )
    d, t_final, dt = (_real_number(p[k], k) for k in ("d", "t_final", "dt"))
    if d >= 0:
        raise ConfigError("decoherence needs a negative rate d")
    rho0 = _real_list(p, "rho0", 3)
    traj = dynamics.integrate_open(rho0, None, d, (0.0, t_final), dt)
    worst = float(np.abs(traj.bloch - rho0 * np.exp(d * traj.times)[:, None]).max())
    p0, purity = _dot(rho0, rho0), traj.purity
    p_ref = np.fromiter((p0 * float(np.exp(2 * d * t)) for t in traj.times), float, len(purity))
    rows = ((t, *rho, p, pr, d) for t, rho, p, pr in zip(traj.times, traj.bloch, purity, p_ref))
    checks = [
        _tol_check("rho_k(t) equals rho_k(0) exp(D t)", worst, 0.0, 1e-8),
        _tol_check("P(t) equals P(0) exp(2 D t)", float(np.abs(purity - p_ref).max()), 0.0, 1e-8),
    ]
    return ["t", "rho1", "rho2", "rho3", "P", "P_ref", "D"], rows, {"max_abs_error": worst}, checks


def _syncoherence(params, seed):
    p = _merge_params(
        {"a": 3.0, "b": 2.0, "p0": 0.9, "d0": 0.1, "t_final": 6.0, "dt": 0.001},
        params, "syncoherence",
    )
    a, b, p0, d0, t_final, dt = (_real_number(p[k], k) for k in ("a", "b", "p0", "d0", "t_final", "dt"))
    flow = dynamics.FlowParams(a, b)
    if not flow.in_fixed_point_regime:
        raise ConfigError("fixed-point regime requires a > 0 and 0 < b < a^2/4")
    traj = dynamics.syncoherence_flow(p0, d0, flow, (0.0, t_final), dt)
    p_ref, d_ref = dynamics.syncoherence_closed_form(p0, d0, flow, traj.times)
    pv, dv = traj.bloch[:, 0], traj.d_values
    worst = max(float((np.abs(pv - p_ref) / (np.abs(p_ref) + RELATIVE_ERROR_FLOOR)).max()),
                float((np.abs(dv - d_ref) / (np.abs(d_ref) + RELATIVE_ERROR_FLOOR)).max()))
    rows = zip(traj.times, pv, dv, p_ref, d_ref)
    eps1, eps2 = flow.rates
    checks = [_tol_check("flow matches the two-exponential closed form (rel)", worst, 0.0, 1e-6)]
    return (["t", "P", "D", "P_ref", "D_ref"], rows,
            {"eps1": eps1, "eps2": eps2, "max_rel_error": worst}, checks)


def _precession(params, seed):
    p = _merge_params({"omega": 1.0, "t_final": 10.0, "dt": 0.002}, params, "precession")
    omega, t_final, dt = (_real_number(p[k], k) for k in ("omega", "t_final", "dt"))
    ham = dynamics.Hamiltonian(np.array([0.0, 0.0, omega]))
    traj = dynamics.integrate_von_neumann(np.array([1.0, 0.0, 0.0]), ham, (0.0, t_final), dt)
    n, angle = len(traj.times), 2 * omega * traj.times
    ref = np.column_stack([np.fromiter(map(math.cos, angle), float, n),
                           np.fromiter(map(math.sin, angle), float, n), np.zeros(n)])
    worst = float(np.abs(traj.bloch - ref).max())
    purity = traj.purity
    drift = float(np.abs(purity - purity[0]).max())
    rows = zip(traj.times, *traj.bloch.T, purity, ref[:, 0], ref[:, 1])

    def s_of_t(t):
        return dynamics.rotation_from_generator(np.array([0.0, 0.0, -omega * t]))

    h_err = float(np.abs(dynamics.hamiltonian_from_rotation(s_of_t, 0.7)
                         - np.array([0.0, 0.0, omega])).max())
    ens, rot = manifolds.grid_ensemble(16, lambda pts: np.exp(pts[:, 0])), s_of_t(0.7)
    commute_err = float(np.abs(manifolds.reduce_ensemble(dynamics.rotate_distribution(ens, rot)).rho
                               - rot @ manifolds.reduce_ensemble(ens).rho).max())
    checks = [
        _tol_check("trajectory equals (cos 2wt, sin 2wt, 0)", worst, 0.0, 1e-8),
        _tol_check("purity drift", drift, 0.0, 1e-10),
        _tol_check("Hamiltonian recovered from the rotation", h_err, 0.0, 1e-8),
        _tol_check("rotating the distribution commutes with reduction", commute_err, 0.0, 1e-12),
    ]
    return (["t", "rho1", "rho2", "rho3", "P", "rho1_ref", "rho2_ref"], rows,
            {"purity_drift": drift, "h_recovery_error": h_err}, checks)


def _cartesian_spins(params, seed):
    from fractions import Fraction
    from . import finite
    p = _merge_params({"probs": None, "free_p1": None}, params, "cartesian-spins")
    if p["probs"] is None:
        third = Fraction(1, 3)
        probs = [third, 0, 0, 0, third, 0, 0, third]
    else:
        probs = _real_list(p, "probs", 8)
    before = finite.cartesian_purity(probs)
    classical = finite.cartesian_measure_sz(probs, "classical")
    quantum = finite.cartesian_measure_sz(probs, "quantum", free_p1=p["free_p1"])
    rows = []
    for label, vec, pur in (
        ("before", probs, before),
        ("classical", classical.probs, classical.purity_after),
        ("quantum", quantum.probs, quantum.purity_after),
    ):
        rows.append((label, *(float(vec[i]) for i in range(8)), float(pur)))
    checks = [
        _tol_check("quantum-rule purity is 1", float(quantum.purity_after), 1.0, 1e-12),
        Check("classical rule flagged iff purity exceeds 1",
              classical.constraint_violated == (float(classical.purity_after) > 1.0 + PURITY_TOL),
              float(classical.purity_after), 1.0, 0.0),
        _tol_check("pair sums equal 1/2",
                   max(abs(float(s) - 0.5) for s in quantum.pair_sums), 0.0, 1e-12),
    ]
    results = {
        "purity_before": before,
        "purity_classical": classical.purity_after,
        "purity_quantum": quantum.purity_after,
        "classical_flagged": classical.constraint_violated,
        "pair_sums": list(quantum.pair_sums),
    }
    cols = ["state"] + [f"p{i + 1}" for i in range(8)] + ["purity"]
    return cols, rows, results, checks


def _pseudo_quantum_region(params, seed):
    from fractions import Fraction
    from . import finite
    p = _merge_params({"sizes": [4, 8, 16, 32, 64]}, params, "pseudo-quantum-region")
    sizes = [check_count(n, "sizes", lo=4, hi=MAX_POLYGON_SIZE) for n in p["sizes"]]
    if any(n % 4 for n in sizes):
        # zn_system's second spin is a quarter turn, which cos(pi/N) assumes, only then
        raise ConfigError("polygon sizes must be positive multiples of 4")
    check_count(sum(sizes), "sum of sizes", hi=MAX_POLYGON_TOTAL)
    rows = []
    worst = 0.0
    polygons = {}
    for n in sizes:
        region = finite.realizable_region_check(finite.zn_system(n))
        ref = math.cos(math.pi / n)
        worst = max(worst, abs(region.inradius - ref))
        rows.append((n, region.inradius, ref, float(region.max_mean_sum)))
        polygons[str(n)] = [[x, y] for x, y in region.vertices]
    region4 = finite.realizable_region_check(finite.zn_system(4, probs=(Fraction(1, 4),) * 4))
    pure_diag = finite.pure_system(8, 1)
    eff = finite.integrate_out(pure_diag)
    min_w = min(eff.probs)
    eff_11 = finite.integrate_out(pure_diag, Fraction(1), Fraction(1))
    total_11 = sum(eff_11.probs, finite.Q2(0))
    checks = [
        _exact_check("N=4 summed-mean bound equals 1", region4.max_mean_sum, finite.Q2(1)),
        _tol_check("inradius equals cos(pi/N)", worst, 0.0, 1e-12),
        _exact_check("most negative effective weight", min_w, -finite.HALF_SQRT2 * Fraction(1, 2)),
        Check("alpha=beta=1 nonnegative weights cost total sqrt(2)",
              all(finite.Q2.of(w) >= 0 for w in eff_11.probs) and total_11 >= finite.Q2(0, 1),
              float(total_11), math.sqrt(2.0), 0.0),
    ]
    results = {"polygons": polygons, "min_effective_weight": min_w, "total_alpha_beta_1": total_11}
    return ["N", "inradius", "inradius_ref", "max_mean_sum"], rows, results, checks


def _correlation_table(params, seed):
    p = _merge_params({"rho": [0.3, 0.1, 0.2], "grid_resolution": 48}, params, "correlation-table")
    rho_vec = _real_list(p, "rho", 3)
    state = manifolds.BlochState(rho_vec)
    rho_mat = qmatrix.density_from_bloch(rho_vec)
    axis = rho_vec / np.linalg.norm(rho_vec) if np.linalg.norm(rho_vec) > 0 else np.array([0.0, 0.0, 1.0])
    kappa = 3.0 * np.linalg.norm(rho_vec)

    def density(points):
        return np.exp(kappa * (points @ axis))

    ens = manifolds.grid_ensemble(p["grid_resolution"], density)
    pool = {
        "A1": observables.basis_spin(1),
        "A2": observables.basis_spin(2),
        "A3": observables.basis_spin(3),
        "A12": observables.combine(1 / math.sqrt(2), observables.basis_spin(1),
                                   1 / math.sqrt(2), observables.basis_spin(2)),
    }
    sub = manifolds.extend_to_substates(ens, [pool[k].e for k in pool])
    rows = []
    worst = 0.0
    for name_a, a in pool.items():
        for name_b, b in pool.items():
            conditional = correlations.conditional_correlation_2pt(a, b, state)
            oracle = qmatrix.anticommutator_expectation(
                observables.operator_of(a), observables.operator_of(b), rho_mat
            )
            worst = max(worst, abs(conditional - oracle))
            pointwise = correlations.pointwise_correlation(a, b, ens)
            classical = correlations.classical_correlation(a.e, b.e, sub)
            rows.append((name_a, name_b, conditional, oracle, pointwise, classical))
    sign_err = max(float(np.abs(sub.mean_sign(a.e) - _dot(ens.points, a.e)).max()) for a in pool.values())
    checks = [
        _tol_check("conditional equals anticommutator oracle", worst, 0.0, 1e-12),
        _tol_check("substate sign means equal f . e", sign_err, 0.0, 1e-12),
    ]
    results = {"rho": [float(x) for x in rho_vec], "max_oracle_gap": worst}
    return ["A", "B", "conditional", "oracle", "pointwise", "classical"], rows, results, checks


def _mc_sequences(params, seed):
    p = _merge_params({"angles": [0.0, math.pi / 4.0], "rho": [0.0, 0.0, 0.6],
                       "n": 1_000_000, "jobs": 1}, params, "mc-sequences")
    angles = _real_list(p, "angles")
    check_count(len(angles), "chain length", lo=2, hi=6)
    rho_vec = _real_list(p, "rho", 3)
    chain = [observables.TwoLevelObservable(np.array([math.sin(a), 0.0, math.cos(a)]))
             for a in angles]
    _, closed = correlations.measurement_chain(chain, rho_vec)
    est = correlations.simulate_sequences(chain, rho_vec, p["n"], seed, n_jobs=p["jobs"])
    sigmas = abs(est.value - closed) / est.stderr if est.stderr > 0 else 0.0
    rows = [("/".join(f"{a:.6g}" for a in angles), est.n, est.value, est.stderr, closed,
             sigmas)]
    checks = [_stderr_check("empirical mean within 5 standard errors", est, closed)]
    results = {"value": est.value, "stderr": est.stderr, "closed_form": closed,
               "n": est.n, "seed": est.seed}
    return ["chain", "n", "value", "stderr", "closed_form", "sigmas"], rows, results, checks


# ---------------------------------------------------------------------------
# acceptance-only bodies: (params, seed) -> checks, not in EXPERIMENTS
# ---------------------------------------------------------------------------

def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_bloch(rng):
    return _random_unit(rng) * rng.uniform(0.0, 1.0)


def _random_observables(rng, k):
    return [observables.TwoLevelObservable(_random_unit(rng)) for _ in range(k)]


def _expectation_law(params, seed):
    """The ensemble average equals the trace rule on random grid ensembles."""
    n_ensembles = check_count(params["n_ensembles"], "n_ensembles", lo=1)
    resolution = check_count(params["resolution"], "resolution", lo=1)
    rng = np.random.default_rng(seed)
    worst, n_points = 0.0, None
    for _ in range(n_ensembles):
        axis, kappa = _random_unit(rng), rng.uniform(0.0, 3.0)
        ens = manifolds.grid_ensemble(resolution, lambda pts: np.exp(kappa * (pts @ axis)))
        n_points, e = len(ens), _random_unit(rng)
        rho = qmatrix.density_from_bloch(manifolds.reduce_ensemble(ens).rho)
        oracle = qmatrix.qm_expectation(qmatrix.operator_from_direction(e), rho)
        mean = manifolds.weighted_sum(ens.probs, _dot(ens.points, e))
        worst = max(worst, abs(mean - oracle))
    # on the last ensemble: the +1 probabilities (1 + e.f)/2 and the moments of A
    a = observables.TwoLevelObservable(e)
    signed = np.fromiter((2.0 * observables.prob_plus(a, f) - 1.0 for f in ens.points), float, n_points)
    return [
        _tol_check("max |sum p (e.f) - tr(A rho)|", worst, 0.0, 1e-12),
        Check("grid has at least 2048 points", n_points >= 2048, float(n_points), 2048.0, 0.0),
        _tol_check("sum p (2 P(+1) - 1) equals tr(A rho)",
                   manifolds.weighted_sum(ens.probs, signed), oracle, 1e-12),
        _exact_check("<A^1> equals the ensemble mean", observables.moment(a, ens, 1), mean),
        _exact_check("<A^2>", observables.moment(a, ens, 2), 1.0),
    ]


def _conditional_2pt(params, seed):
    """The conditional 2-point construction equals the anticommutator value, symmetrically."""
    rng = np.random.default_rng(seed)
    worst_eq = worst_sym = 0.0
    for _ in range(check_count(params["n_trials"], "n_trials", lo=1)):
        a, b = _random_observables(rng, 2)
        rho_vec = _random_bloch(rng)
        val = correlations.conditional_correlation_2pt(a, b, rho_vec)
        oracle = qmatrix.anticommutator_expectation(
            observables.operator_of(a), observables.operator_of(b), qmatrix.density_from_bloch(rho_vec))
        worst_eq = max(worst_eq, abs(val - oracle))
        worst_sym = max(worst_sym, abs(val - correlations.conditional_correlation_2pt(b, a, rho_vec)))
    return [
        _tol_check("max |construction - tr({A,B}rho)/2|", worst_eq, 0.0, 1e-12),
        _tol_check("max asymmetry under A <-> B", worst_sym, 0.0, 1e-12),
    ]


def _conditional_3pt(params, seed):
    """The conditional 3-point oracle equality, plus the exact orthogonal-spin identity."""
    n_trials, n_rho = (check_count(params[k], k, lo=1) for k in ("n_trials", "n_rho"))
    rng = np.random.default_rng(seed)
    cp = correlations.conditional_product
    worst = worst_cp = 0.0
    for _ in range(n_trials):
        a, b, c = obs = _random_observables(rng, 3)
        rho_vec = _random_bloch(rng)
        val = correlations.conditional_correlation_3pt(*obs, rho_vec)
        oracle = qmatrix.nested_anticommutator_expectation(
            *map(observables.operator_of, obs), qmatrix.density_from_bloch(rho_vec))
        worst = max(worst, abs(val - oracle))
        worst_cp = max(worst_cp, abs(observables.expectation(cp(cp(a, b), c), rho_vec) - val))
    spins = [observables.basis_spin(k) for k in (1, 2, 3)]
    products = [(k, l, m, cp(cp(spins[k], spins[l]), spins[m]))
                for k, l, m in itertools.product(range(3), repeat=3)]
    mismatches = 0
    for _ in range(n_rho):
        rho_vec = _random_bloch(rng)
        for k, l, m, prod in products:
            mismatches += int(observables.expectation(prod, rho_vec) != (rho_vec[m] if k == l else 0.0))
    r_first = correlations.measurement_chain([observables.RANDOM, b], rho_vec)[1]
    antiparallel = observables.expectation(cp(a, observables.TwoLevelObservable(-a.e)), rho_vec)
    return [
        _tol_check("max |expr - tr({{A,B},C}rho)/4|", worst, 0.0, 1e-12),
        _tol_check("max |<(A o B) o C> - expr|", worst_cp, 0.0, 1e-12),
        _exact_check("(k, l, m, rho) breaking delta_kl rho_m", mismatches, 0),
        _exact_check("measurement_chain([R, B]) value (R o X = R)", r_first, 0.0),
        _exact_check("<A o (-A)>", antiparallel, -1.0),
    ]


def _mc_convergence(params, seed):
    """Monte Carlo chains within 5 standard errors of their closed forms; a repeated chain exact."""
    rng, n = np.random.default_rng(seed), check_count(params["n_samples"], "n_samples", lo=1)
    checks = []
    for trial in range(3):
        a, b, c = _random_observables(rng, 3)
        rho_vec = _random_bloch(rng)
        for chain, closed in (([a, b], correlations.conditional_correlation_2pt(a, b, rho_vec)),
                              ([a, b, c], correlations.conditional_correlation_3pt(a, b, c, rho_vec))):
            est = correlations.simulate_sequences(chain, rho_vec, n, seed + trial)
            checks.append(_stderr_check(f"trial {trial} {len(chain)}-chain within 5 standard errors",
                                        est, closed))
    a = observables.TwoLevelObservable(np.array([1.0, 0.0, 0.0]))
    rep = correlations.simulate_sequences([a, a], _random_bloch(np.random.default_rng(seed + 99)), n, seed)
    # the last chain again, its blocks dealt into two shares: the same bits for any n_jobs
    shared = correlations.simulate_sequences(chain, rho_vec, n, seed + trial, n_jobs=2)
    r_first = correlations.simulate_sequences([observables.RANDOM, b], rho_vec, n, seed)
    return checks + [
        _exact_check("repeated chain value", rep.value, 1.0),
        _exact_check("repeated chain standard error", rep.stderr, 0.0),
        _exact_check(f"trial {trial} {len(chain)}-chain at n_jobs=2 equals n_jobs=1", shared.value, est.value),
        _stderr_check("R o B chain within 5 standard errors of 0", r_first, 0.0),
    ]


def _four_state(params, seed):
    """Entangled-state values, the interference check, the rotated correlation, exchange classes."""
    rho_m, bloch = fourstate.entangled_state(-1), fourstate.entangled_bloch(-1)
    # T_m read on the classical side, from a one-point four ensemble; the oracle is the reference
    t_vals = manifolds.reduce_ensemble(manifolds.Ensemble([bloch.rho], [1.0])).rho[:3].tolist()
    table = fourstate.outcomes_from_t(*t_vals)
    checks = [_exact_check(f"T{m} of the entangled state", t, qmatrix.qm_expectation(qmatrix.l_operator(m), rho_m))
              for m, t in zip((1, 2, 3), t_vals)]
    checks += [_exact_check(f"weight w_{k}", getattr(table, f"w_{k}"), want)
               for k, want in (("pm", 0.5), ("mp", 0.5), ("pp", 0.0), ("mm", 0.0))]
    rng = np.random.default_rng(seed)
    # half singlet, half psi_1 (f1 = f2 = f3 = 1): both bits polarised, so 3-point values are not 0
    tilted = manifolds.BlochState(0.5 * (bloch.rho + np.eye(15)[:3].sum(axis=0)))
    tilted_m, worst2, worst3 = qmatrix.density_from_bloch(tilted.rho), 0.0, 0.0
    for _ in range(check_count(params["n_angles"], "n_angles", lo=1)):
        th, ph, ps = rng.uniform(0.0, 2.0 * math.pi, size=3)
        obs = (*fourstate.rotated_spin_observables(th, ph), fourstate.rotated_spin_observables(ps, 0.0)[0])
        ops = [observables.operator_of(o) for o in obs]
        val = correlations.conditional_correlation_2pt(*obs[:2], bloch)
        worst2 = max(worst2, abs(val + math.cos(th - ph)),
                     abs(val - qmatrix.anticommutator_expectation(*ops[:2], rho_m)))
        worst3 = max(worst3, abs(correlations.conditional_correlation_3pt(*obs, tilted)
                                 - qmatrix.nested_anticommutator_expectation(*ops, tilted_m)))
    psi_m, psi_p = fourstate.entangled_psi(-1), fourstate.entangled_psi(1)
    mixed = (psi_m + psi_p) / np.linalg.norm(psi_m + psi_p)
    rho_pm = 0.5 * (fourstate.entangled_state(1) + rho_m)
    classes = [fourstate.is_exchange_symmetric(psi) for psi in
               (psi_m, psi_p, fourstate.basis_psi(1), fourstate.basis_psi(4), mixed, rho_m, rho_pm)]
    # classical entanglement: micro-states psi psi^dagger of the singlet, psi_1 and psi_+, weighted 0.5, 0.3, 0.2
    micro = [np.outer(psi, psi.conj()) for psi in (psi_m, fourstate.basis_psi(1), psi_p)]
    micro_probs = (0.5, 0.3, 0.2)
    rho_mix = sum(p * m for p, m in zip(micro_probs, micro))
    ensemble = manifolds.Ensemble([manifolds.bloch_vector(m) for m in micro], micro_probs)
    entangled_gap = float(np.abs(manifolds.reduce_ensemble(ensemble).rho - [
        qmatrix.qm_expectation(qmatrix.l_operator(m), rho_mix) for m in range(1, 16)]).max())
    moved = sum(not np.array_equal(fourstate.exchange_symmetry(v.rho), v.rho)
                for v in (bloch, fourstate.entangled_bloch(1)))
    # (L1 + L2)/sqrt(2) is unit but squares to 1 + L3: no spin
    not_spin = observables.TwoLevelObservable((np.eye(15)[0] + np.eye(15)[1]) / math.sqrt(2.0))
    rejected = sum(_rejects_as_not_spin(call) for call in (
        lambda: correlations.measurement_chain([not_spin], bloch),
        lambda: observables.prob_plus(not_spin, bloch.rho),
        lambda: observables.moment(not_spin, ensemble, 1)))
    # a state with T1 and T2 both nonzero: (T1, T2, T3) = (1/2, -1/4, 1/4)
    weights = (0.375, 0.375, 0.0, 0.25)
    skewed = fourstate.outcomes_from_t(*(qmatrix.qm_expectation(qmatrix.l_operator(m), np.diag(weights))
                                         for m in (1, 2, 3)))
    return checks + _interference({}, 0)[3] + [
        _tol_check("chain 2-pt equals -cos(theta - phi) and tr({A,B}rho)/2", worst2, 0.0, 1e-12),
        _tol_check("chain 3-pt equals tr({{A,B},C}rho)/4", worst3, 0.0, 1e-12),
        _exact_check("exchange classes of psi-, psi+, basis 1, basis 4, mixed, rho-, (rho+ + rho-)/2",
                     classes == ["fermionic", "bosonic", "bosonic", "bosonic", "forbidden", "fermionic",
                                 "symmetric"], True),
        _tol_check("four-ensemble of psi micro-states reduces to tr(L_m rho) of their mixture",
                   entangled_gap, 0.0, 1e-12),
        _exact_check("entangled 15-vectors moved by the exchange map", moved, 0),
        _exact_check("weights of diag(3/8, 3/8, 0, 1/4) from its T1, T2, T3",
                     (skewed.w_pp, skewed.w_pm, skewed.w_mp, skewed.w_mm) == weights, True),
        _exact_check("(L1 + L2)/sqrt(2) is rejected by measurement_chain, prob_plus and moment", rejected, 3),
    ]


def _rejects_as_not_spin(call) -> bool:
    """True if ``call()`` raises the spin rule's "spectrum is not +-1" ValueError."""
    try:
        call()
    except ValueError as exc:
        return "spectrum is not +-1" in str(exc)
    return False


def _cartesian_identities(params, seed):
    """The purity polynomial on random ensembles, and the cartesian-spins results tested exactly."""
    from fractions import Fraction
    from . import finite
    p = np.random.default_rng(seed).random((check_count(params["n_random"], "n_random", lo=1), 8))
    p = p / p.sum(axis=1, keepdims=True)
    spin_means = p @ np.array(finite.SPIN_VALUES, dtype=float).T
    poly_err = float(np.abs(finite.cartesian_purity(p) - (spin_means ** 2).sum(axis=1)).max())
    res = _cartesian_spins({}, seed)[2]
    return [
        _tol_check("max |poly - sum <S>^2|", poly_err, 0.0, 1e-12),
        _exact_check("scenario purity before", res["purity_before"], Fraction(1, 3)),
        _exact_check("classical-rule purity", res["purity_classical"], 3),
        _exact_check("classical rule flagged", res["classical_flagged"], True),
        _exact_check("quantum-rule purity", res["purity_quantum"], 1),
        _exact_check("quantum pair sums all 1/2",
                     all(s == Fraction(1, 2) for s in res["pair_sums"]), True),
    ]


def _reduction_identities(params, seed):
    """Integrating out the environment leaves every expectation of an exact Z_8 system as it is."""
    from fractions import Fraction
    from . import finite
    rng = np.random.default_rng(seed)
    changed = 0
    for _ in range(50):
        raw = [Fraction(int(x), 64) for x in rng.integers(0, 9, size=8)]
        raw[-1] = 1 - sum(raw[:-1])   # the seven draws are at most 8/64 each: raw[-1] >= 1/8
        sys8 = finite.zn_system(8, probs=tuple(raw))
        alpha, beta = (Fraction(int(rng.integers(-3, 4)), 4) for _ in range(2))
        changed += sys8.expectations() != finite.integrate_out(sys8, alpha, beta).expectations()
    pure = [finite.pure_system(8, j) for j in range(8)]
    off = sum(finite.zn_step_evolution(pure[1], k) != pure[(1 + k) % 8] for k in range(8))
    return [
        _exact_check("reductions changing an expectation", changed, 0),
        _exact_check("steps k carrying the pure state at 1 elsewhere than 1 + k", off, 0),
    ]


EXPERIMENTS = {
    "bell-sweep": _bell_sweep,
    "interference": _interference,
    "decoherence": _decoherence,
    "syncoherence": _syncoherence,
    "precession": _precession,
    "cartesian-spins": _cartesian_spins,
    "pseudo-quantum-region": _pseudo_quantum_region,
    "correlation-table": _correlation_table,
    "mc-sequences": _mc_sequences,
}


def run(config: ExperimentConfig) -> RunReport:
    """Execute one experiment and write ``<name>.csv`` and ``<name>.report.json``."""
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {_brief(config.experiment)}; "
                          f"choose from {' '.join(sorted(EXPERIMENTS))}")
    t0 = time.perf_counter()
    try:
        columns, rows, results, checks = EXPERIMENTS[config.experiment](config.params, config.seed)
    except ConfigError:
        raise
    except ValueError as exc:   # what every reader raises; any other error is a program error
        raise ConfigError(f"invalid parameters for {config.experiment!r}: {exc}") from exc
    report = RunReport(config, results, checks, wall_time=time.perf_counter() - t0)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / f"{config.experiment}.csv", columns, rows)
    write_json(out / f"{config.experiment}.report.json", report.payload())
    return report

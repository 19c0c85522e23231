"""The four ensembleq benchmark workloads.

Each workload is driven by one closed-loop caller: ``run_pass`` walks the
workload's fixed task list once, starting every call only after the previous
one has returned. ``make_inputs(seed, size, out_dir)`` builds everything a
pass needs from the seed, so the program only ever receives these generated
inputs. Spans are recorded here, around the calls into each package module's
public functions; nothing inside ``src/`` is instrumented.

Every pass checks the program's outputs through a ``Gate``. A failed check or
a raised error is counted and reported, never dropped.

``LAYERS`` lists each per-layer metric with its unit and how it is read off
the span summary of one traced pass.
"""
from __future__ import annotations

import hashlib
import math
import os
import resource
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ensembleq import (acceptance, correlations, dynamics, experiments, fourstate, manifolds,
                       observables, qmatrix)

# extend_to_substates materialises an (n, 2^m, m) float64 tensor. Cases whose
# tensor would exceed this budget are refused before the call; the largest
# case here, (512, 12), needs 192 MiB and drives the process to about 3.5x
# that at peak.
SUBSTATE_BUDGET_BYTES = 256 * 2**20


class SizeGuardError(ValueError):
    """An extend_to_substates case whose tensor exceeds the memory budget."""


def substate_tensor_bytes(n: int, m: int) -> int:
    return n * 2**m * m * 8


def guard_substates(n: int, m: int) -> int:
    """Refuse, before any allocation, a case over SUBSTATE_BUDGET_BYTES."""
    size = substate_tensor_bytes(n, m)
    if size > SUBSTATE_BUDGET_BYTES:
        raise SizeGuardError(
            f"extend_to_substates at (n, m) = ({n}, {m}) needs {size} bytes, "
            f"over the budget of {SUBSTATE_BUDGET_BYTES}"
        )
    return size


class Gate:
    """Counts correctness checks across the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    @contextmanager
    def task(self, name: str):
        """Run one task; an exception counts as one failed check and the pass goes on."""
        try:
            yield
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{name} raised:\n{traceback.format_exc()}")


def _unit(rng, dim: int = 3) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _bloch(rng) -> np.ndarray:
    return _unit(rng) * rng.uniform(0.0, 1.0)


def _spins(rng, m: int) -> list:
    return [observables.TwoLevelObservable(_unit(rng)) for _ in range(m)]


def _luders_value(ops, rho) -> float:
    """Reference value of a measurement chain, rightmost operator measured
    first: the trace of the composed maps X <- P+ X P+ - P- X P-."""
    x = rho
    for op in reversed(ops):
        eye = np.eye(op.shape[0])
        plus, minus = 0.5 * (eye + op), 0.5 * (eye - op)
        x = plus @ x @ plus - minus @ x @ minus
    return float(np.trace(x).real)


def _chain_reference(chain, state) -> float:
    ops = [observables.operator_of(o) for o in chain]
    return _luders_value(ops, qmatrix.density_from_bloch(state))


# ---------------------------------------------------------------------------
# reproduce: what a reader of the paper runs, `ensembleq verify` + `ensembleq run`
# ---------------------------------------------------------------------------

_TINY_CRITERIA = {
    "c1": {"n_ensembles": 5}, "c2": {"n_trials": 20}, "c3": {"n_trials": 20, "n_rho": 2},
    "c4": {"n_samples": 20_000}, "c5": {"n_trials": 20}, "c8": {"n_angles": 10},
    "c9": {"n_random": 100},
}
_TINY_EXPERIMENTS = {
    "bell-sweep": {"steps": 4, "classical_trials": 10}, "interference": {"points": 16},
    "decoherence": {"t_final": 0.5}, "syncoherence": {"t_final": 0.6},
    "precession": {"t_final": 1.0}, "pseudo-quantum-region": {"sizes": [4, 8]},
    "correlation-table": {"grid_resolution": 16}, "mc-sequences": {"n": 10_000},
}


def reproduce_inputs(seed: int, size: str, out_dir: Path) -> dict:
    tiny = size == "tiny"
    return {
        "seed": seed,
        "out_dir": Path(out_dir) / f"reproduce-{seed}",
        "criteria": _TINY_CRITERIA if tiny else {},
        "experiments": _TINY_EXPERIMENTS if tiny else {},
        "digests": {},   # output bytes of the first pass, compared on later ones
    }


def reproduce_pass(inp: dict, tracer, gate: Gate) -> dict:
    seed = inp["seed"]
    # The body of acceptance.run_all(seed), one call per criterion so that each
    # gets its own span; c4 and c5 take the seed exactly as run_all passes it.
    with tracer.span("acceptance.verify"):
        for cid in ["basis", *acceptance.CRITERIA]:
            name = f"acceptance.{cid}"
            with gate.task(name):
                kwargs = dict(inp["criteria"].get(cid, {}))
                if cid in ("c4", "c5"):
                    kwargs["seed"] = seed
                fn = acceptance.basis_audit if cid == "basis" else acceptance.CRITERIA[cid]
                with tracer.span(name):
                    result = fn(**kwargs)
                gate.check(name, result.passed, result.detail)
    out = inp["out_dir"]
    with tracer.span("experiments.run"):
        for exp in experiments.EXPERIMENTS:
            name = f"experiments.{exp}"
            with gate.task(name):
                config = experiments.ExperimentConfig(
                    exp, dict(inp["experiments"].get(exp, {})), seed, str(out))
                with tracer.span(name) as sp:
                    report = experiments.run(config)
                gate.check(name, report.passed, f"failed checks in {exp}")
                for path in (out / f"{exp}.csv", out / f"{exp}.report.json"):
                    data = path.read_bytes()
                    sp.count("bytes", len(data))
                    digest = hashlib.sha256(data).hexdigest()
                    ref = inp["digests"].get(path.name)
                    if ref is None:
                        inp["digests"][path.name] = digest
                    else:
                        gate.check(f"{path.name} byte-identical across passes", digest == ref,
                                   "output bytes changed between passes with the same seed")
    return {}


# ---------------------------------------------------------------------------
# sequences: the 2^m branch tree and the prefix-table Monte Carlo
# ---------------------------------------------------------------------------

CHAIN2_REPS = {2: 64, 4: 16, 8: 4, 12: 1}
CHAIN4_REPS = {4: 8, 8: 2, 10: 1}
MC_LENGTHS = (2, 6, 10)
_TINY_CHAIN2 = {2: 4, 4: 2, 8: 1, 12: 1}
_TINY_CHAIN4 = {4: 1, 8: 1, 10: 1}


def mc_jobs() -> int:
    """Worker threads for the parallel Monte Carlo calls: 2, but never more than nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def sequences_inputs(seed: int, size: str, out_dir: Path) -> dict:
    tiny = size == "tiny"
    rng = np.random.default_rng([seed, 2])
    n_short = 20 if tiny else 1000
    pairs, triples = [], []
    for _ in range(n_short):
        a, b = _spins(rng, 2)
        rho = _bloch(rng)
        pairs.append((a, b, rho, observables.operator_of(a), observables.operator_of(b),
                      qmatrix.density_from_bloch(rho)))
    for _ in range(n_short):
        a, b, c = _spins(rng, 3)
        rho = _bloch(rng)
        triples.append((a, b, c, rho, observables.operator_of(a), observables.operator_of(b),
                        observables.operator_of(c), qmatrix.density_from_bloch(rho)))
    chain2 = {}
    for m, reps in (_TINY_CHAIN2 if tiny else CHAIN2_REPS).items():
        chains = []
        for _ in range(reps):
            chain, rho = _spins(rng, m), _bloch(rng)
            chains.append((chain, rho, _chain_reference(chain, rho)))
        chain2[m] = chains
    bell = fourstate.entangled_bloch(-1).rho
    chain4 = {}
    for m, reps in (_TINY_CHAIN4 if tiny else CHAIN4_REPS).items():
        chains = []
        for _ in range(reps):
            chain = []
            for _ in range(m // 2):
                chain.extend(fourstate.rotated_spin_observables(*rng.uniform(0.0, 2.0 * math.pi, 2)))
            chains.append((chain, bell, _chain_reference(chain, bell)))
        chain4[m] = chains
    mc = {}
    for m in MC_LENGTHS:
        chain, rho = _spins(rng, m), _bloch(rng)
        mc[m] = (chain, rho, _chain_reference(chain, rho))
    a = observables.TwoLevelObservable(_unit(rng))
    return {
        "seed": seed, "pairs": pairs, "triples": triples, "chain2": chain2, "chain4": chain4,
        "mc": mc, "mc_n": 10_000 if tiny else 1_000_000, "jobs": mc_jobs(),
        "repeated": ([a, a], _bloch(rng), 1_000 if tiny else 100_000),
    }


def _close(gate, name, got, want, tol):
    gate.check(name, abs(got - want) <= tol, f"|{got!r} - {want!r}| > {tol}")


def sequences_pass(inp: dict, tracer, gate: Gate) -> dict:
    pairs, triples = inp["pairs"], inp["triples"]
    with gate.task("short chains"):
        with tracer.span("correlations.conditional_correlation_2pt") as sp:
            got = [correlations.conditional_correlation_2pt(a, b, rho) for a, b, rho, *_ in pairs]
            sp.count("calls", len(pairs))
        with tracer.span("qmatrix.anticommutator_expectation") as sp:
            want = [qmatrix.anticommutator_expectation(A, B, R) for *_, A, B, R in pairs]
            sp.count("calls", len(pairs))
        for g, w in zip(got, want):
            _close(gate, "conditional 2-pt vs oracle", g, w, 1e-12)
        with tracer.span("correlations.conditional_correlation_3pt") as sp:
            got = [correlations.conditional_correlation_3pt(a, b, c, rho)
                   for a, b, c, rho, *_ in triples]
            sp.count("calls", len(triples))
        with tracer.span("qmatrix.nested_anticommutator_expectation") as sp:
            want = [qmatrix.nested_anticommutator_expectation(A, B, C, R)
                    for *_, A, B, C, R in triples]
            sp.count("calls", len(triples))
        for g, w in zip(got, want):
            _close(gate, "conditional 3-pt vs oracle", g, w, 1e-12)
    for kind, table in (("chain2", inp["chain2"]), ("chain4", inp["chain4"])):
        for m, chains in table.items():
            name = f"correlations.{kind}.m{m}"
            with gate.task(name):
                with tracer.span(name) as sp:
                    results = [correlations.measurement_chain(chain, rho) for chain, rho, _ in chains]
                    sp.count("calls", len(chains))
                    sp.count("terms", sum(len(s.terms) for s, _ in results))
                for (_, value), (*_, ref) in zip(results, chains):
                    _close(gate, f"{name} vs Lueders reference", value, ref, 1e-12)
    mc_samples, mc_seconds = 0, 0.0
    for m, (chain, rho, ref) in inp["mc"].items():
        with gate.task(f"monte carlo m={m}"):
            estimates = []
            for jobs in (1, inp["jobs"]):
                with tracer.span(f"correlations.simulate_sequences.m{m}.jobs{jobs}") as sp:
                    t0 = time.perf_counter()
                    est = correlations.simulate_sequences(chain, rho, inp["mc_n"], inp["seed"],
                                                          n_jobs=jobs)
                    mc_seconds += time.perf_counter() - t0
                    sp.count("samples", est.n)
                mc_samples += est.n
                estimates.append(est)
                gate.check(f"monte carlo m={m} jobs={jobs} within 5 se",
                           est.stderr > 0 and abs(est.value - ref) <= 5.0 * est.stderr,
                           f"{est.value!r} +- {est.stderr!r} vs {ref!r}")
            one, many = estimates
            gate.check(f"monte carlo m={m} bit-identical across n_jobs",
                       (one.value, one.stderr) == (many.value, many.stderr),
                       f"{one} != {many}")
    chain, rho, n = inp["repeated"]
    with gate.task("repeated observable"):
        with tracer.span("correlations.simulate_sequences.repeated"):
            est = correlations.simulate_sequences(chain, rho, n, inp["seed"])
        gate.check("repeated observable returns 1 +- 0", est.value == 1.0 and est.stderr == 0.0,
                   f"{est.value!r} +- {est.stderr!r}")
    return {"mc_samples": mc_samples, "mc_seconds": mc_seconds}


# ---------------------------------------------------------------------------
# trajectories: the five fixed-step RK4 loops
# ---------------------------------------------------------------------------

STEPS = 10_000
_TOL = {"precession": 1e-8, "purity_drift": 1e-10, "decay": 1e-8, "syncoherence": 1e-6,
        "interference": 1e-6}


def _rotated(b0, axis, angles) -> np.ndarray:
    """Rodrigues rotation of b0 about the unit axis by each angle."""
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    return b0 * c + np.cross(axis, b0) * s + axis * (axis @ b0) * (1.0 - c)


def trajectories_inputs(seed: int, size: str, out_dir: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    # Tiny runs keep the step size and shorten the span, so tolerances still hold.
    frac = 0.02 if size == "tiny" else 1.0
    h2 = _unit(rng)
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = herm + herm.conj().T
    herm /= np.abs(np.linalg.eigvalsh(herm)).max()
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    u0 = rng.uniform(0.05, 0.15)
    return {
        "frac": frac,
        "steps": int(STEPS * frac),
        "rho2": _unit(rng) * rng.uniform(0.5, 1.0),
        "h2": h2,
        "h4": herm,
        "rho4": np.outer(psi, psi.conj()),
        "rho_open": _unit(rng) * rng.uniform(0.5, 1.0),
        "h_open": _unit(rng) * rng.uniform(0.5, 1.5),
        "sync": (1.0 - u0, u0 * rng.uniform(1.0, 2.0), dynamics.FlowParams(3.0, 2.0)),
        "delta": rng.uniform(0.5, 1.5),
    }


def _precession_headroom(traj, inp) -> float:
    ref = _rotated(inp["rho2"], inp["h2"], 2.0 * traj.times)
    err = float(np.abs(traj.bloch - ref).max())
    drift = float(np.abs(traj.purity - traj.purity[0]).max())
    return max(err / _TOL["precession"], drift / _TOL["purity_drift"])


def trajectories_pass(inp: dict, tracer, gate: Gate) -> dict:
    frac, steps = inp["frac"], inp["steps"]
    t10 = (0.0, 10.0 * frac)

    def von_neumann2():
        traj = dynamics.integrate_von_neumann(inp["rho2"], dynamics.Hamiltonian(inp["h2"]), t10,
                                              t10[1] / steps)
        return traj.times, _precession_headroom(traj, inp)

    def von_neumann4():
        traj = dynamics.integrate_von_neumann(inp["rho4"], dynamics.Hamiltonian(inp["h4"]), t10,
                                              t10[1] / steps)
        lam, vec = np.linalg.eigh(inp["h4"])
        u = np.einsum("ij,tj,kj->tik", vec, np.exp(-1j * np.outer(traj.times, lam)), vec.conj())
        ref = u @ inp["rho4"] @ u.conj().transpose(0, 2, 1)
        return traj.times, float(np.abs(traj.matrices - ref).max()) / _TOL["precession"]

    def bloch():
        traj = dynamics.integrate_bloch(inp["rho2"], inp["h2"], t10, t10[1] / steps)
        return traj.times, _precession_headroom(traj, inp)

    def open_const():
        d, rho0, span = -0.35, inp["rho_open"], (0.0, 5.0 * frac)
        traj = dynamics.integrate_open(rho0, None, d, span, span[1] / steps)
        ref = rho0[None, :] * np.exp(d * traj.times)[:, None]
        return traj.times, float(np.abs(traj.bloch - ref).max()) / _TOL["decay"]

    def open_callable():
        rho0 = inp["rho_open"]
        traj = dynamics.integrate_open(rho0, inp["h_open"], lambda _b, t: -0.2 - 0.1 * math.cos(t),
                                       t10, t10[1] / steps)
        t = traj.times
        ref = np.linalg.norm(rho0) * np.exp(-0.2 * t - 0.1 * np.sin(t))
        return traj.times, float(np.abs(np.linalg.norm(traj.bloch, axis=1) - ref).max()) / _TOL["decay"]

    def syncoherence():
        p0, d0, params = inp["sync"]
        span = (0.0, 6.0 * frac)
        traj = dynamics.syncoherence_flow(p0, d0, params, span, span[1] / steps)
        disc = math.sqrt(params.a ** 2 - 4.0 * params.b)
        eps1, eps2 = 0.5 * (params.a + disc), 0.5 * (params.a - disc)
        u0 = 1.0 - p0
        x1 = (d0 - eps2 * u0) / (eps1 - eps2)
        x2 = u0 - x1
        e1, e2 = x1 * np.exp(-eps1 * traj.times), x2 * np.exp(-eps2 * traj.times)
        p_ref, d_ref = 1.0 - e1 - e2, eps1 * e1 + eps2 * e2
        rel = max(float((np.abs(traj.bloch[:, 0] - p_ref) / np.abs(p_ref)).max()),
                  float((np.abs(traj.d_values - d_ref) / np.abs(d_ref)).max()))
        return traj.times, rel / _TOL["syncoherence"]

    def interference():
        delta = inp["delta"]
        times, f2, _ = fourstate.interference_trajectory(delta, 2.0 * math.pi * frac, steps)
        return times, float(np.abs(f2 - np.cos(delta * times)).max()) / _TOL["interference"]

    for name, case in (
        ("dynamics.von_neumann2", von_neumann2), ("dynamics.von_neumann4", von_neumann4),
        ("dynamics.bloch", bloch), ("dynamics.open_const", open_const),
        ("dynamics.open_callable", open_callable), ("dynamics.syncoherence", syncoherence),
        ("fourstate.interference", interference),
    ):
        with gate.task(name):
            with tracer.span(name) as sp:
                times, headroom = case()
                sp.count("steps", len(times) - 1)
            # headroom = residual / tolerance, so a check passes while it is at most 1
            sp.count("headroom", headroom)
            gate.check(f"{name} closed-form residual", headroom <= 1.0,
                       f"residual is {headroom!r} times its tolerance")
    return {}


# ---------------------------------------------------------------------------
# substates: the manifolds layer at large n * 2^m
# ---------------------------------------------------------------------------

SUBSTATE_CASES = {"m4": (16, 4), "m8": (16, 8), "n8192": (64, 6), "m12": (16, 12)}
_TINY_SUBSTATE_CASES = {"m4": (8, 3), "m8": (8, 4), "n8192": (16, 3), "m12": (8, 6)}
BELL_ANGLE_PAIRS = 334   # three correlator angles per Bell check, about 1000 in all


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def substates_inputs(seed: int, size: str, out_dir: Path) -> dict:
    tiny = size == "tiny"
    rng = np.random.default_rng([seed, 4])
    axis, kappa = _unit(rng), rng.uniform(0.5, 3.0)

    def density(points):
        return np.exp(kappa * (points @ axis))

    cases = _TINY_SUBSTATE_CASES if tiny else SUBSTATE_CASES
    bell_pairs = rng.uniform(0.0, 2.0 * math.pi, size=(10 if tiny else BELL_ANGLE_PAIRS, 2))
    return {
        "density": density,
        "mean": (1.0 / math.tanh(kappa) - 1.0 / kappa) * axis,
        "grids": {"r64": 16, "r512": 32} if tiny else {"r64": 64, "r512": 512},
        "cases": {tag: (res, [_unit(rng) for _ in range(m)]) for tag, (res, m) in cases.items()},
        "bases": {res: manifolds.grid_ensemble(res, density)
                  for res in {res for res, _ in cases.values()}},
        "bell_ensemble": fourstate.symmetrized_hidden_ensemble(rng, n_base=4, order=6),
        "bell_angles": [(float(t1), float(t2)) for t1, t2 in bell_pairs],
    }


def substates_pass(inp: dict, tracer, gate: Gate) -> dict:
    with gate.task("grids"):
        for tag, res in inp["grids"].items():
            with tracer.span(f"manifolds.grid_ensemble.{tag}"):
                ens = manifolds.grid_ensemble(res, inp["density"])
            with tracer.span(f"manifolds.reduce_ensemble.{tag}"):
                state = manifolds.reduce_ensemble(ens)
            # second-order quadrature: the grid mean is within 1/res^2 of the integral
            _close(gate, f"grid {tag} mean", float(np.abs(state.rho - inp["mean"]).max()), 0.0,
                   1.0 / res**2)
    for tag, (res, dirs) in inp["cases"].items():
        base = inp["bases"][res]
        n, m = len(base), len(dirs)
        with gate.task(f"substates {tag}"):
            guard_substates(n, m)
            before = _rss_bytes()
            with tracer.span(f"manifolds.extend_to_substates.{tag}") as sp:
                sub = manifolds.extend_to_substates(base, dirs)
                sp.count("rows", len(sub))
            # Peak RSS growth over the RSS before the call. It is the call's peak
            # allocation for the case that sets the process peak, m12.
            sp.count("peak_bytes", max(0, _peak_rss_bytes() - before))
            marginals = np.bincount(sub.state_index, weights=sub.probs, minlength=n)
            _close(gate, f"substates {tag} marginals", float(np.abs(marginals - base.probs).max()),
                   0.0, 1e-12)
            with tracer.span(f"correlations.classical_correlation.{tag}") as sp:
                classical = [correlations.classical_correlation(dirs[j], dirs[j + 1], sub)
                             for j in range(m - 1)]
                sp.count("calls", m - 1)
            del sub
            for j, value in enumerate(classical):
                pointwise = correlations.pointwise_correlation(
                    observables.TwoLevelObservable(dirs[j]),
                    observables.TwoLevelObservable(dirs[j + 1]), base)
                _close(gate, f"substates {tag} classical vs pointwise", value, pointwise, 1e-12)
    with gate.task("bell"):
        triples = [(t1, t2, t1 - t2) for t1, t2 in inp["bell_angles"]]
        with tracer.span("fourstate.classical_pair_correlator") as sp:
            corr = fourstate.classical_pair_correlator(inp["bell_ensemble"])
            values = {theta: corr(theta) for triple in triples for theta in triple}
            sp.count("calls", 3 * len(triples))
        for t1, t2, _ in triples:
            res = fourstate.bell_check(values.__getitem__, t1, t2)
            gate.check("classical Bell correlator complies", not res.violated,
                       f"lhs {res.lhs!r} > rhs {res.rhs!r} at ({t1!r}, {t2!r})")
    return {}


# ---------------------------------------------------------------------------
# registry and per-layer metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    run_pass: Callable


WORKLOADS = {
    "reproduce": Workload(reproduce_inputs, reproduce_pass),
    "sequences": Workload(sequences_inputs, sequences_pass),
    "trajectories": Workload(trajectories_inputs, trajectories_pass),
    "substates": Workload(substates_inputs, substates_pass),
}


def _self(name):
    return lambda p: p[name]["self_s"]


def _ms(name):
    return lambda p: p[name]["self_s"] * 1e3


def _per_call(name, scale):
    return lambda p: p[name]["self_s"] / p[name]["counts"]["calls"] * scale


def _count(name, key):
    return lambda p: p[name]["counts"][key]


def _rate(name, key):
    return lambda p: p[name]["counts"][key] / p[name]["self_s"]


def _sum_self(names):
    return lambda p: sum(p[n]["self_s"] for n in names)


def _layers() -> list[tuple[str, str, Callable]]:
    """(metric, unit, reader of one pass's span summary)."""
    out = []
    criteria = [f"acceptance.{cid}" for cid in ["basis", *acceptance.CRITERIA]]
    out += [(f"{n}_s", "s", _self(n)) for n in criteria]
    out.append(("acceptance.verify_s", "s", _sum_self(criteria)))
    runs = [f"experiments.{e}" for e in experiments.EXPERIMENTS]
    out += [(f"{n}_s", "s", _self(n)) for n in runs]
    out.append(("experiments.run_s", "s", _sum_self(runs)))
    out.append(("experiments.bytes_written", "count",
                lambda p: sum(p[n]["counts"]["bytes"] for n in runs)))
    out += [
        ("correlations.pair_us", "us", _per_call("correlations.conditional_correlation_2pt", 1e6)),
        ("correlations.triple_us", "us", _per_call("correlations.conditional_correlation_3pt", 1e6)),
        ("qmatrix.anticommutator_us", "us", _per_call("qmatrix.anticommutator_expectation", 1e6)),
        ("qmatrix.nested_anticommutator_us", "us",
         _per_call("qmatrix.nested_anticommutator_expectation", 1e6)),
    ]
    out += [(f"correlations.chain2_ms.m{m}", "ms", _per_call(f"correlations.chain2.m{m}", 1e3))
            for m in CHAIN2_REPS]
    out += [(f"correlations.chain4_ms.m{m}", "ms", _per_call(f"correlations.chain4.m{m}", 1e3))
            for m in CHAIN4_REPS]
    out.append(("correlations.chain_terms.m12", "count",
                lambda p: p["correlations.chain2.m12"]["counts"]["terms"]
                / p["correlations.chain2.m12"]["counts"]["calls"]))
    out += [(f"correlations.mc_samples_per_s.m{m}", "1/s",
             _rate(f"correlations.simulate_sequences.m{m}.jobs1", "samples")) for m in MC_LENGTHS]
    jobs = mc_jobs()
    out += [(f"correlations.mc_jobs2_speedup.m{m}", "ratio",
             lambda p, m=m: p[f"correlations.simulate_sequences.m{m}.jobs1"]["self_s"]
             / p[f"correlations.simulate_sequences.m{m}.jobs{jobs}"]["self_s"]) for m in (2, 10)]
    out.append(("correlations.classical_ms.m12", "ms",
                _per_call("correlations.classical_correlation.m12", 1e3)))
    for case in ("von_neumann2", "von_neumann4", "bloch", "open_const", "open_callable",
                 "syncoherence"):
        out.append((f"dynamics.{case}.steps_per_s", "1/s",
                    _rate(f"dynamics.{case}", "steps")))
        out.append((f"dynamics.{case}.headroom", "ratio",
                    _count(f"dynamics.{case}", "headroom")))
    out.append(("fourstate.interference.steps_per_s", "1/s",
                _rate("fourstate.interference", "steps")))
    out.append(("fourstate.interference.headroom", "ratio",
                _count("fourstate.interference", "headroom")))
    out += [
        ("manifolds.grid_ms.r64", "ms", _ms("manifolds.grid_ensemble.r64")),
        ("manifolds.grid_ms.r512", "ms", _ms("manifolds.grid_ensemble.r512")),
        ("manifolds.reduce_ms.r512", "ms", _ms("manifolds.reduce_ensemble.r512")),
        ("manifolds.substates_ms.m8", "ms", _ms("manifolds.extend_to_substates.m8")),
        ("manifolds.substates_ms.m12", "ms", _ms("manifolds.extend_to_substates.m12")),
        ("manifolds.substates_ms.n8192", "ms", _ms("manifolds.extend_to_substates.n8192")),
        ("manifolds.substates_rows.m12", "count",
         _count("manifolds.extend_to_substates.m12", "rows")),
        ("manifolds.substates_peak_mb.m12", "MB",
         lambda p: p["manifolds.extend_to_substates.m12"]["counts"]["peak_bytes"] / 2**20),
        ("fourstate.bell_correlator_us", "us",
         _per_call("fourstate.classical_pair_correlator", 1e6)),
    ]
    return out


LAYERS = _layers()

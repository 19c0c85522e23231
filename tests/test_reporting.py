"""Streamed CSV output against tables built row by row as dicts.

The references below format every row the way the writer did before it
streamed: one dict per row, the line joined from ``fmt_value(row[c])`` in
column order, the whole table joined in memory. The streamed files must match
them byte for byte.
"""
import math
import tracemalloc

import numpy as np
import pytest

from ensembleq import dynamics
from ensembleq.cli import main
from ensembleq.experiments import ExperimentConfig, run
from ensembleq.reporting import fmt_value, write_csv


def dict_table_bytes(columns, rows) -> bytes:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_value(row[c]) for c in columns))
    return ("\n".join(lines) + "\n").encode()


def decoherence_table(d=-0.35, rho0=(0.4, -0.2, 0.5), t_final=5.0, dt=0.005):
    rho0 = np.asarray(rho0, dtype=float)
    traj = dynamics.integrate_open(rho0, None, d, (0.0, t_final), dt)
    purity = traj.purity
    rows = []
    for i, t in enumerate(traj.times):
        rows.append({"t": float(t), "rho1": traj.bloch[i, 0], "rho2": traj.bloch[i, 1],
                     "rho3": traj.bloch[i, 2], "P": float(purity[i]),
                     "P_ref": float(rho0 @ rho0) * float(np.exp(2 * d * t)), "D": float(d)})
    return dict_table_bytes(["t", "rho1", "rho2", "rho3", "P", "P_ref", "D"], rows)


def syncoherence_table(a=3.0, b=2.0, p0=0.9, d0=0.1, t_final=6.0, dt=0.001):
    flow = dynamics.FlowParams(a, b)
    traj = dynamics.syncoherence_flow(p0, d0, flow, (0.0, t_final), dt)
    p_ref, d_ref = dynamics.syncoherence_closed_form(p0, d0, flow, traj.times)
    rows = []
    for i, t in enumerate(traj.times):
        rows.append({"t": float(t), "P": float(traj.bloch[i, 0]), "D": float(traj.d_values[i]),
                     "P_ref": float(p_ref[i]), "D_ref": float(d_ref[i])})
    return dict_table_bytes(["t", "P", "D", "P_ref", "D_ref"], rows)


def precession_table(omega=1.0, t_final=10.0, dt=0.002):
    ham = dynamics.Hamiltonian(np.array([0.0, 0.0, omega]))
    traj = dynamics.integrate_von_neumann(np.array([1.0, 0.0, 0.0]), ham, (0.0, t_final), dt)
    purity = traj.purity
    rows = []
    for i, t in enumerate(traj.times):
        rows.append({"t": float(t), "rho1": traj.bloch[i, 0], "rho2": traj.bloch[i, 1],
                     "rho3": traj.bloch[i, 2], "P": float(purity[i]),
                     "rho1_ref": math.cos(2 * omega * t), "rho2_ref": math.sin(2 * omega * t)})
    return dict_table_bytes(["t", "rho1", "rho2", "rho3", "P", "rho1_ref", "rho2_ref"], rows)


@pytest.mark.parametrize("name, params, reference", [
    ("decoherence", [], decoherence_table),
    ("decoherence", ["d=-1.2", "rho0=[0.1, 0.7, -0.3]"],
     lambda: decoherence_table(d=-1.2, rho0=(0.1, 0.7, -0.3))),
    ("syncoherence", [], syncoherence_table),
    ("syncoherence", ["a=4.0", "b=1.5"], lambda: syncoherence_table(a=4.0, b=1.5)),
    ("precession", [], precession_table),
    ("precession", ["omega=2.5", "dt=0.001"], lambda: precession_table(omega=2.5, dt=0.001)),
], ids=["decoherence", "decoherence-param", "syncoherence", "syncoherence-param",
        "precession", "precession-param"])
def test_experiment_csv_matches_dict_rows(tmp_path, name, params, reference):
    argv = ["run", "--experiment", name, "--seed", "7", "--out", str(tmp_path)]
    for item in params:
        argv += ["--param", item]
    assert main(argv) == 0
    assert (tmp_path / f"{name}.csv").read_bytes() == reference()


def test_csv_bytes_are_utf8_with_newline_ends(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "x", "flag", "n"], iter([("α/β", 0.1, True, 3), ("b", -2.5, False, 0)]))
    assert path.read_bytes() == ("name,x,flag,n\nα/β,0.10000000000000001,1,3\n"
                                 "b,-2.5,0,0\n").encode("utf-8")


@pytest.mark.parametrize("name", ["precession", "syncoherence"])
def test_run_streams_its_table(tmp_path, name):
    # the writer holds one row at a time and the report no row at all: the
    # 5001- and 6001-row tables cost a few arrays of the trajectory's length
    config = ExperimentConfig(name, {}, seed=0, out_dir=str(tmp_path))
    run(config)   # first-call imports and caches stay out of the measurement
    tracemalloc.start()
    try:
        report = run(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 1.5 * 2**20
    assert held < 64 * 2**10

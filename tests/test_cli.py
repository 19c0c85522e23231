import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensembleq
from ensembleq.cli import main
from ensembleq.experiments import EXPERIMENTS, ConfigError, ExperimentConfig, RunReport, run


def test_bell_sweep_outputs(tmp_path, capsys):
    code = main(["run", "--experiment", "bell-sweep", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    csv_lines = (tmp_path / "bell-sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "theta1,theta2,lhs,rhs,violated"
    # the grid contains the marked violated row at (pi/2, pi/4)
    marked = [
        line for line in csv_lines[1:]
        if line.startswith(f"{math.pi / 2.0:.17g},{math.pi / 4.0:.17g},")
    ]
    assert len(marked) == 1 and marked[0].endswith(",1")
    report = json.loads((tmp_path / "bell-sweep.report.json").read_text())
    assert report["passed"] is True
    assert report["experiment"] == "bell-sweep"
    assert "wall_time" not in report   # files stay byte-reproducible


def test_outputs_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for name in EXPERIMENTS:
        for out in (out_a, out_b):
            assert main(["run", "--experiment", name, "--seed", "42",
                         "--out", str(out)]) == 0
        for suffix in (".csv", ".report.json"):
            assert ((out_a / f"{name}{suffix}").read_bytes()
                    == (out_b / f"{name}{suffix}").read_bytes()), name + suffix


def test_unknown_experiment(tmp_path, capsys):
    code = main(["run", "--experiment", "nope", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in json.loads(err.strip())


def test_unknown_parameter(tmp_path):
    code = main(["run", "--experiment", "interference", "--param", "bogus=3",
                 "--out", str(tmp_path)])
    assert code == 2


def test_invalid_parameter_value(tmp_path):
    code = main(["run", "--experiment", "decoherence", "--param", "d=0.5",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("name, params", [
    ("decoherence", {"d": 0.5}),
    ("decoherence", {"t_final": math.inf}),
    ("decoherence", {"bogus": 1}),
    ("bell-sweep", {"classical_trials": -3}),
    ("bell-sweep", {"classical_trials": 0}),
    ("mc-sequences", {"jobs": 100000, "n": 1000}),
    ("bell-sweep", {"steps": 2.5}),
    ("bell-sweep", {"classical_trials": 3.9}),
    ("mc-sequences", {"n": 2.5}),
    ("mc-sequences", {"jobs": 1.5, "n": 1000}),
    ("bell-sweep", {"classical_trials": True}),
    ("pseudo-quantum-region", {"sizes": [8, 4.5]}),
    ("pseudo-quantum-region", {"sizes": [3, 5, 8]}),
    ("pseudo-quantum-region", {"sizes": [0]}),
    ("correlation-table", {"grid_resolution": 48.5}),
    ("correlation-table", {"grid_resolution": 100000}),
    ("cartesian-spins", {"probs": [math.nan, 0, 0, 0, 0, 0, 0, 1]}),
    ("interference", {"t_final": 1e300}),
    ("syncoherence", {"b": True}),
    ("precession", {"omega": True}),
    ("interference", {"delta": True}),
    ("mc-sequences", {"angles": [True, False]}),
    ("decoherence", {"dt": True}),
    ("decoherence", {"d": math.nan}),
    ("syncoherence", {"p0": math.nan}),
    ("bell-sweep", {"steps": 1e9}),
    ("bell-sweep", {"classical_trials": 1e12}),
    ("mc-sequences", {"n": 1e15}),
    ("pseudo-quantum-region", {"sizes": [100000000]}),
    ("pseudo-quantum-region", {"sizes": [4096] * 100000}),
    ("cartesian-spins", {"probs": 7}),
    ("cartesian-spins", {"free_p1": False}),
    ("cartesian-spins", {"free_p1": "1/4"}),
    ("interference", {"points": 65537}),
], ids=["bad-rate", "unbounded-span", "unknown-key", "negative-trials", "zero-trials",
        "too-many-jobs", "fractional-steps", "fractional-trials", "fractional-n",
        "fractional-jobs", "bool-trials", "fractional-size", "size-not-multiple-of-4",
        "zero-size", "fractional-grid", "oversized-grid", "nan-probs", "overflowing-span",
        "bool-b", "bool-omega", "bool-delta", "bool-angles", "bool-dt", "nan-d", "nan-p0",
        "oversized-steps", "oversized-trials", "oversized-n", "oversized-size",
        "too-many-sizes", "scalar-probs", "bool-free_p1", "string-free_p1",
        "points-over-limit"])
def test_config_error_writes_no_files(tmp_path, name, params):
    # parameters, integration and checks all run before a file is opened
    with pytest.raises(ConfigError):
        run(ExperimentConfig(name, params, seed=0, out_dir=str(tmp_path)))
    assert not (tmp_path / f"{name}.csv").exists()
    assert not (tmp_path / f"{name}.report.json").exists()


@pytest.mark.parametrize("name, key, text", [
    ("mc-sequences", "angles", "0.5"),
    ("pseudo-quantum-region", "sizes", "8"),
    ("cartesian-spins", "free_p1", "false"),
    ("cartesian-spins", "free_p1", '"1/4"'),
    ("cartesian-spins", "free_p1", "[0.25]"),
    ("interference", "delta", "[1.0]"),
    ("precession", "omega", "[1.0]"),
    ("syncoherence", "a", "[3.0]"),
    ("decoherence", "d", "[-0.35]"),
    ("correlation-table", "rho", "[0.1, 0.2]"),
    ("cartesian-spins", "probs", "7"),
    ("mc-sequences", "angles", "[[0.0], [1.0]]"),
    ("interference", "delta", "1" + "0" * 400),
    ("interference", "points", "1" + "0" * 5000),
    ("decoherence", "rho0", "[" + ", ".join(["0.125"] * 5000) + "]"),
    ("pseudo-quantum-region", "sizes", "s" * 10000),
], ids=["scalar-angles", "scalar-sizes", "bool-free_p1", "string-free_p1", "list-free_p1", "list-delta",
        "list-omega", "list-a", "list-d", "short-rho", "scalar-probs", "nested-angles", "huge-delta",
        "huge-points", "long-rho0", "long-string-sizes"])
def test_config_error_names_the_parameter(tmp_path, capsys, name, key, text):
    # these failed as "object of type 'float' has no len()", "'int' object is not iterable",
    # ran free_p1=false as p1 = 0, or failed on a scalar given as a list in numpy or in
    # an operator ("bad operand type for unary -: 'list'"); a 400-digit delta failed as
    # "int too large to convert to float", naming no parameter; a 5001-digit count (kept
    # as text, over Python's int digit limit) was repeated in full in the message
    code = main(["run", "--experiment", name, "--param", f"{key}={text}", "--out", str(tmp_path)])
    assert code == 2
    line = capsys.readouterr().err
    assert len(line) < 200
    assert json.loads(line)["error"].startswith(
        (f"{key} must be", f"invalid parameters for {name!r}: {key} must be"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, config, start", [
    (["--experiment", "x" * 10000], None, "unknown experiment 'xxxx"),
    (["--experiment", "interference", "--param", "k" * 10000 + "=3"], None, "unknown parameter 'kkkk"),
    (["--experiment", "interference", "--param", "p" * 10000], None, "--param expects key=value, got 'pppp"),
    ([], list(range(10**5)), "config file must hold a JSON object, got [0, 1,"),
    ([], {"experiment": "interference", "params": list(range(10**5))}, "config field 'params' must be an object"),
    ([], {"experiment": "interference", "k" * 10000: 1}, "unknown config keys ['kkkk"),
], ids=["long-experiment", "long-param-key", "long-param-without-=", "long-config-array", "long-config-params",
        "long-config-key"])
def test_a_long_value_is_shortened_in_the_error_line(tmp_path, capsys, argv, config, start):
    # each value was repeated in full: a config file of a 10^5-entry array gave a 688,945-byte line
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json"), *argv]
    assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 2
    line = capsys.readouterr().err
    assert len(line) <= 200 and line.count("\n") == 1, line
    assert json.loads(line)["error"].startswith(start)
    assert not (tmp_path / "out").exists()


def test_a_long_criterion_id_is_shortened_in_the_error_line(capsys):
    assert main(["verify", "--criteria", "c5," + "c" * 10000]) == 2
    captured = capsys.readouterr()
    assert len(captured.err) <= 200 and captured.err.count("\n") == 1, captured.err
    assert json.loads(captured.err)["error"].startswith("unknown criteria ['cccc")
    assert captured.out == ""


def test_interference_with_a_step_below_the_normal_floats_samples_the_run(tmp_path):
    # the run takes one step of the smallest normal float; indexing as if it took points * 16 raised IndexError
    report = run(ExperimentConfig("interference", {"t_final": 1e-310, "points": 4}, seed=0, out_dir=str(tmp_path)))
    assert report.passed
    rows = (tmp_path / "interference.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.0, 1e-310, 1e-310]


@pytest.mark.parametrize("param, error", [
    ("points=65537", "points = 65537; the limit is 65536"),
    ("delta=2000", "purity exceeded 3 at t = 0.0015339807878856412: P = 7.089"),
    ("delta=1850", "purity exceeded 3 at t = 0.0015339807878856412: P = 3.096"),
], ids=["points-over-limit", "delta-2000", "delta-1850"])
def test_interference_error_names_what_the_caller_gave(tmp_path, capsys, param, error):
    # points = 65537 was reported as n_steps = 1048592, a count the caller never gave, and
    # delta = 2000 as an overflow within 4096 steps, though its purity passes 3 at the first step
    assert main(["run", "--experiment", "interference", "--param", param, "--out", str(tmp_path)]) == 2
    line = capsys.readouterr().err
    assert line.count("\n") == 1 and json.loads(line)["error"].startswith(
        f"invalid parameters for 'interference': {error}"), line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("free_p1", [0, Fraction(1, 8), 0.125], ids=["int", "Fraction", "float"])
def test_free_p1_keeps_its_exactness(tmp_path, free_p1):
    report = run(ExperimentConfig("cartesian-spins", {"free_p1": free_p1}, seed=0, out_dir=str(tmp_path)))
    exact = not isinstance(free_p1, float)
    assert isinstance(report.results["pair_sums"][0], Fraction) == exact
    assert report.results["purity_quantum"] == 1


# JSON-shaped values that no parameter accepts, or that sit on a parameter's edge
_JUNK = st.sampled_from([None, True, False, "1", math.nan, math.inf, -math.inf, [], {}])
# reals: 0, the lower bound of spans, steps, rates and free_p1, and values below
# it; small values that keep step counts low; a subnormal; huge ones, the float
# extremes and an int beyond the float range
_REAL = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0, 1e-310, 1e300, -1e300,
                                   sys.float_info.max, -sys.float_info.max, 10**400]), _JUNK)


def _count(lo, hi):
    """Counts from lo - 1 up to a small hi, a fraction, a whole float, and junk."""
    return st.one_of(st.integers(lo - 1, hi), st.sampled_from([float(lo), lo + 0.5]), _JUNK)


def _vector(length):
    entries = st.sampled_from([0.0, 0.125, 0.3, -0.5, 1.0])
    return st.one_of(st.lists(entries, min_size=length, max_size=length),
                     st.lists(_REAL, max_size=length + 1), _REAL)


_PARAMS = {
    "bell-sweep": {"steps": _count(2, 4), "classical_trials": _count(1, 3)},
    "interference": {"delta": _REAL, "t_final": _REAL, "points": _count(2, 8)},
    "decoherence": {"d": _REAL, "rho0": _vector(3), "t_final": _REAL, "dt": _REAL},
    "syncoherence": dict.fromkeys(("a", "b", "p0", "d0", "t_final", "dt"), _REAL),
    "precession": dict.fromkeys(("omega", "t_final", "dt"), _REAL),
    "cartesian-spins": {"probs": _vector(8), "free_p1": _REAL},
    "pseudo-quantum-region": {"sizes": st.one_of(st.lists(_count(4, 12), max_size=3), _JUNK)},
    "correlation-table": {"rho": _vector(3), "grid_resolution": _count(2, 4)},
    "mc-sequences": {"angles": st.one_of(st.lists(_REAL, max_size=4), _REAL), "rho": _vector(3),
                     "n": _count(1, 64), "jobs": _count(1, 2)},
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_config_is_a_report_or_a_config_error(tmp_path_factory, name, data):
    params = data.draw(st.fixed_dictionaries({}, optional=_PARAMS[name]), label="params")
    out = tmp_path_factory.mktemp(name)
    try:
        report = run(ExperimentConfig(name, params, seed=0, out_dir=str(out)))
    except ConfigError:
        assert list(out.iterdir()) == []
    else:
        assert isinstance(report, RunReport)


def _cli(*args):
    """``python -W error -m ensembleq`` run on ``args`` in a fresh process, with the package's source first on
    the path: a warning ends the run in a traceback."""
    src = str(Path(ensembleq.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error", "-m", "ensembleq", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_huge_bloch_vector_writes_only_the_error(tmp_path):
    done = _cli("run", "--experiment", "mc-sequences", "--param", "rho=[1e300,0,0]", "--out", str(tmp_path))
    assert done.returncode == 2
    assert "purity bound" in json.loads(done.stderr)["error"]
    assert len(done.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_overflowing_hamiltonian_writes_only_the_error(tmp_path):
    # 2 f.h overflowed with a RuntimeWarning, a traceback and exit 1 under -W error
    done = _cli("run", "--experiment", "precession", "--param", "omega=1e308", "--out", str(tmp_path))
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert "generator 2 f.h overflows" in json.loads(done.stderr)["error"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_final", ["inf", "1e7"])
def test_unbounded_span_is_a_config_error(tmp_path, capsys, t_final):
    # an infinite span, or one of 2e9 steps at the default dt, is rejected
    # before the trajectory is allocated
    code = main(["run", "--experiment", "decoherence", "--param", f"t_final={t_final}",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())

def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "interference",
        "params": {"delta": 2.0, "points": 64},
        "seed": 3,
    }))
    code = main(["run", "--config", str(cfg), "--param", "points=32", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "interference.csv").read_text().splitlines()
    assert len(lines) == 33   # header plus 32 sample rows
    report = json.loads((tmp_path / "interference.report.json").read_text())
    assert report["params"]["points"] == 32
    assert report["params"]["delta"] == 2.0
    assert report["seed"] == 3


@pytest.mark.parametrize("seed", [1.5, "x", True, -1])
def test_bad_config_file_seed_is_a_config_error(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "interference", "seed": seed}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "seed" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not (tmp_path / "interference.csv").exists()


@pytest.mark.parametrize("cfg, field", [
    ([1, 2], "config file"),
    ({"experiment": ["x"]}, "'experiment'"),
    ({"experiment": "interference", "params": [1, 2]}, "'params'"),
    ({"experiment": "interference", "out": 123}, "'out'"),
], ids=["list", "experiment", "params", "out"])
def test_malformed_config_file_field_is_a_config_error(tmp_path, monkeypatch, capsys, cfg, field):
    # without --out the run writes to the working directory, so a body that ran first would leave files there
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and field in json.loads(err[0])["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unknown_config_keys_are_a_config_error(tmp_path, monkeypatch, capsys):
    # the misspelt keys were dropped: the run took the default 256 points at seed 0 and exited 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"experiment": "interference", "param": {"points": 16}, "sed": 3}))
    assert main(["run", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and all(key in json.loads(err[0])["error"] for key in ("'param'", "'sed'"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_jobs_flag_overrides_the_config_file(tmp_path):
    # the file's params.jobs won over --jobs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "mc-sequences", "params": {"jobs": 1, "n": 200000}}))
    assert main(["run", "--config", str(cfg), "--jobs", "2", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "mc-sequences.report.json").read_text())["params"]["jobs"] == 2


@pytest.mark.parametrize("argv", [
    ["run", "--experiment", "interference", "--seed", "abc"],
    ["run", "--experiment", "interference", "--seed", "1.5"],
    ["run", "--experiment", "interference", "--seed", "null"],
    ["run", "--experiment", "mc-sequences", "--jobs", "x"],
    ["verify", "--seed", "abc"],
], ids=["run-seed-abc", "run-seed-fraction", "run-seed-null", "run-jobs-x", "verify-seed-abc"])
def test_malformed_flag_value_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    # argparse's type=int printed usage text, no error JSON, for the strings; --seed null ran at seed 0
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and "error" in json.loads(captured.err)
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_whole_float_seed_flag_is_the_int_seed(tmp_path):
    # --seed 7.0 was an argparse error; in a config file it already meant seed 7
    for label, seed in (("float", "7.0"), ("int", "7")):
        assert main(["run", "--experiment", "interference", "--seed", seed, "--param", "points=16",
                     "--out", str(tmp_path / label)]) == 0
    for suffix in (".csv", ".report.json"):
        assert ((tmp_path / "float" / f"interference{suffix}").read_bytes()
                == (tmp_path / "int" / f"interference{suffix}").read_bytes())


def test_a_program_error_is_not_a_config_error(tmp_path, monkeypatch):
    # a TypeError or OverflowError in a body was reported as invalid parameters (exit 2)
    def broken(params, seed):
        raise TypeError("planted")

    monkeypatch.setitem(EXPERIMENTS, "interference", broken)
    with pytest.raises(TypeError, match="planted"):
        run(ExperimentConfig("interference", {}, seed=0, out_dir=str(tmp_path)))
    assert list(tmp_path.iterdir()) == []


def test_negative_run_seed_is_a_config_error(tmp_path, capsys):
    code = main(["run", "--experiment", "interference", "--seed", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "seed" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not (tmp_path / "interference.csv").exists()


def test_whole_float_config_seed_is_written_as_an_int(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "interference", "seed": 7.0,
                               "params": {"points": 16}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    seed = json.loads((tmp_path / "interference.report.json").read_text())["seed"]
    assert seed == 7 and type(seed) is int   # JSON 7, not 7.0


def test_all_experiments_pass(tmp_path):
    for name in ("interference", "decoherence", "syncoherence", "precession",
                 "cartesian-spins", "pseudo-quantum-region", "correlation-table"):
        report = run(ExperimentConfig(name, {}, seed=11, out_dir=str(tmp_path)))
        assert report.passed, name
        assert (tmp_path / f"{name}.csv").exists()
        assert (tmp_path / f"{name}.report.json").exists()


def test_integral_float_counts_match_ints(tmp_path):
    # a count written as a whole float (JSON 1e4) is the same run as the int
    params = {
        "bell-sweep": ({"steps": 4, "classical_trials": 3}, {"steps": 4.0, "classical_trials": 3.0}),
        "mc-sequences": ({"n": 10000, "jobs": 2}, {"n": 1e4, "jobs": 2.0}),
        "correlation-table": ({"grid_resolution": 8}, {"grid_resolution": 8.0}),
    }
    for name, (ints, floats) in params.items():
        for label, given in (("int", ints), ("float", floats)):
            run(ExperimentConfig(name, given, seed=3, out_dir=str(tmp_path / label)))
        assert ((tmp_path / "int" / f"{name}.csv").read_bytes()
                == (tmp_path / "float" / f"{name}.csv").read_bytes())


def test_pseudo_quantum_region_every_multiple_of_4(tmp_path):
    sizes = list(range(4, 65, 4))
    report = run(ExperimentConfig("pseudo-quantum-region", {"sizes": sizes}, seed=0,
                                  out_dir=str(tmp_path)))
    assert report.passed
    assert sorted(map(int, report.results["polygons"])) == sizes


def test_mc_sequences_jobs_flag(tmp_path):
    code = main(["run", "--experiment", "mc-sequences", "--seed", "5", "--jobs", "2",
                 "--param", "n=200000", "--out", str(tmp_path)])
    assert code == 0


def test_run_api_rejects_bad_config():
    with pytest.raises(ConfigError):
        run(ExperimentConfig("does-not-exist", {}, 0, "."))


def test_tolerance_failure_exit_code(tmp_path):
    # a step too coarse for the 1e-6 closed-form tolerance: the run completes,
    # reports the failed check, and exits 1
    code = main(["run", "--experiment", "syncoherence", "--param", "dt=0.5",
                 "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "syncoherence.report.json").read_text())
    assert report["passed"] is False


def test_verify_subset(capsys):
    code = main(["verify", "--criteria", "c9,c10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "c9" in out and "c10" in out and "PASS" in out
    assert "3/3 criteria passed" in out   # subset plus the basis audit


@pytest.mark.parametrize("criteria", ["c55", "c5,c55"])
def test_verify_unknown_criterion_is_a_config_error(capsys, criteria):
    code = main(["verify", "--criteria", criteria])
    captured = capsys.readouterr()
    assert code == 2
    assert "c55" in json.loads(captured.err.strip())["error"]
    assert captured.out == ""   # nothing ran, not even the basis audit


def test_verify_negative_seed_is_a_config_error(capsys):
    code = main(["verify", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "seed" in json.loads(captured.err.strip())["error"]
    assert captured.out == ""   # rejected before any criterion ran


def test_verify_prints_failing_checks(capsys, monkeypatch):
    from ensembleq import acceptance
    from ensembleq.experiments import Check

    failing = acceptance._criterion(
        "c9", "stub",
        lambda params, seed: [Check("held", True, 0.0, 0.0, 0.0), Check("broken", False, 2.0, 1.0, 0.5)])
    monkeypatch.setitem(acceptance.CRITERIA, "c9", failing)
    assert main(["verify", "--criteria", "c9"]) == 1
    out = capsys.readouterr().out
    assert "  [ok  ] held: value 0 vs 0 (tol 0)" in out
    assert "  [FAIL] broken: value 2 vs 1 (tol 0.5)" in out
    assert "1/2 criteria passed" in out


def test_verify_reports_a_criterion_that_raises_as_a_failure(capsys, monkeypatch):
    from ensembleq import acceptance
    from ensembleq.validate import ConstraintViolation

    def raises(**kwargs):
        raise ConstraintViolation("planted")

    ran = []
    for cid in acceptance.CRITERIA:   # a cheap passing stub for each criterion; c8 then raises
        passing = acceptance._criterion(cid, f"stub {cid}", lambda params, seed, cid=cid: ran.append(cid) or [])
        monkeypatch.setitem(acceptance.CRITERIA, cid, passing)
    monkeypatch.setitem(acceptance.CRITERIA, "c8", raises)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^FAIL +c8 ", out, re.M)
    assert "  [FAIL] raised ConstraintViolation: planted: value nan vs 0 (tol 0)" in out
    assert all(re.search(rf"^PASS +{cid} ", out, re.M) for cid in ("c9", "c10"))
    assert ran == [cid for cid in acceptance.CRITERIA if cid != "c8"]
    assert "10/11 criteria passed" in out
    with pytest.raises(ConstraintViolation):   # a direct call still raises
        acceptance.CRITERIA["c8"]()


def test_cartesian_report_contents(tmp_path):
    report = run(ExperimentConfig("cartesian-spins", {}, seed=0, out_dir=str(tmp_path)))
    res = report.results
    assert res["purity_before"] == pytest.approx(1.0 / 3.0)
    assert res["purity_classical"] == pytest.approx(3.0)
    assert res["classical_flagged"] is True
    assert res["purity_quantum"] == pytest.approx(1.0)
    assert res["pair_sums"] == [0.5, 0.5, 0.5, 0.5]


def test_cartesian_free_p1_reaches_the_quantum_rule(tmp_path):
    code = main(["run", "--experiment", "cartesian-spins", "--param", "free_p1=0.1",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "cartesian-spins.csv").read_text().splitlines()
    quantum = [float(x) for x in lines[3].split(",")[1:9]]
    assert lines[3].startswith("quantum,")
    assert quantum == pytest.approx([0.1, 0.4, 0.4, 0.1, 0, 0, 0, 0], abs=1e-15)


def test_cartesian_free_p1_out_of_range(tmp_path, capsys):
    code = main(["run", "--experiment", "cartesian-spins", "--param", "free_p1=0.75",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())

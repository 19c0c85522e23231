import json
import math

import pytest

from ensembleq.cli import main
from ensembleq.experiments import EXPERIMENTS, ConfigError, ExperimentConfig, run


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
], ids=["bad-rate", "unbounded-span", "unknown-key", "negative-trials", "zero-trials",
        "too-many-jobs", "fractional-steps", "fractional-trials", "fractional-n",
        "fractional-jobs", "bool-trials", "fractional-size", "size-not-multiple-of-4",
        "zero-size", "fractional-grid", "oversized-grid", "nan-probs", "overflowing-span",
        "bool-b", "bool-omega", "bool-delta", "bool-angles", "bool-dt", "nan-d", "nan-p0",
        "oversized-steps", "oversized-trials", "oversized-n", "oversized-size"])
def test_config_error_writes_no_files(tmp_path, name, params):
    # parameters, integration and checks all run before a file is opened
    with pytest.raises(ConfigError):
        run(ExperimentConfig(name, params, seed=0, out_dir=str(tmp_path)))
    assert not (tmp_path / f"{name}.csv").exists()
    assert not (tmp_path / f"{name}.report.json").exists()


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

    failing = acceptance._criterion("c9", "stub", register=False)(
        lambda: [Check("held", True, 0.0, 0.0, 0.0), Check("broken", False, 2.0, 1.0, 0.5)])
    monkeypatch.setitem(acceptance.CRITERIA, "c9", failing)
    assert main(["verify", "--criteria", "c9"]) == 1
    out = capsys.readouterr().out
    assert "  [ok  ] held: value 0 vs 0 (tol 0)" in out
    assert "  [FAIL] broken: value 2 vs 1 (tol 0.5)" in out
    assert "1/2 criteria passed" in out


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

"""Every output pinned: experiment files and acceptance checks against checked-in digests.

``output_digests.txt`` holds the SHA-256 of each experiment's ``.csv`` and
``.report.json`` at the default seed and at seed 7, then the ``repr`` of every
check ``run_all()`` returns (its timings are left out). A change that moves an
output regenerates the file and says why:

    PYTHONPATH=src python tests/test_outputs.py > tests/output_digests.txt

The digests pin one numpy build; after a numpy upgrade, regenerate them in a
change of their own, never alongside a source change.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import ensembleq
from ensembleq.acceptance import run_all
from ensembleq.experiments import EXPERIMENTS, ExperimentConfig, run

DIGESTS = Path(__file__).with_name("output_digests.txt")


def fresh_table(out_dir: Path) -> list[str]:
    lines = []
    for seed in (0, 7):
        out = out_dir / str(seed)
        for name in EXPERIMENTS:
            run(ExperimentConfig(name, seed=seed, out_dir=str(out)))
            for suffix in (".csv", ".report.json"):
                digest = hashlib.sha256((out / f"{name}{suffix}").read_bytes()).hexdigest()
                lines.append(f"seed {seed} {name}{suffix} {digest}")
    return lines + [f"{result.cid} {check!r}" for result in run_all() for check in result.checks]


def test_outputs_match_the_checked_in_digests(tmp_path):
    fresh = fresh_table(tmp_path)
    if fresh != DIGESTS.read_text(encoding="utf-8").splitlines():
        print("\n".join(fresh))   # the table to check in, if the change is meant
    assert fresh == DIGESTS.read_text(encoding="utf-8").splitlines()


_RUN_ALL = (
    "import sys\n"
    "from ensembleq.experiments import EXPERIMENTS, ExperimentConfig, run\n"
    "for name in EXPERIMENTS:\n"
    "    run(ExperimentConfig(name, seed=7, out_dir=sys.argv[1]))\n"
)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a long dot product across threads, so a BLAS sum's order follows the count
    src = str(Path(ensembleq.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", _RUN_ALL, str(tmp_path / threads)], env=env,
                       capture_output=True, timeout=300, check=True)
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(names) == 2 * len(EXPERIMENTS)
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(fresh_table(Path(tmp))))

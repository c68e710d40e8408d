"""Every script imports and parses its arguments; each also runs once.

The scripts drive ``jpjica.cli`` and have no other test, so a renamed
public name or a removed CLI flag would only surface when an experiment
is run.  ``--help`` imports the script and builds its parser, and runs
nothing else.  ``study.py comparison`` runs end to end at one seed, and
``compare_runs.py`` on two tiny results directories.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "usage:" in proc.stdout


def test_study_comparison_runs_end_to_end(tmp_path):
    """One dataset, decomposed by both algorithms, gives one table row per algorithm."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "comparison"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "study.py"), "comparison",
         "--seeds", "1", "--out", str(out)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(p.name for p in out.iterdir()) == [
        "data_0", "run_jithica_0", "run_jpji_0", "tables"
    ]
    rows = (out / "tables" / "comparison.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["jithica", "1"], ["jpji", "1"]]
    assert len((out / "tables" / "kurtosis_scatter.csv").read_text().splitlines()) > 1


def _compare_runs(run_a, run_b):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_runs.py"), str(run_a), str(run_b)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_compare_runs_on_two_tiny_runs(tmp_path):
    """Two runs of one seed are at parity; a perturbed matrix or label is not."""
    from jpjica import cli
    from jpjica import io as jio

    data = tmp_path / "data"
    argv = ["simulate", "--subjects", "3", "--joint", "1", "--individual", "1",
            "--voxels", "512", "--time", "40", "--seed", "2", "--out", str(data)]
    assert cli.main(argv) == cli.EXIT_OK
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        assert cli.main(["decompose", str(data), "--out", str(run), "--seed", "2"]) == cli.EXIT_OK
    proc = _compare_runs(*runs)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1] == "parity"
    assert "sub01 sources: 0" in proc.stdout

    bumped = tmp_path / "bumped"
    shutil.copytree(runs[1], bumped)
    path = bumped / "sub02_sources.csv"
    jio.save_matrix(path, jio.load_matrix(path) * (1 + 1e-9))
    proc = _compare_runs(runs[0], bumped)
    assert proc.returncode == 1
    assert "FAIL sub02 sources" in proc.stdout

    relabelled = tmp_path / "relabelled"
    shutil.copytree(runs[1], relabelled)
    labels = relabelled / "labels.csv"
    labels.write_text(labels.read_text().replace("joint", "individual", 1))
    proc = _compare_runs(runs[0], relabelled)
    assert proc.returncode == 1
    assert "FAIL labels.csv differs" in proc.stdout

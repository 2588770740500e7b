"""Smoke tests for the walkthrough scripts under ``demos/``.

Each script runs as its own process in a fresh directory, must exit 0 and
must write exactly its files into ``./demo_out/``.  A bitmap per sweep is
written too when matplotlib is importable.
"""
import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sirmap

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(sirmap.__file__).resolve().parents[1]
PLOTS = importlib.util.find_spec("matplotlib") is not None

WRITES = {
    "attractor_sweep.py": ["flip_cascade.csv", "ns_branch.csv"]
    + (["flip_cascade.png", "ns_branch.png"] if PLOTS else []),
    "boundary_atlas.py": ["boundary_atlas.json"],
    "cycle_birth_table.py": ["cycle_births.json"],
    "region_probe.py": ["region_probe.json"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(WRITES)


@pytest.mark.parametrize("script", sorted(WRITES))
def test_demo_runs_and_writes_its_files(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    out = tmp_path / "demo_out"
    assert sorted(p.name for p in out.iterdir()) == sorted(WRITES[script])
    for name in WRITES[script]:
        path = out / name
        if path.suffix == ".json":
            assert json.loads(path.read_text())
        elif path.suffix == ".csv":
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)

"""Each script under scripts/ runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# run id -> script and small arguments, so the runs take a few seconds together
RUNS = {
    "chain_growth.py": ("chain_growth.py", ["--mode", "exact"]),
    "chain_growth.py-sampled": ("chain_growth.py", ["--mode", "sampled"]),
    "sampling_demo.py": ("sampling_demo.py", ["--side", "3", "--count", "200"]),
    "sparsifier_scaling.py": ("sparsifier_scaling.py", ["--sides", "4", "6"]),
}


def test_every_script_is_listed():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(
        {name for name, _ in RUNS.values()})


@pytest.mark.parametrize("run", sorted(RUNS))
def test_script_runs(run):
    name, args = RUNS[run]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

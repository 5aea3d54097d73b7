"""Each script under scripts/ runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# small arguments, so the three runs take a few seconds together
SCRIPTS = {
    "chain_growth.py": ["--mode", "exact"],
    "sampling_demo.py": ["--side", "3", "--count", "200"],
    "sparsifier_scaling.py": ["--sides", "4", "6"],
}


def test_every_script_is_listed():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *SCRIPTS[name]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

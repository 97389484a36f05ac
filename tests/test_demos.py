"""The demo scripts run to completion against the package in src/ and print
what they compute themselves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# lines a demo must print, for what it computes beyond the package's stages
PRINTS = {"02_chain_and_tower.py": ("span dim 24 of 24  (capped)", "span dim 23 of 24  (stable)",
                                    "orthogonal to the dual span: 1.000000"),
          "03_classification.py": ("relation: +0.1543 I -0.7715 T_1 +0.6172 T_2 = 0",
                                   "relation: +0.2673 I -0.8018 T_1 +0.5345 T_2 = 0")}


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_cleanly(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for line in PRINTS.get(script.name, ()):
        assert line in proc.stdout, line

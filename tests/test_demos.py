"""Smoke test: every demo script runs to completion."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "02_euler_systems_and_orbits":
        assert "orbit = all euler systems: True" in proc.stdout
    if demo.stem == "03_interlacement_matrices":
        assert "the square commutes: True" in proc.stdout
    if demo.stem == "05_partition_profiles":
        assert "engines agree: True" in proc.stdout

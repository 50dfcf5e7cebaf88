"""Every demo script runs to completion, and so does the report on the sample input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pricekit.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()


def test_sample_report_runs(capsys):
    assert main(["report", str(ROOT / "demos" / "sample_process.json")]) == 0
    assert capsys.readouterr().out.strip()

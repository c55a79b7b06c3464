"""Each script under scripts/ runs end to end at a small size and prints
its table header."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, header",
    [
        (
            ["wcol_heuristic_probe.py", "--max-n", "6", "--max-d", "2"],
            "graph     d  heuristic  exact  ratio",
        ),
        (
            ["sylvester_trend.py", "--max-p", "2"],
            "p  n    sqrt(n)  exact  spectral   bf_achieved  2t-1",
        ),
        (
            ["constant_bound_scan.py", "--sizes", "10", "--seeds", "1"],
            "n     seed  achieved  bound",
        ),
    ],
)
def test_script_runs(argv, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()

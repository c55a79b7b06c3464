"""Each script under scripts/ runs end to end at a small size and prints
its table header."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(argv: list[str]) -> str:
    """The stdout of scripts/argv[0] run with argv[1:], asserting exit 0."""
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
    return proc.stdout


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
            "n     seed  achieved  bound    closure  qf_color_s  defined_s",
        ),
        (
            ["reach_kernel_ratios.py", "--sizes", "63", "65", "--repeats", "1"],
            "n     p  reader    r=1    r=2    r=3    r=4",
        ),
    ],
)
def test_script_runs(argv, header):
    assert header in run_script(argv).splitlines()


class TestReachKernelBound:
    """The last line of reach_kernel_ratios.py: the largest n up to which
    every size won, with the sizes walked in ascending order."""

    def test_last_line(self):
        lines = run_script(["reach_kernel_ratios.py", "--sizes", "65", "63", "--repeats", "1"])
        lines = lines.splitlines()
        assert [int(line.split()[0]) for line in lines[1:-1]] == [63] * 4 + [65] * 4
        assert re.fullmatch(r"masks win every cell up to n = (none|63|65)", lines[-1])

    def test_walk_stops_at_the_first_loss(self):
        spec = importlib.util.spec_from_file_location(
            "reach_kernel_ratios", ROOT / "scripts" / "reach_kernel_ratios.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.mask_bound([]) is None
        assert script.mask_bound([(63, False), (65, True)]) is None
        assert script.mask_bound([(63, True), (65, False), (128, True)]) == 63
        assert script.mask_bound([(63, True), (65, True)]) == 65

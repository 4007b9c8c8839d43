"""The benchmark's own checks pass against this checkout's package.

A traced ``train_short`` run checks that its replica of ``train()`` gives
byte-identical parameters and that the per-stage MACs and attention calls
match perfbench's closed form. A traced ``eval_long`` run checks token,
span and unique counts against brute force, traced against plain scores,
and the recording against the non-recording forward at every level name.
Both reach the package only through public names, so they fail when one of
them changes. Each run works on a copy, so its ``.perfbench_out/`` lands
in a temporary directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train_short", "eval_long"])
def test_perfbench_traced_run_is_correct(workload, tmp_path):
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

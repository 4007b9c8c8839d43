"""The benchmark's own checks pass against this checkout's package.

A traced ``train_short`` run checks that its replica of ``train()`` gives
byte-identical parameters and that the per-stage MACs and attention calls
match perfbench's closed form; it reaches the package only through public
names, so it fails when one of them changes. The run works on a copy, so
its ``.perfbench_out/`` lands in a temporary directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_train_short_traced_run_is_correct(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_short",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

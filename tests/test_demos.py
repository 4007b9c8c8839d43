"""The fast demos run to completion against the current library API.

Each demo runs in its own interpreter with ``PYTHONPATH=src``, so it
imports this checkout's package, and must exit 0. The slow demos stay
manual: ``demo_multimention.py`` (about 156 s), ``demo_train_overfit.py``
(about 21 s) and ``demo_benchmark.py`` (about 8 s), timed on a 2-vCPU
machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["demo_pipeline.py",
                                  "demo_autodiff_gradcheck.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]

#!/usr/bin/env python3
"""Benchmark of spancascade's long-document predict path and its training.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload eval_long --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from ``src/`` next to this directory; nothing needs
to be installed. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones listed
in BENCHMARK.json, with ``--trace 1`` the per-layer ones from a traced run.
The full result, with the environment block, and the spans of a traced run
are written under ``.perfbench_out/``. See README.md in this directory for
the workloads and for which layer metric should move which end-to-end one.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("eval_long", "train_short", "train_long")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_state() -> dict:
    """Commit and dirty flag when the checkout is itself a git work tree."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True).stdout
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit.strip(), "dirty": bool(status.strip())}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        # recorded as found; the benchmark never sets them
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "workers": 1,
        **git_state(),
    }


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: [(m["name"], m["unit"]) for m in spec[kind]]
            for kind in ("end_to_end", "per_layer")}


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return 1
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spancascade" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import spancascade
    import workloads

    if Path(spancascade.__file__).resolve().parent != SRC / "spancascade":
        print(f"perfbench: imported {spancascade.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "eval_long":
        out = workloads.run_eval_long(args.seed, args.seconds, bool(args.trace),
                                      T_START)
    else:
        make_inputs = (workloads.train_short_inputs
                       if args.workload == "train_short"
                       else workloads.train_long_inputs)
        out = workloads.run_training(make_inputs, args.seed, args.seconds,
                                     bool(args.trace), T_START)

    declared = declared_metrics()
    if args.trace:
        kind, values, default = "per_layer", out.layers, 0.0
    else:
        kind, values, default = "end_to_end", out.e2e, None
    metrics = {name: {"value": values.get(name, default), "unit": unit}
               for name, unit in declared[kind]}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        out.fail(f"not measured: {', '.join(missing)}")
    out.info["failed_frac"] = out.failed / max(1, out.attempted)
    correct = not out.problems

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in out.info.items():
        print(f"  {key}: {json.dumps(value)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for problem in out.problems[:20]:
        print(f"  FAILED: {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "env": env,
                   "info": out.info, "problems": out.problems,
                   "end_to_end": out.e2e, "per_layer": out.layers,
                   "attempted": out.attempted, "failed": out.failed}, fh,
                  indent=1, sort_keys=True)
    if out.tracer is not None:
        out.tracer.write(OUT_DIR / f"{stem}-spans.json")

    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

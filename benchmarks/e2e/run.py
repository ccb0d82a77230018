#!/usr/bin/env python3
"""End-to-end TINGe benchmark: run workloads, print every metric, check outputs.

    python3 benchmarks/e2e/run.py [--seed N] [--out DIR] [--workload NAME ...]
                                  [--seconds S] [--trace [0|1]] [--smoke]

Each workload runs in its own fresh interpreter (``workloads.py``), one
at a time, with ``src`` on the path and ``REPRO_CC_CACHE`` /
``REPRO_AUTOTUNE_CACHE`` pointed at an empty directory under ``DIR``.
BLAS thread variables are inherited unchanged and recorded.  Every
metric is printed by name with its unit, each workload's full result is
written to ``DIR/<workload>.json`` (plus ``DIR/<workload>.trace.jsonl``
with ``--trace``), and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when any output check fails or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# This process imports nothing from the program, so that it can report a
# missing source tree; the workloads and run time come from the spec.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: A workload that has not finished by then is killed with its workers.
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="makes the inputs (default 0, the seed of the committed baseline)")
    ap.add_argument("--seconds", type=float,
                    help="measured operation time per workload (default: run_seconds "
                         "of BENCHMARK.json; 0 with --smoke, which then runs each "
                         "workload's minimum)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="report per-layer metrics from a traced replay instead")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_e2e",
                    help="result directory (default: .bench_e2e at the repo root)")
    ap.add_argument("--smoke", action="store_true",
                    help="small shapes, for a fast end-to-end check")
    return ap.parse_args(argv)


def run_workload(args, workload: str) -> "dict | None":
    """Run one workload in a fresh interpreter; its result dict or None."""
    cache = args.out / "cache" / workload
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    tmp = args.out / "tmp"  # temporary files (the C compiler's too) stay under DIR
    tmp.mkdir(exist_ok=True)
    result_path = args.out / f"{workload}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["REPRO_CC_CACHE"] = str(cache)
    env["REPRO_AUTOTUNE_CACHE"] = str(cache / "autotune_tiles.json")
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_FAULTS", None)  # never inject faults into a measurement
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(args.out)]
    if args.smoke:
        cmd.append("--smoke")
    # A session of its own, so that stopping it also reaches forked workers.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
    finally:
        try:  # whatever is left: a timed-out workload or stray workers
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode < 0 or not result_path.exists():
        print(f"error: {workload} exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else SPEC["run_seconds"]
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: the program source {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or list(WORKLOADS)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(args, workload)
        if result is None:
            return 1
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for section in ("metrics", "extras"):
            for name, m in result[section].items():
                print(f"{workload:17s} {name:38s} {m['value']:.6g} {m['unit']}")
        for name, ok in result["checks"].items():
            print(f"{workload:17s} check {name}: {'ok' if ok else 'FAILED'}")
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name, m in result["metrics"].items():
            summary["metrics"][prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

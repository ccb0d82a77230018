"""Smoke test of the end-to-end benchmark.

Runs BENCHMARK.json's command as written, with ``--smoke`` (small
shapes, each workload's minimum of work) appended, untraced and traced.
It asserts that every metric BENCHMARK.json names is reported with its
declared unit, and that every output check passes.  A second test runs
the pipeline checks on tile grids other than the default one.
"""

import json
import math
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_declared_metric(tmp_path, trace, section):
    proc = subprocess.run(
        SPEC["command"] + ["--smoke", "--trace", str(trace), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(summary["metrics"]) == {f"{w}/{name}" for w in WORKLOADS for name in declared}
    for workload in WORKLOADS:
        result = json.loads((tmp_path / f"{workload}.json").read_text())
        assert result["checks"] and all(result["checks"].values()), result["checks"]
        assert result["failed"] == 0
        assert result["metadata"]["seed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        for name, m in result["metrics"].items():
            assert math.isfinite(m["value"]), (workload, name)
            if section == "end_to_end":
                assert m["value"] > 0, (workload, name)
        if trace:
            assert (tmp_path / f"{workload}.trace.jsonl").stat().st_size > 0


@pytest.mark.parametrize("tile", [16, 128])
def test_pipeline_checks_follow_the_tile_grid(monkeypatch, tile):
    """The MI sub-block check holds for tiles below and above 64 genes."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads
    from repro.core.pipeline import TingeConfig, TingePipeline
    from repro.data import arabidopsis_scale

    ds = arabidopsis_scale(n_genes=200, m_samples=64, seed=3)
    cfg = TingeConfig(tile=tile)
    result = TingePipeline(cfg).run(ds.expression, list(ds.genes))
    run = SimpleNamespace(seed=0, checks={})
    run.check = lambda name, ok: run.checks.__setitem__(name, bool(ok))
    workloads.check_pipeline(run, result, np.asarray(ds.expression), cfg)
    assert len(run.checks) == 3 and all(run.checks.values()), run.checks

#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files (``<workload>.json``, searched
recursively) from runs of ``run.py`` made with identical benchmark code
and settings, one run per seed.  Runs are paired by workload and seed.
The rules (choosing-metrics guide, sections 6-8):

* at least 10 pairs per workload, with parent-first and change-first
  runs balanced (their counts differ by at most one);
* a **gain** needs the change to win at least 9 of every 10 pairs (ties
  count for neither) and a median gap wider than the parent's own
  interquartile range;
* a **regression** is a change median worse than the parent median by
  more than the metric's bound from BENCHMARK.json (timings also by more
  than 0.05 s), or any rise in the share of failed operations;
* a metric whose parent spread (IQR / median) exceeds its bound is
  **unresolved**, unless every change run beats (or loses to) every
  parent run;
* metrics without a bound (per-layer metrics and workload extras) get a
  **loss** by the mirror of the gain rule, otherwise no claim.

Result sets whose recorded metadata differ (other than commit, seed and
cache directory) are refused.  Exit code: 0 no regression, 1 regression,
2 refused.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
SECONDS_FLOOR = 0.05
#: Metadata that legitimately differs between runs of one comparison.
RUN_SPECIFIC = ("git_sha", "seed", "program_cache_dir")


class Refused(Exception):
    """The result sets cannot be compared."""


def load_results(directory: Path) -> list:
    results = []
    for path in sorted(directory.rglob("*.json")):
        try:
            data = json.loads(path.read_text())
        except ValueError:
            continue
        if isinstance(data, dict) and {"workload", "metrics", "metadata"} <= data.keys():
            results.append(data)
    if not results:
        raise Refused(f"no result files under {directory}")
    return results


def check_metadata(results: list) -> None:
    def settings(r):
        return {k: v for k, v in r["metadata"].items() if k not in RUN_SPECIFIC}

    reference = settings(results[0])
    for r in results[1:]:
        if settings(r) != reference:
            diff = {k for k in reference.keys() | settings(r).keys()
                    if reference.get(k) != settings(r).get(k)}
            raise Refused(f"recorded metadata differ in {sorted(diff)}")
    failed = [r["workload"] for r in results if not r["correct"]]
    if failed:
        raise Refused(f"runs with failed output checks: {sorted(set(failed))}")


def pair_runs(parent: list, change: list) -> dict:
    """workload -> [(parent_result, change_result)], paired by seed."""
    def by_key(results):
        keyed = {}
        for r in results:
            key = (r["workload"], r["metadata"]["seed"])
            if key in keyed:
                raise Refused(f"two {key[0]} runs with seed {key[1]} on one side")
            keyed[key] = r
        return keyed

    p, c = by_key(parent), by_key(change)
    pairs: dict = {}
    for key in sorted(p.keys() & c.keys()):
        pairs.setdefault(key[0], []).append((p[key], c[key]))
    for workload, runs in pairs.items():
        if len(runs) < MIN_PAIRS:
            raise Refused(f"{workload}: {len(runs)} pairs, need {MIN_PAIRS}")
        parent_first = sum(pr["started_at"] < cr["started_at"] for pr, cr in runs)
        if abs(2 * parent_first - len(runs)) > 1:
            raise Refused(f"{workload}: parent ran first in {parent_first} of "
                          f"{len(runs)} pairs; alternate the order")
    if not pairs:
        raise Refused("no workload and seed appears in both result sets")
    return pairs


def quartiles(values: list) -> tuple:
    return tuple(statistics.quantiles(values, n=4))


def judge(name: str, unit: str, better: str, bound, runs: list) -> dict:
    """Statistics and verdict of one metric over paired runs."""
    p = [pr[name] for pr, _ in runs]
    c = [cr[name] for _, cr in runs]
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0 means worse
    p_q1, p_med, p_q3 = quartiles(p)
    c_q1, c_med, c_q3 = quartiles(c)
    need = math.ceil(WIN_SHARE * len(runs))
    wins = sum(sign * (cv - pv) < 0 for pv, cv in zip(p, c))
    losses = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
    clear_gap = abs(c_med - p_med) > p_q3 - p_q1
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else math.inf
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = max(sign * v for v in c) < min(sign * v for v in p)
    all_worse = min(sign * v for v in c) > max(sign * v for v in p)
    if bound is not None and spread > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif wins >= need and worse_by < 0 and clear_gap:
        verdict = "gain"
    elif bound is None:
        verdict = "loss" if losses >= need and worse_by > 0 and clear_gap else "no claim"
    elif worse_by > bound and (unit != "s" or abs(c_med - p_med) > SECONDS_FLOOR):
        verdict = "REGRESSION"
    else:
        verdict = "within bound"
    return {"metric": name, "unit": unit, "bound": bound, "verdict": verdict,
            "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "wins": wins, "pairs": len(runs), "spread": spread, "delta": worse_by * sign}


def flatten(result: dict) -> dict:
    return {name: m["value"] for section in ("metrics", "extras")
            for name, m in result.get(section, {}).items()}


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> dict:
    """workload -> judged metrics (see :func:`judge`)."""
    parent, change = load_results(parent_dir), load_results(change_dir)
    check_metadata(parent + change)
    pairs = pair_runs(parent, change)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = {}
    for workload, runs in pairs.items():
        flat = [(flatten(pr), flatten(cr)) for pr, cr in runs]
        described = {}
        for section in ("metrics", "extras"):
            for name, m in runs[0][0].get(section, {}).items():
                described[name] = (m["unit"], m["better"])
        # failed_frac is judged on the pooled counts below, not per run.
        judged = [judge(name, unit, better, bounds.get(name), flat)
                  for name, (unit, better) in described.items()
                  if name != "failed_frac"
                  and all(name in p and name in c for p, c in flat)]
        p_fail = sum(pr["failed"] for pr, _ in runs) / sum(pr["attempted"] for pr, _ in runs)
        c_fail = sum(cr["failed"] for _, cr in runs) / sum(cr["attempted"] for _, cr in runs)
        judged.append({"metric": "failed_frac", "unit": "ratio", "bound": 0.0,
                       "verdict": "REGRESSION" if c_fail > p_fail else "within bound",
                       "parent": (p_fail,) * 3, "change": (c_fail,) * 3,
                       "wins": 0, "pairs": len(runs), "spread": 0.0,
                       "delta": c_fail - p_fail})
        rows[workload] = judged
    return rows


def report(rows: dict, spec: dict) -> bool:
    """Print one row per workload plus the per-metric detail; True if any
    bounded metric regressed."""
    e2e = [m["name"] for m in spec["end_to_end"]] + ["failed_frac"]
    print("workload".ljust(18) + "".join(name.ljust(26) for name in e2e))
    for workload, judged in rows.items():
        cells = {j["metric"]: j for j in judged}
        line = workload.ljust(18)
        for name in e2e:
            j = cells.get(name)
            cell = "-" if j is None else f"{j['verdict']} ({100 * j['delta']:+.1f}%)"
            line += cell.ljust(26)
        print(line)
    print()
    regressed = False
    for workload, judged in rows.items():
        for j in judged:
            regressed = regressed or j["verdict"] == "REGRESSION"
            pm, pq1, pq3 = j["parent"]
            cm, cq1, cq3 = j["change"]
            bound = "-" if j["bound"] is None else f"{j['bound']:.2f}"
            print(f"{workload:17s} {j['metric']:38s} parent {pm:.5g} [{pq1:.5g}, {pq3:.5g}] "
                  f"change {cm:.5g} [{cq1:.5g}, {cq3:.5g}] {j['unit']}  "
                  f"wins {j['wins']}/{j['pairs']}  spread {j['spread']:.3f}  "
                  f"bound {bound}  {j['verdict']}")
    return regressed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(args.parent_dir, args.change_dir, spec)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    return 1 if report(rows, spec) else 0


if __name__ == "__main__":
    sys.exit(main())

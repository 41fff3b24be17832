"""Compare two sets of recorded runs, metric by metric and workload by workload.

    python3 bench/run.py --compare base.jsonl change.jsonl

Each file holds the lines ``--record`` appended: one untraced run per line.
For every (workload, end-to-end metric) pair the table gives both sides'
median and quartiles, the ratio of the medians with its base, and a verdict
against the bound that BENCHMARK.json fixes for the metric:

* ``better``: the change wins at least nine tenths of the runs paired in
  recorded order, and the medians differ by more than the base's spread
  (the distance between its quartiles);
* ``unresolved``: the base's spread, as a share of its median, is wider
  than the bound, and not every change run reads better than every base
  run, so the data cannot say whether the metric held;
* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``within-bound``: none of the above; the metric held within its bound.

Runs made with and without ``python -O`` measure different programs (the
library's self-duality cross-check is an assertion), so a comparison that
mixes ``__debug__`` values is refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and metrics, with units, better
    directions and bounds."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if not r["env"]["trace"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1  # sign * (x - y) > 0: x is worse
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (bm - cm) > b3 - b1:
        return "better"
    if bm == 0:
        return "unresolved" if cm != 0 else "within-bound"
    if (b3 - b1) / abs(bm) > bound:
        if all(sign * (b - c) > 0 for b in base for c in change):
            return "better"
        return "unresolved"
    if sign * (cm - bm) / abs(bm) > bound:
        return "worse"
    return "within-bound"


def main(base_path: str, change_path: str) -> int:
    spec = benchmark_spec()
    sides = {"base": load(base_path), "change": load(change_path)}
    debug = {r["env"]["debug"] for runs in sides.values() for r in runs}
    if len(debug) > 1:
        print("error: runs with and without __debug__ cannot be compared", file=sys.stderr)
        return 2
    values: dict[str, dict] = {side: defaultdict(lambda: defaultdict(list)) for side in sides}
    for side, runs in sides.items():
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                values[side][r["env"]["workload"]][name].append(m["value"])
    print(f"{'workload':<11} {'metric':<14} {'base q1/med/q3':<30} {'change q1/med/q3':<30} "
          f"{'ratio (base)':<22} verdict")
    worse = False
    for workload in sorted(set(values["base"]) | set(values["change"])):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = values["base"][workload][name]
            change = values["change"][workload][name]
            if not base or not change:
                print(f"{workload:<11} {name:<14} missing on one side")
                continue
            bq, cq = quartiles(base), quartiles(change)
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            v = verdict(base, change, metric["bound"], metric["better"])
            worse |= v == "worse"
            ratio_text = f"{ratio:.3f} ({bq[1]:.4g})"
            print(f"{workload:<11} {name:<14} {_fmt(bq):<30} {_fmt(cq):<30} "
                  f"{ratio_text:<22} {v:<13} n={len(base)}/{len(change)}")
    return 1 if worse else 0


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{x:.4g}" for x in q)

#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

Usage::

    python benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the JSON lines ``run.py --out`` appends, one per run; a
set should hold at least five runs of each workload.  For every workload
and metric found in both sets the table shows each set's median and
quartiles over its runs, the change from A to B, the bound from
BENCHMARK.json and a verdict:

* ``within``: the change is no larger than the bound;
* ``worse`` / ``better``: the median moved by more than the bound;
* ``unresolved``: a set's quartile spread exceeds the bound, unless every
  run of B is better than every run of A.

Per-layer metrics have no bound; their verdict is ``-``.  Exit status 1
when any metric is worse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from run import ROOT, quartiles


def load_set(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> the values of that metric, one per run."""
    runs: Dict[str, Dict[str, List[float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        metrics = runs.setdefault(result["workload"], {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: Optional[float]
) -> str:
    if bound is None:
        return "-"
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    if not am or not bm or max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        every_run_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "better" if every_run_better else "unresolved"
    worsening = (bm - am) / am if better == "lower" else (am - bm) / am
    if worsening > bound:
        return "worse"
    if -worsening > bound:
        return "better"
    return "within"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    first, second = load_set(args[0]), load_set(args[1])
    width = max((len(name) for metrics in first.values() for name in metrics), default=6)
    header = (f"{'workload':<18} {'metric':<{width}} {'unit':<6} {'A median [q1, q3]':>30} "
              f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    worse = False
    for workload in sorted(first.keys() & second.keys()):
        for name, a in first[workload].items():
            b = second[workload].get(name)
            if b is None:
                continue
            better, bound = bounds.get(name, ("lower", None))
            outcome = verdict(a, b, better, bound)
            worse |= outcome == "worse"
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            am, bm = quartiles(a)[1], quartiles(b)[1]
            change = f"{(bm - am) / am:+.1%}" if am else "n/a"
            print(f"{workload:<18} {name:<{width}} {units.get(name, '?'):<6} {cells[0]:>30} "
                  f"{cells[1]:>30} {change:>8} "
                  f"{'-' if bound is None else f'{bound:.0%}':>6}  {outcome}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

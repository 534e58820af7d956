"""Parent-versus-change comparison on one workload.

    python3 perfbench/compare.py --parent ../parent --change . --workload train_dispatch

Both directories are checkouts holding the same ``perfbench/`` and a
``BENCHMARK.json``.  Pair i = 1..10 runs ``--seed i`` on both sides, the
parent first on odd i and the change first on even i.  For each end-to-end
metric it prints both medians and quartiles, the change's wins, and a
verdict.  The quality metrics are exact at a fixed seed, so any difference
on any seed is reported as a change in the forecasts, however small.  For
the times, a gain needs at least 9 of 10 pairs won (ties count for neither)
and a median difference larger than the parent's interquartile distance; a
loss beyond the metric's bound is a regression; a parent spread wider than
the bound leaves the metric unresolved.  The exit code is 1 if any metric
regressed or any forecast changed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # seeds 1..10, as in README.md
# exact at a fixed seed: any per-seed difference is a change in the forecasts
QUALITY = ("mse", "smape", "mse_vs_naive")


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{checkout} seed {seed}: run failed\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"parent": [], "change": []}
    for i in range(PAIRS):
        seed = i + 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            sides[side].append(run(checkout, args.workload, seed, spec["run_seconds"]))
        print(f"pair {i + 1} (seed {seed}) done, {order[0]} first", flush=True)

    flagged = False
    for name, m in metrics.items():
        p = [r[name] for r in sides["parent"]]
        c = [r[name] for r in sides["change"]]
        sign = -1.0 if m["better"] == "lower" else 1.0
        wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
        q1, p_med, q3 = statistics.quantiles(p, n=4)
        c_med = statistics.median(c)
        worse_by = -sign * (c_med - p_med) / p_med
        changed = sum(cv != pv for pv, cv in zip(p, c))
        if name in QUALITY and changed:
            verdict = (f"FORECASTS CHANGED on {changed}/{len(p)} seeds "
                       f"(better on {wins}, median worse by {worse_by:.2%})")
        elif name in QUALITY:
            verdict = "identical on every seed"
        elif wins >= 0.9 * len(p) and abs(c_med - p_med) > q3 - q1:
            verdict = "gain"
        elif "bound" in m and (q3 - q1) / p_med > m["bound"]:
            verdict = "unresolved (parent spread wider than bound)"
        elif "bound" in m and worse_by > m["bound"]:
            verdict = f"REGRESSION (worse by {worse_by:.1%}, bound {m['bound']:.0%})"
        else:
            verdict = "no change beyond bound"
        flagged = flagged or verdict.startswith(("REGRESSION", "FORECASTS CHANGED"))
        print(f"{name:<14} parent {p_med:.6g} [{q1:.6g}, {q3:.6g}]  "
              f"change {c_med:.6g}  wins {wins}/{len(p)}  {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload verify --seeds 1-10 --seconds 20

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric its median and its spread: (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  Each metric's spread
should stay below a third of its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = [f"seed {seed}: correct={result['correct']}"
                f" failed={result['failed']}/{result['attempted']}"]
        for name, rec in result["metrics"].items():
            values.setdefault(name, []).append(rec["value"])
            line.append(f"{name}={rec['value']:.5g}")
        print("  ".join(line), flush=True)
    for name, vals in values.items():
        bound = bounds.get(name)
        spread = quartile_spread(vals) if len(vals) > 1 else float("nan")
        note = "" if bound is None else (
            f"  bound {bound}  {'OK' if spread < bound / 3 else 'WIDE'}")
        print(f"{name:40s} median {statistics.median(vals):.6g}"
              f"  spread {spread:.4f}{note}")


if __name__ == "__main__":
    main()

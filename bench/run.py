"""Benchmark entry point.

    python3 bench/run.py --workload train|verify|eval --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  The library is imported from ``src/`` next to
this directory and nowhere else.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
A results file with run metadata goes to ``bench/results/``.  ``all`` runs
each workload untraced in its own process and prints each report.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train", "verify", "eval")

# One BLAS thread: the machine may have only two cores, and the stage-1 loss
# differs in its last bits between one and two OpenBLAS threads, which would
# break the digest checks.  Must be set before numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Put ``ROOT/src`` first on the path and import morphkit from there only."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    try:
        import morphkit
    except ImportError as err:
        sys.exit(f"bench: cannot import morphkit from {src}: {err}")
    where = Path(morphkit.__file__).resolve()
    if src.resolve() not in where.parents:
        sys.exit(f"bench: morphkit was imported from {where}, not from {src}")


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(result, doc, path):
    m = doc["meta"]
    print(f"workload {m['workload']}  seed {m['seed']}  seconds {m['seconds']}"
          f"  trace {m['trace']}  blas threads {m['blas_threads_in_use']}")
    for name, rec in result["metrics"].items():
        print(f"  {name:42s} {fmt(rec['value']):>12s} {rec['unit']}")
    for name, (value, unit) in doc["report"].items():
        print(f"  {name:42s} {fmt(value):>12s} {unit}")
    s = doc["samples"]
    if s.get("tail_percentile"):
        print(f"  {'tail: p' + s['tail_percentile'] + '_ms':42s}"
              f" {fmt(s['tail_ms']):>12s} ms  (highest percentile with >= 10"
              f" of {s['ops']} ops beyond it)")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':42s} {fmt(rate):>12s}   "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for key in ("d_eer", "bpcer_at_apcer_5", "bpcer_at_apcer_10"):
        if key in doc["info"]:
            print(f"  {key + ' (informational)':42s}"
                  f" {fmt(doc['info'][key]):>12s}")
    print(f"  digest {doc['digest']}  results {path.relative_to(ROOT)}")
    for err in doc["errors"]:
        print(f"  FAILED: {err}")


def run_all(args):
    """Each workload untraced in its own process, so each has its own peak RSS."""
    results = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_library()
    import harness

    result, doc = harness.run(args.workload, args.seed, args.seconds,
                              args.trace, ROOT, blas_threads=BLAS_THREADS)
    path = harness.write_results(ROOT, doc)
    print_report(result, doc, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

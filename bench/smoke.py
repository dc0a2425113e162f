"""Smoke check of the benchmark itself, or one full pass over every workload.

    python3 bench/smoke.py                      # tiny sizes
    python3 bench/smoke.py --full --seconds 30  # full sizes, prints every metric

Runs every workload of ``BENCHMARK.json``, untraced and traced, and confirms
that each run exits 0 and that its last stdout line is a result carrying
exactly the metrics ``BENCHMARK.json`` names for that mode, each a finite
number with its declared unit.  At tiny size output correctness is reported,
not required, because the statistical checks need the full sizes; with
``--full`` an incorrect run fails too.  Exits 1 when any run falls short.
"""
from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def problems_of(stdout: str, expected: dict) -> list:
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"no result line: {exc}"]
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted = {result['attempted']!r}")
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != expected:
        problems.append(f"metrics/units {units} != {expected}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="full sizes; print every metric")
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if not args.full:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"] \
                if proc.returncode else problems_of(proc.stdout, {m["name"]: m["unit"] for m in spec[key]})
            result = None if problems else json.loads(proc.stdout.strip().splitlines()[-1])
            if result is not None and args.full and not result["correct"]:
                problems.append("correct is false")
            if not problems:
                print(f"ok    {workload} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                if args.full:
                    for name, m in result["metrics"].items():
                        print(f"      {name:46s} {m['value']:14.6g} {m['unit']}")
            else:
                failures += 1
                print(f"FAIL  {workload} trace={trace}: " + "; ".join(problems))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload gb --seeds 1-10 [--trace 0|1] [--out FILE]

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  ``--out`` appends one JSON line per run set, which is
how ``baseline.json`` is recorded.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, env, failed = {}, None, 0
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
        env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:45s} median {median:12.6g}  spread {spread:7.4f}{flag}")
    print(f"failed ops or incorrect runs: {failed}")
    if args.out:
        record = {"workload": args.workload, "trace": args.trace, "seeds": args.seeds,
                  "env": {k: env[k] for k in ("nproc", "python", "platform", "commit", "seconds")},
                  "failed": failed, "metrics": summary}
        with args.out.open("a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the randomized punctured-spectrum harness and store its report.

Each trial draws a pure, graph-connected simplicial complex, quotients
its face ring by a small random set of monomials (at most dimension
minus two of them), and checks that the punctured spectrum stays
connected.  Any failure is recorded with enough data to replay it.
"""

import argparse
import sys
from pathlib import Path

from ringgraph import RingGraphError, faltings_harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20260819)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--max-facet-size", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    args = parser.parse_args()

    try:
        report = faltings_harness(
            trials=args.trials,
            seed=args.seed,
            max_vertices=args.max_vertices,
            max_facet_size=args.max_facet_size,
        )
    except RingGraphError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(report.to_json())
        print(f"report written to {args.out}")
    print(
        f"trials={args.trials} seed={args.seed} "
        f"passed={report.passed} failed={report.failed} ok={report.ok}"
    )
    for failure in report.failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

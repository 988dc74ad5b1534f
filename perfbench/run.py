"""Run the fbenv benchmark.

    python3 perfbench/run.py --workload train_lockstep --seed 1 --seconds 45 --trace 0

``--workload all`` runs the three workloads in turn. Each workload
prints a table of its metrics and then one JSON line::

    {"correct": true, "attempted": 17012, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones listed in
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones. The
last line of the output is the JSON result (for ``all``, a combined
one whose metric names are prefixed with the workload). The exit code
is 1 when a fidelity or determinism check failed, 2 when the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MANIFEST = json.loads((BENCH_DIR / "manifest.json").read_text())
WORKLOADS = tuple(MANIFEST["workloads"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=MANIFEST["default_seed"])
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def result_line(outcome) -> dict:
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }


def table(workload: str, outcome) -> str:
    rows = [("attempted", str(outcome.attempted), "ops"), ("failed", str(outcome.failed), "ops")]
    rows += [(name, f"{m['value']:.6g}", m["unit"]) for name, m in outcome.metrics.items()]
    width = max(len(name) for name, _, _ in rows)
    lines = [f"== {workload}"]
    lines += [f"  {name:<{width}}  {value:>14}  {unit}" for name, value, unit in rows]
    lines += [f"  FAILED CHECK: {problem}" for problem in outcome.problems]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fbenv" / "__init__.py").is_file():
        print(f"perfbench: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads


    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        outcome = workloads.run(name, args.seed, args.seconds, bool(args.trace))
        line = result_line(outcome)
        print(table(name, outcome))
        print(json.dumps(line), flush=True)
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    if len(names) > 1:
        print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

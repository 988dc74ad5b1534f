"""Compare two checkouts with alternating pairs of perfbench runs.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload train_lockstep capture_live --seed 1 --seconds 45 --pairs 10 \\
        --out BENCH.json

Each pair runs ``perfbench/run.py --trace 0`` once from each checkout, for
every named workload in turn. Even pairs run the parent first, odd pairs
the change, so a drift in the host's speed falls on both sides alike.

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the median of the per-pair change/parent ratios, and in how many
pairs the change was better (ties count for neither side). A metric's
direction and regression bound come from the parent's BENCHMARK.json. A
metric is unresolved when either side's runs spread wider than its bound,
unless every change run beats every parent run.
``--out`` writes every run and the summary to a JSON file under
``sets["<workload>_seed_<seed>"]``, keeping the other sets already in it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run from ``checkout``; its result line, with
    the exit code and the wall time of the whole process. A run that gives
    no result line, or outlives its timeout, counts as incorrect; a timed-out
    one has exit code None."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    failed = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                              timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired:
        result = {**failed, "error": "timed out", "exit_code": None}
    else:
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {**failed, "error": done.stderr.strip()[-2000:]}
        result["exit_code"] = done.returncode
    result["wall_s"] = time.perf_counter() - started
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(pairs: list[dict], metrics: dict) -> dict:
    """Summary of one workload's pairs, each ``{"parent": result, "change":
    result}``. ``metrics`` maps each metric to ``{"better": "higher" or
    "lower", "bound": relative worsening allowed}``.

    A metric's ``gain`` holds when the change won at least nine tenths of
    the pairs and the medians differ by more than the parent's interquartile
    range; ``change_worse_by`` is the change median's worsening relative to
    the parent median (negative when it is better), ``within_bound`` compares
    it with the bound. ``unresolved`` holds when either side's (q3 - q1) /
    median exceeds the bound and not every change run beats every parent
    run: the runs are too spread to call the metric unchanged.
    """
    summary = {
        "pairs": len(pairs),
        "all_correct": all(p[side]["correct"] for p in pairs for side in ("parent", "change")),
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in ("parent", "change")},
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
        "metrics": {},
    }
    for name, rule in metrics.items():
        values = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in pairs]
        values = [(a, b) for a, b in values if a is not None and b is not None]
        if len(values) < 2:
            continue
        sign = 1 if rule["better"] == "higher" else -1
        parent, change = _spread([a for a, _ in values]), _spread([b for _, b in values])
        worse_by = sign * (parent["median"] - change["median"]) / parent["median"]
        wins = sum(sign * (b - a) > 0 for a, b in values)
        wide = any((side["q3"] - side["q1"]) / side["median"] > rule["bound"] for side in (parent, change))
        all_beat = all(sign * (b - a) > 0 for a, _ in values for _, b in values)
        summary["metrics"][name] = {
            "parent": parent,
            "change": change,
            "median_of_pair_ratios": statistics.median(b / a for a, b in values),
            "change_wins": wins,
            "gain": wins >= 0.9 * len(values)
            and abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
            "change_worse_by": worse_by,
            "within_bound": worse_by <= rule["bound"],
            "unresolved": wide and not all_beat,
        }
    return summary


def format_summary(workload: str, seed: int, summary: dict) -> str:
    lines = [f"== {workload} seed {seed}: {summary['pairs']} pairs, all correct: "
             f"{summary['all_correct']}, failed ops parent/change: "
             f"{summary['failed']['parent']}/{summary['failed']['change']}"]
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"  {name:<16} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            f"  ratio {m['median_of_pair_ratios']:.4f}  wins {m['change_wins']}/{summary['pairs']}"
            f"  gain {m['gain']}  within bound {m['within_bound']}  unresolved {m['unresolved']}"
        )
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in benchmark["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {workload: [] for workload in args.workload}
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            pair = {"pair": index, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed, args.seconds)
                print(f"pair {index} {workload} {side}: correct={pair[side]['correct']} "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
            runs[workload].append(pair)
    sets = {}
    for workload, pairs in runs.items():
        summary = summarize(pairs, metrics)
        print(format_summary(workload, args.seed, summary))
        sets[f"{workload}_seed_{args.seed}"] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {args.seed} "
                       f"--seconds {args.seconds:g} --trace 0",
            "summary": summary,
            "runs": pairs,
        }
    if args.out:
        document = json.loads(args.out.read_text()) if args.out.exists() else {}
        document.setdefault("sets", {}).update(sets)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    correct = all(s["summary"]["all_correct"] for s in sets.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

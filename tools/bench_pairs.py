#!/usr/bin/env python3
"""Paired benchmark runs of two trees, summarized into one JSON file.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload stream_replay \\
        --pairs 10 --seconds 35 --seed 1 --out BENCH_<pr>.json

Pair ``i`` runs ``bench/run.py --workload W --seed S0+i --seconds S
--trace 0`` with this Python once in each tree, from that tree's root: the
parent first in even pairs, the change first in odd ones.  Each run keeps
the JSON object on the last line of its standard output, and the report
digest and machine facts of the record it writes to ``.bench_out/``.  The
file holds every run and, for each end-to-end metric of the change tree's
``BENCHMARK.json`` (only read), each side's median and quartiles and the
number of pairs in which the change is better by the metric's ``better``
field.  It also records, per seed, whether the two sides' report digests
agree.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``tree``: its result object, report digest and
    machine facts."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True).stdout
    path = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    return {"result": json.loads(out.splitlines()[-1]), "report_digest": record["report_digest"],
            "machine": record["machine"]}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        values = values * 2  # quantiles needs two points
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, each side's median and quartiles and the change's pair
    wins; per seed, whether the report digests agree.  Each pair holds its
    ``seed`` and, per side, a run as :func:`run_once` returns it."""
    summary = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [pair[side]["result"]["metrics"][name]["value"] for pair in pairs]
                  for side in SIDES}
        wins = sum((change > parent) if higher else (change < parent)
                   for parent, change in zip(values["parent"], values["change"]))
        summary[name] = {"unit": metric["unit"], "better": metric["better"],
                         **{side: _spread(values[side]) for side in SIDES},
                         "change_wins": wins, "pairs": len(pairs)}
    return {
        "metrics": summary,
        "digests_agree": {str(pair["seed"]): pair["parent"]["report_digest"]
                          == pair["change"]["report_digest"] for pair in pairs},
        "correct": all(pair[side]["result"]["correct"] for pair in pairs for side in SIDES),
        "failed": {side: sum(pair[side]["result"]["failed"] for pair in pairs) for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "; ".join(
            f"{side} " + " ".join(f"{name} {metric['value']:.6g}"
                                  for name, metric in pair[side]["result"]["metrics"].items())
            for side in SIDES), file=sys.stderr)
    result = {"workload": args.workload, "seconds": args.seconds, "seed": args.seed,
              **summarize(pairs, declared["end_to_end"]), "runs": pairs}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

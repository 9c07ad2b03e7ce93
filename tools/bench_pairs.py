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
``BENCHMARK.json`` (only read), each side's median and quartiles, the
number of pairs in which the change is better by the metric's ``better``
field, and three verdicts against the metric's ``bound``:

- ``worse_than_bound``: the change's median is worse than the parent's by
  more than ``bound`` times the parent's median;
- ``unresolved``: the parent's interquartile range is wider than that;
- ``gain_rule_met``: the change is better in at least 0.9 of the pairs, and
  its median is better than the parent's by more than the parent's
  interquartile range.

It also records, per seed, whether the two sides' report digests agree.

A run that exits nonzero ends the session: its pair records the failing
side's exit code and last lines of standard error, the file is still
written, from the pairs finished before it, with ``correct`` false, and
the command exits 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
STDERR_LINES = 20  # kept from a failed run


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``tree``: its result object, report digest and
    machine facts, or, when it exits nonzero, its exit code and the last
    lines of its standard error."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        return {"returncode": done.returncode,
                "stderr": done.stderr.splitlines()[-STDERR_LINES:]}
    path = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    return {"result": json.loads(done.stdout.splitlines()[-1]),
            "report_digest": record["report_digest"], "machine": record["machine"]}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        values = values * 2  # quantiles needs two points
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, each side's median and quartiles, the change's pair wins
    and the verdicts against the metric's bound; per seed, whether the report
    digests agree.  Each pair holds its ``seed`` and, per side, a run as
    :func:`run_once` returns it."""
    summary = {}
    for metric in metrics:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        values = {side: [pair[side]["result"]["metrics"][name]["value"] for pair in pairs]
                  for side in SIDES}
        wins = sum((change > parent) if higher else (change < parent)
                   for parent, change in zip(values["parent"], values["change"]))
        spread = {side: _spread(values[side]) for side in SIDES}
        parent = spread["parent"]
        gain = (spread["change"]["median"] - parent["median"]) * (1 if higher else -1)
        allowed, iqr = bound * abs(parent["median"]), parent["q3"] - parent["q1"]
        summary[name] = {"unit": metric["unit"], "better": metric["better"], **spread,
                         "change_wins": wins, "pairs": len(pairs), "bound": bound,
                         "worse_than_bound": -gain > allowed, "unresolved": iqr > allowed,
                         "gain_rule_met": wins >= 0.9 * len(pairs) and gain > iqr}
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
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent, "change": args.change}
    pairs, failed = [], None
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        pairs.append(pair)
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
            if "returncode" in pair[side]:
                failed = side
                break
        if failed:
            print(f"pair {i + 1}/{args.pairs} seed {seed}: {failed} exited "
                  f"{pair[failed]['returncode']}; stopping", file=sys.stderr)
            break
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "; ".join(
            f"{side} " + " ".join(f"{name} {metric['value']:.6g}"
                                  for name, metric in pair[side]["result"]["metrics"].items())
            for side in SIDES), file=sys.stderr)
    finished = pairs[:-1] if failed else pairs
    summary = summarize(finished, declared["end_to_end"]) if finished else {}
    result = {"workload": args.workload, "seconds": args.seconds, "seed": args.seed,
              **summary, "correct": summary.get("correct", False) and not failed, "runs": pairs}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

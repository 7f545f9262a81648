#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, in alternating pairs.

Usage: python scripts/bench_pairs.py SRC_A SRC_B --workload W --seeds S [S ...] --seconds N

SRC_A and SRC_B are `src/` directories: A is the baseline (a parent
commit's, say) and B the change. Each is copied beside a copy of this
checkout's `perfbench/`, so both sides run the same harness, and pair i
runs `perfbench/run.py --workload W --seed S_i --seconds N --trace 0` on
both, one run at a time: A first in even pairs, B first in odd ones. The
end-to-end metrics are those BENCHMARK.json names. For each, standard
output gets one JSON object with both sides' medians and quartiles
(inclusive method), the interquartile range of A, B's median over A's,
and the pairs in which B was better or worse. Every run's result line is
kept under "runs".
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("a", "b")


def _side(src: str, into: str) -> str:
    """A directory holding a copy of src as src/ beside perfbench/."""
    ignore = shutil.ignore_patterns("__pycache__", ".work", "*.pyc")
    shutil.copytree(src, os.path.join(into, "src"), ignore=ignore)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(into, "perfbench"), ignore=ignore)
    return into


def _run(side: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one perfbench run in side."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' spreads, B against A, and the
    pairs where B read better or worse, over the pairs where both sides
    report the metric."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [
            (run["a"]["metrics"][name]["value"], run["b"]["metrics"][name]["value"])
            for run in runs
            if all(name in run[side]["metrics"] for side in SIDES)
        ]
        if not pairs:
            continue
        a, b = (_spread([pair[i] for pair in pairs]) for i in (0, 1))
        better = sum(bv > av if higher else bv < av for av, bv in pairs)
        worse = sum(bv < av if higher else bv > av for av, bv in pairs)
        out[name] = {
            "a": a,
            "b": b,
            "a_iqr": a["q3"] - a["q1"],
            "b_vs_a": b["median"] / a["median"] - 1 if a["median"] else None,
            "b_better_pairs": better,
            "b_worse_pairs": worse,
            "bound": metric["bound"],
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", metavar="SRC_A")
    parser.add_argument("src_b", metavar="SRC_B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not os.path.isfile(os.path.join(src, "avledger", "__init__.py")):
            parser.error(f"{src} holds no avledger sources")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        sides = {
            side: _side(os.path.abspath(src), os.path.join(work, side))
            for side, src in zip(SIDES, (args.src_a, args.src_b))
        }
        for pair, seed in enumerate(args.seeds):
            run = {"pair": pair, "seed": seed}
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                run[side] = _run(sides[side], args.workload, seed, args.seconds)
            runs.append(run)
            print(f"pair {pair} seed {seed} done", file=sys.stderr)

    print(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "a": os.path.abspath(args.src_a),
        "b": os.path.abspath(args.src_b),
        "failed_runs": {side: sum(not run[side]["correct"] or run[side]["failed"] > 0 for run in runs) for side in SIDES},
        "end_to_end": summary(runs, metrics),
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

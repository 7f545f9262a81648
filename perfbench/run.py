#!/usr/bin/env python3
"""avledger benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fleet-telemetry --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured with no tracing code loaded;
with `--trace 1` they are the per-layer ones from a traced run. The line
before it holds the details: environment, output fingerprints, gate
problems, every (work, seconds) sample and how the host-speed
reference read. The same JSON, and with
`--trace 1` every span, is also written under `perfbench/.work/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

WORKLOADS = ("fleet-telemetry", "fleet-disputes", "ledger-audit")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import cryptography

    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def reference_summary(times: list[float]) -> dict:
    """How the host-speed reference read over the run (see reference.py)."""
    if not times:
        return {"count": 0}
    return {
        "count": len(times),
        "min": min(times),
        "median": statistics.median(times),
        "max": max(times),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "avledger", "__init__.py")):
        print(f"error: no avledger sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        workloads.CLOCK.ticking = False

    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    tally = workloads.Tally()
    runner = workloads.Runner(tally, tracer)
    try:
        if args.workload == "ledger-audit":
            workloads.run_audit(
                workloads.LEDGER_AUDIT, args.seed, args.seconds, scratch, tally, runner
            )
        else:
            shape = (
                workloads.FLEET_TELEMETRY
                if args.workload == "fleet-telemetry"
                else workloads.FLEET_DISPUTES
            )
            workloads.run_fleet(shape, args.seed, args.seconds, scratch, tally, runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is None:
        metrics = tally.end_to_end()
    else:
        bytes_per_tx = tally.file_bytes / tally.file_tx if tally.file_tx else 0.0
        metrics = tracer.summary(tally.traced_s, tally.untraced_s, bytes_per_tx)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "fingerprints": tally.fingerprints,
        "problems": tally.problems,
        "samples": tally.samples,
        "reference_s": reference_summary(workloads.CLOCK.reference_s),
    }
    if tracer is not None:
        own = tracer.self_times()
        detail["self_s_by_span"] = dict(sorted(own.items(), key=lambda kv: -kv[1]))
        # One spans file per workload, so repeated traced runs do not pile up.
        tracer.write(os.path.join(WORK_DIR, f"{args.workload}.spans.jsonl"))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(os.path.join(WORK_DIR, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=2)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Sweep seeded benign scenarios and summarize ledger health.

Usage: python scripts/run_benign.py [N_SEEDS] [--out DIR]

With --out, each seed's report lands in DIR/seed_<n>/report.json along
with both ledger files.
"""

import argparse
import json
import os
import sys

from avledger.ledger import chain_faults, save_ledger
from avledger.scenarios import ScenarioEngine, make_benign_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n_seeds", nargs="?", type=int, default=25)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    totals = {"committed": 0, "rejected": 0, "undeliverable": 0}
    diverged = 0
    detections = 0
    chains_ok = 0
    for seed in range(args.n_seeds):
        result = ScenarioEngine(make_benign_config(seed)).run()
        report = result.report
        for part in ("P1", "P2"):
            for bucket in totals:
                totals[bucket] += sum(report.counts[part][bucket].values())
        diverged += report.consensus["P1"]["diverged"] + report.consensus["P2"]["diverged"]
        detections += len(report.detections)
        chains_ok += all(not chain_faults(lg) for lg in result.ledgers.values())
        if args.out:
            d = os.path.join(args.out, f"seed_{seed}")
            os.makedirs(d, exist_ok=True)
            with open(os.path.join(d, "report.json"), "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            for name, lg in sorted(result.ledgers.items()):
                save_ledger(lg, os.path.join(d, f"ledger_{name.lower()}.bin"))

    print(
        json.dumps(
            {
                "seeds": args.n_seeds,
                "transactions": totals,
                "diverged_rounds": diverged,
                "detections": detections,
                "chains_verified": chains_ok,
            },
            indent=2,
            sort_keys=True,
        )
    )
    ok = diverged == 0 and detections == 0 and chains_ok == args.n_seeds
    print("all benign invariants hold" if ok else "INVARIANT VIOLATION", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

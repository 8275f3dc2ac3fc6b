"""Record the reference digests that ``run.py`` checks every round against.

    python3 perfbench/record_digests.py

Run it from the root of a checkout.  It builds and verifies seeds 0-19 of
every workload once, checks each certificate as a benchmark round would, and
rewrites ``perfbench/digests.json`` with the sha256 of each artifact and
certificate.  Rerun it only for a change that is meant to alter the output.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

import run

SEEDS = range(20)


def main() -> int:
    table = {}
    for workload in run.WORKLOADS:
        oracle = workload in run.ORACLE_WORKLOADS
        table[workload] = {}
        for seed in SEEDS:
            with run.work_dir(f"record-{workload}-{seed}") as work:
                runner = run.Runner(work, perf_counter() + run.RUN_LIMIT_S)
                config, _ = run.setup(runner, workload, seed, 1)
                checker = run.Checker(config, oracle, None)
                problems = checker.check(run.play_round(runner, oracle, "record"))
            if problems:
                print(f"{workload} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            table[workload][str(seed)] = checker.reference
            print(f"{workload} seed {seed}: {checker.reference['certificate'][:12]}", file=sys.stderr)
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

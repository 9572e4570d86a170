"""Record the sha256 of every pinned output in digests.json.

    python3 perfbench/pin.py

Runs each workload once per input seed, 0 to run.PINNED_SEEDS - 1, with
every check of run.py except the digest check, and rewrites digests.json
with the digests of the files each workload's commands produce. run.py
reads its inputs from the seed modulo run.PINNED_SEEDS, so every run is
checked against one of these. Re-pin only when a change is meant to alter
depnet's output, and say so with the change.
"""

from __future__ import annotations

import json
import sys
import time

import run


def pin(name: str, seed: int) -> dict[str, str]:
    workload = run.WORKLOADS[name]
    with run.scratch_dir(f"pin-{name}-{seed}-") as work:
        run.generate(work, seed, workload.shape)
        checker = run.Checker(name, seed, work, pinned=False)
        sample = run.run_sample(name, work, checker,
                                time.perf_counter() + run.RUN_LIMIT_S)
        if any(c.failure for c in sample.commands):
            raise SystemExit(f"{name} seed {seed} failed; nothing pinned")
        return {out: run.sha256(work / out) for out in workload.outputs}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table: dict[str, dict[str, dict[str, str]]] = {}
    for name in sorted(run.WORKLOADS):
        for seed in range(run.PINNED_SEEDS):
            table.setdefault(name, {})[str(seed)] = pin(name, seed)
            print(f"pinned {name} seed {seed}", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

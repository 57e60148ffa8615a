"""Record the expected cell outputs of every workload variant.

Run from the repository root, with the hash seed the benchmark pins::

    PYTHONHASHSEED=0 python3 e2ebench/record_digests.py

It runs one untraced pass of each workload variant and writes each
cell's digest (or ``failed:<ErrorType>``) to ``e2ebench/digests.json``.
Re-record only when a change to the program is meant to change outputs.
"""

import json
import os
import sys

import run
import speed

sys.path.insert(0, os.path.join(run.REPO_ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        sys.exit(f"set PYTHONHASHSEED={run.HASH_SEED} first")
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        recorded[name] = {}
        for variant in range(workloads.VARIANTS):
            result = workload.run_pass(workload.setup(variant),
                                       speed.SpeedClock())
            recorded[name][str(variant)] = {
                cell.label: checks.cell_record(cell)
                for cell in result.cells}
            failed = sum(1 for cell in result.cells if cell.error)
            print(f"{name} variant {variant}: {len(result.cells)} cells, "
                  f"{failed} failed", flush=True)
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

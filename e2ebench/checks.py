"""Correctness checks run on every pass.

Two kinds of check:

* **Digests.**  Every cell's output, stripped of wall-clock fields, is
  hashed and compared with ``digests.json`` (recorded with
  ``record_digests.py`` at the commit that introduced the benchmark).
  A cell recorded as failed may start succeeding (a later fix reads as
  fewer failures); a recorded success that fails or changes is wrong.
* **Paper invariants**, computed from the paper's formulas and Table I
  interface widths, never from the program's own derived columns.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

#: Keys holding measured wall-clock time; dropped before hashing.
WALL_CLOCK_KEYS = frozenset({"seconds", "elapsed", "timing"})

#: Table I primary-input counts |I| (paper, "Circuit Info").
TABLE1_WIDTHS = {"s9234": 19, "s15850": 13, "s35932": 35, "s38417": 28,
                 "s38584": 11, "b12": 5, "b14": 32, "b15": 36, "b18": 37,
                 "b20": 32}

#: Fig. 7: simulated FC must track Eq. 15 within this (paper: +-0.05).
FC_TOLERANCE = 0.05


def strip_wall_clock(value):
    """``value`` without wall-clock fields, recursively."""
    if isinstance(value, dict):
        return {key: strip_wall_clock(item) for key, item in value.items()
                if key not in WALL_CLOCK_KEYS
                and not key.endswith("_seconds")}
    if isinstance(value, (list, tuple)):
        return [strip_wall_clock(item) for item in value]
    return value


def digest(value):
    """Short stable hash of a cell output (wall-clock fields stripped)."""
    text = json.dumps(strip_wall_clock(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def cell_record(cell):
    """What ``digests.json`` stores for a cell: its digest or failure."""
    return f"failed:{cell.error}" if cell.error else digest(cell.value)


def load_digests(workload, variant):
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload][str(variant)]


def check_digests(cells, recorded):
    """Problems found comparing a pass's cells with the recorded ones."""
    problems = []
    labels = [cell.label for cell in cells]
    if sorted(labels) != sorted(recorded):
        problems.append(f"cell set differs from the recorded one: "
                        f"{sorted(set(labels) ^ set(recorded))[:4]}")
    for cell in cells:
        expected = recorded.get(cell.label)
        if expected is None:
            continue
        if expected.startswith("failed:"):
            continue      # still failing, or fixed: both are acceptable
        actual = cell_record(cell)
        if actual != expected:
            problems.append(f"{cell.label}: output {actual} != recorded "
                            f"{expected}")
    return problems


def eq15(alpha, kappa_f, width):
    """The paper's Eq. 15: configured FC of TriLock."""
    return alpha * (1 - 2.0 ** (-kappa_f * width))


def check_paper_figs(result):
    problems = []
    artifacts = result.artifacts
    for name in ("fig3", "fig4", "fig6", "fig7", "table2"):
        if name not in artifacts:
            problems.append(f"{name}: not assembled (a cell failed)")
    if "fig3" in artifacts:
        for row in artifacts["fig3"].rows:
            if not row["gate_level_matches_spec"]:
                problems.append(f"fig3 {row['panel']}: gate-level table "
                                "differs from the spec table")
    if "fig7" in artifacts:
        worst = max(abs(row["FC_sim"] - eq15(row["alpha"], row["kappa_f"],
                                             TABLE1_WIDTHS[row["circuit"]]))
                    for row in artifacts["fig7"].rows)
        if worst > FC_TOLERANCE:
            problems.append(f"fig7: worst |FC_sim - Eq.15| = {worst:.4f} "
                            f"> {FC_TOLERANCE}")
    if "table2" in artifacts:
        rows = artifacts["table2"].rows
        base = {row["circuit"]: row for row in rows if row["S"] == 0}
        for row in rows:
            if row["S"] == 0 and row["M"] != 0:
                problems.append(f"table2 {row['circuit']} S=0: removal "
                                f"does not separate (M={row['M']})")
            if row["S"] >= 10 and base[row["circuit"]]["E"] \
                    and row["E"] != 0:
                problems.append(f"table2 {row['circuit']} S={row['S']}: "
                                "E-SCC reduction below 100%")
    return problems


def check_sat_attack(result, theorem1_cells):
    """Theorem 1 on every successful TriLock SAT cell: exactly
    ``2^(kappa_s*|I|)`` DIPs and the recovered key verifies."""
    problems = []
    for cell in result.cells:
        prefix = cell.label.split(":", 1)[0].split("/", 1)[0]
        if prefix not in theorem1_cells or cell.error \
                or not cell.value["success"]:
            continue
        kappa_s, width = theorem1_cells[prefix]
        metrics = cell.value["metrics"]
        if metrics["n_dips"] != 2 ** (kappa_s * width):
            problems.append(f"{cell.label}: {metrics['n_dips']} DIPs, "
                            f"Theorem 1 says {2 ** (kappa_s * width)}")
        if not metrics["key_ok"]:
            problems.append(f"{cell.label}: recovered key is wrong")
    if "table1" not in result.artifacts:
        problems.append("table1: not assembled (its cell failed)")
    return problems


def check_lock_large(result, alpha, kappa_f, width, max_dips):
    cells = {cell.label: cell for cell in result.cells}
    problems = [f"lock-large: step {label} failed"
                + (f" ({cells[label].error})" if label in cells else "")
                for label in ("lock", "fc", "overhead", "comb-sat")
                if label not in cells or cells[label].error]
    if problems:
        return problems
    values = {label: cell.value for label, cell in cells.items()}
    gap = abs(values["fc"]["FC_sim"] - eq15(alpha, kappa_f, width))
    if gap > FC_TOLERANCE:
        problems.append(f"lock-large: |FC_sim - Eq.15| = {gap:.4f}")
    attack = values["comb-sat"]
    if attack["metrics"]["n_dips"] != max_dips \
            or attack["metrics"]["stop_reason"] != "max_dips":
        problems.append("lock-large: comb-sat round did not stop at "
                        f"max_dips={max_dips}")
    if values["overhead"]["area"] <= 0:
        problems.append("lock-large: locking added no area")
    return problems


def check_campaign_grid(result):
    problems = []
    extra = result.extra
    if extra["warm_hits"] != len(result.cells):
        problems.append(f"campaign-grid: warm pass hit "
                        f"{extra['warm_hits']}/{len(result.cells)} cells")
    if not extra["warm_identical"]:
        problems.append("campaign-grid: warm values differ from cold")
    return problems

"""End-to-end benchmark of the TriLock reproduction.

Run one workload from the repository root::

    python3 e2ebench/run.py --workload paper-figs --seed 0 --seconds 25 --trace 0

The script pins ``PYTHONHASHSEED`` (re-executing itself once if the
environment differs), imports ``repro`` from ``src/``, generates the
workload's inputs, then runs closed-loop passes until ``--seconds`` have
passed.  Every time is corrected for the host's CPU speed (speed.py).
With ``--trace 0`` the passes are untraced, the set-up is timed in fresh
interpreters between passes, and the last stdout line is the end-to-end
result; with ``--trace 1`` untraced and traced passes
alternate and the result holds the per-layer metrics.  Every pass is
checked against recorded digests and paper invariants; a failed check
prints ``"correct": false`` and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HASH_SEED = "0"
#: Fresh-interpreter set-ups timed per untraced run; setup_s is their
#: median.
SETUP_SAMPLES = 5
MIN_PASSES = 2
HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
SRC = os.path.join(REPO_ROOT, "src")

#: Standard percentiles the tail metric may report, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Spans each reported as ``<span>.calls`` and ``<span>.self_s``.
SPAN_METRICS = {
    "bench.generate": ("calls", "self_s"),
    "netlist.validate": ("calls", "self_s"),
    "netlist.specialize": ("calls", "self_s"),
    "core.lock": ("calls", "self_s"),
    "core.error_tables": ("self_s",),
    "sim.compile": ("calls", "self_s"),
    "sim.run": ("calls", "self_s"),
    "tech.power": ("self_s",),
    "tech.timing": ("self_s",),
    "tech.area": ("self_s",),
    "metrics.fc": ("calls", "self_s"),
    "metrics.overhead": ("calls", "self_s"),
    "unroll": ("calls", "self_s"),
    "cnf.encode": ("calls", "self_s"),
    "sat.solve": ("calls", "self_s"),
    "attacks.oracle": ("calls", "self_s"),
    "attacks.pin": ("calls", "self_s"),
    "attacks.verify": ("calls", "self_s"),
    "campaign.store.get": ("calls", "self_s"),
    "campaign.store.put": ("calls", "self_s"),
    "api.spec": ("self_s",),
    "api.cell": ("calls",),
    "experiments.assemble": ("self_s",),
}

#: Counters reported as they are.
COUNTERS = ("sim.pattern_cycles", "tech.map_gate.calls", "unroll.frames",
            "cnf.clauses", "sat.conflicts", "sat.propagations",
            "sat.decisions", "attacks.oracle.patterns", "attacks.dips")


def median(values):
    return statistics.median(values)


def percentile(values, pct):
    """The ``pct`` sample percentile of ``values``; ``pct`` is a
    :data:`TAIL_LADDER` step (above 50 it needs at least two values)."""
    if pct == 50.0:
        return statistics.median(values)
    return statistics.quantiles(values, n=1000)[round(pct * 10) - 1]


def tail_percentile(values):
    """``(pct, value)`` at the highest :data:`TAIL_LADDER` percentile
    with at least 10 samples beyond it; the median when even p50 has
    fewer (then the caller reports the sample count as too small)."""
    n = len(values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10 - 1e-9:
            chosen = pct
    return chosen, percentile(values, chosen)


def max_rss_mb(who):
    """Peak RSS of this process (``RUSAGE_SELF``) or of its largest
    reaped child (``RUSAGE_CHILDREN``), in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_stamp(seed, variant):
    import repro
    from repro.campaign import CODE_VERSION
    from repro.sim.bitvec import have_numpy

    return {"workload_seed": seed, "variant": variant,
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "commit": _commit(), "CODE_VERSION": CODE_VERSION,
            "python": platform.python_version(), "numpy": have_numpy(),
            "repro": getattr(repro, "__version__", "?")}


def _commit():
    """The checked-out commit; ``unknown`` outside a git checkout."""
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def time_setup(workload_name, variant, cpu):
    """``(raw, corrected)`` wall time of a fresh interpreter that imports
    the program and generates the workload's inputs: the set-up a user
    pays before the first pass.  The interpreter runs on ``cpu``, where
    the probes around it run too."""
    code = (f"import sys; sys.path[:0] = [{HERE!r}, {SRC!r}]; "
            "import workloads; "
            f"workloads.WORKLOADS[{workload_name!r}].setup({variant})")
    with speed.pinned(cpu):
        before = speed.probe()
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        raw = time.perf_counter() - begin
        after = speed.probe()
    return raw, speed.correct(raw, before, after)


class Pass:
    """One pass: its result, corrected wall time and raw wall time (on
    campaign-grid, those of the cold campaign only), and the speed
    correction of the whole pass (corrected / raw)."""

    def __init__(self, result, clock):
        self.result = result
        self.wall = result.extra.get("cold_wall_s", clock.corrected_s)
        self.raw = result.extra.get("cold_raw_s", clock.raw_s)
        self.factor = clock.corrected_s / clock.raw_s


def next_cpu(setups):
    """Set-up samples take turns on the CPUs this process may use."""
    allowed = speed.cpus()
    return allowed[len(setups) % len(allowed)]


def timed_pass(workload, inputs):
    # Every pass starts from a collected heap, so garbage left by the
    # previous pass is not collected on this pass's clock.
    gc.collect()
    clock = speed.SpeedClock()
    result = workload.run_pass(inputs, clock)
    clock.lap()
    return Pass(result, clock)


def end_to_end_metrics(passes, setup_s, peak_mb, cells_alike):
    """The end-to-end metrics of a run from its untraced passes.

    Cell latency is each cell's median over the passes, so a transient
    stall in one pass cannot move a percentile between cells.  Cell
    percentiles are taken only when the workload's cells are of similar
    cost (``cells_alike``); otherwise both cell metrics read the mean
    cell latency, because a percentile of cells whose costs span three
    orders of magnitude lands between circuit-size clusters.
    """
    walls = [one.wall for one in passes]
    # Each warm_walls entry is one lap of campaign-grid's warm reruns.
    warm = [wall for one in passes
            for wall in one.result.extra.get("warm_walls", ())]
    if warm:
        warm_wall = median(warm)
    else:
        # No store: a rerun recomputes the same cells, so it is a pass.
        warm_wall = median(walls)
    per_cell = {}
    for one in passes:
        for cell in one.result.cells:
            per_cell.setdefault(cell.label, []).append(cell.elapsed)
    latencies = [median(values) for values in per_cell.values()]
    if cells_alike:
        pct, tail = tail_percentile(latencies)
        p50 = percentile(latencies, 50.0)
    else:
        pct, p50 = "mean", statistics.fmean(latencies)
        tail = p50
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "warm_wall_s": (warm_wall, "s"),
        "cell_p50_s": (p50, "s"),
        "cell_p90_s": (tail, "s"),
    }
    notes = {"passes": len(passes), "cells": len(latencies),
             "tail_percentile": pct,
             "raw_wall_s": median([one.raw for one in passes])}
    if cells_alike:
        notes["samples_beyond_tail"] = len(latencies) * (100 - pct) / 100
    return metrics, notes


def per_layer_metrics(traced, untraced_walls):
    """Per-layer metrics: the median over traced passes of each one.
    Span times are scaled by their pass's speed correction, so that they
    add up to the corrected wall time like the end-to-end metrics."""
    rows = []
    for tracer_state, one in traced:
        spans, counters, covered = tracer_state
        result = one.result
        row = {}
        for span, fields in SPAN_METRICS.items():
            stats = spans.get(span)
            for field in fields:
                value = 0 if stats is None else getattr(stats, field)
                row[f"{span}.{field}"] = \
                    value * one.factor if field == "self_s" else value
        for name in COUNTERS:
            row[name] = counters.get(name, 0)
        solves = row["sat.solve.calls"]
        row["attacks.dips_per_solve"] = \
            row["attacks.dips"] / solves if solves else 0.0
        store = result.extra.get("store")
        lookups = store["hits"] + store["misses"] if store else 0
        row["campaign.store.hit_ratio"] = \
            store["hits"] / lookups if lookups else 0.0
        row["campaign.worker_idle_s"] = result.extra.get("worker_idle_s",
                                                         0.0)
        row["campaign.cells_failed"] = sum(1 for cell in result.cells
                                           if cell.error)
        row["trace.coverage"] = covered / one.raw
        row["trace.overhead_s"] = one.wall - median(untraced_walls)
        rows.append(row)
    return {name: median([row[name] for row in rows]) for name in rows[0]}


RATIOS = ("trace.coverage", "campaign.store.hit_ratio",
          "attacks.dips_per_solve")


def layer_unit(name):
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Outputs depend on the hash seed (see README.md, defect 1):
        # restart this same process image with it pinned.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    sys.path.insert(0, SRC)
    try:
        import checks
        import workloads
        from tracer import Tracer
    except ImportError as error:
        print(f"cannot import the program under test: {error}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    variant = args.seed % workloads.VARIANTS
    recorded = checks.load_digests(workload.name, variant)
    stamp = run_stamp(args.seed, variant)
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)

    inputs = workload.setup(variant)

    untraced, traced, problems, setups = [], [], [], []
    pool_peak_mb = None
    tracer = Tracer()
    begin = time.perf_counter()
    while (time.perf_counter() - begin < args.seconds
           or len(untraced) + len(traced) < MIN_PASSES):
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        if trace_this:
            tracer.reset()
            with tracer:
                one = timed_pass(workload, inputs)
            traced.append(((tracer.spans, tracer.counters,
                            tracer.covered_s), one))
        else:
            one = timed_pass(workload, inputs)
            untraced.append(one)
        problems += checks.check_digests(one.result.cells, recorded)
        problems += workload.check(one.result)
        if pool_peak_mb is None:
            # Read before the set-up interpreters below, which are
            # children too.  Other children (``git``, an interpreter
            # launcher) are far smaller than a pool worker, so they are
            # not counted on workloads without a pool.
            pool_peak_mb = max_rss_mb(resource.RUSAGE_CHILDREN) \
                if workload.pooled else 0.0
        if not args.trace:
            # Set-up samples are spread over the run, between passes, so
            # a slow spell of the host weighs on a few of them, not all.
            due = SETUP_SAMPLES * (time.perf_counter() - begin) / args.seconds
            while len(setups) < min(due, SETUP_SAMPLES):
                setups.append(time_setup(workload.name, variant,
                                         next_cpu(setups)))

    passes = untraced + [one for _, one in traced]
    attempted = sum(len(one.result.cells) for one in passes)
    failed = sum(1 for one in passes for cell in one.result.cells
                 if cell.error)
    if args.trace:
        values = per_layer_metrics(traced, [one.wall for one in untraced])
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
        print(f"note: per-layer metrics are medians over {len(traced)} "
              "traced passes; spans inside pool workers are not collected, "
              "so campaign-grid layers cover only the parent-side "
              "campaign, store and api calls", flush=True)
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(workload.name, variant,
                                     next_cpu(setups)))
        peak_mb = max_rss_mb(resource.RUSAGE_SELF) + pool_peak_mb
        values, notes = end_to_end_metrics(
            untraced, median([corrected for _, corrected in setups]),
            peak_mb, workload.cells_alike)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in values.items()}
        notes["setup_samples"] = len(setups)
        notes["raw_setup_s"] = median([raw for raw, _ in setups])
        print("notes " + json.dumps(notes, sort_keys=True), flush=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}", flush=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

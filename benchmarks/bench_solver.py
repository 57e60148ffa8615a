"""Attack hot-path benchmarks: the arena CDCL's conflict rate, the
native subprocess adapter, vectorized sweeps vs the per-vector loops,
and the end-to-end ``comb_sat`` attack wall-clock.

The one acceptance bar: vectorized fig3/fig7 sweeps >= 3x the
per-vector loop.  Solver and attack numbers are recorded, not gated;
their no-regression guard is the end-to-end benchmark in ``e2ebench/``
(``sat.solve.self_s`` and ``wall_s`` on the sat-attack workload).

Everything lands in ``BENCH_solver.json`` via ``bench_json_sink`` so
runs can be diffed; the text artifact carries the same numbers
human-readable.
"""

import os
import shlex
import time

import pytest

from repro.api import SCHEMES
from repro.attacks import (
    SimulationOracle,
    comb_sat_attack,
    unrolled_attack_view,
)
from repro.attacks.seq_sat import _unflatten, _with_folded_constants
from repro.bench.synth import generate_circuit
from repro.core import TriLockConfig, lock
from repro.core.error_tables import measured_error_table
from repro.metrics import simulate_fc
from repro.sat import Solver, in_tree_engine_argv, make_backend
from repro.sim import SequentialSimulator, have_numpy, make_rng
from repro.sim.random_vectors import random_input_words

from conftest import run_once

#: Interleaved timing repetitions (min-of-N kills one-off timer noise).
_REPEATS = 3


# ----------------------------------------------------------------------
# Structured conflict-dense instances (the shape circuit CNF takes:
# binary-implication-heavy, highly structured).
# ----------------------------------------------------------------------
def php_instance(pigeons, holes):
    """Pigeonhole principle CNF: UNSAT iff pigeons > holes."""
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def _timed_solve(factory, n_vars, clauses, assumptions=(),
                 clock=time.process_time):
    solver = factory()
    solver.ensure_vars(n_vars)
    ok = True
    for clause in clauses:
        if not solver.add_clause(clause):
            ok = False
            break
    start = clock()
    result = solver.solve(assumptions=assumptions) if ok else False
    seconds = clock() - start
    return result, seconds, solver.stats()


def test_arena_solver_conflict_rate(benchmark, artifact_sink,
                                    bench_json_sink):
    """The arena CDCL on a conflict-dense instance: conflicts/sec and
    propagations/sec, minimum over interleaved repeats."""
    n_vars, clauses = php_instance(8, 7)
    seconds = float("inf")
    for repeat in range(_REPEATS):
        if repeat == _REPEATS - 1:
            # Last run goes through pytest-benchmark so the workload
            # shows up in its table too.
            result, elapsed, stats = run_once(
                benchmark, _timed_solve, Solver, n_vars, clauses)
        else:
            result, elapsed, stats = _timed_solve(Solver, n_vars, clauses)
        assert result is False
        seconds = min(seconds, elapsed)

    rate = stats["conflicts"] / seconds
    prop_rate = stats["propagations"] / seconds
    artifact_sink(
        "solver_conflict_rate",
        "instance: PHP(8,7) (UNSAT, structured, binary-heavy)\n"
        f"arena: {seconds:.3f}s, {stats['conflicts']} conflicts, "
        f"{rate:,.0f} conflicts/s, {prop_rate:,.0f} props/s\n")
    _merge_bench_json(bench_json_sink, {
        "cdcl_conflict_rate": {
            "instance": "php(8,7)",
            "arena_seconds": seconds,
            "arena_conflicts_per_sec": rate,
            "arena_propagations_per_sec": prop_rate,
        },
    })


def test_native_backend_on_structured_instance(artifact_sink,
                                               bench_json_sink,
                                               monkeypatch):
    """The DIMACS subprocess adapter end to end, against the bundled
    engine — a correctness-plus-overhead data point (one process spawn
    plus a formula round-trip per solve), recorded, not raced."""
    monkeypatch.setenv(
        "REPRO_SAT_BINARY",
        " ".join(shlex.quote(part) for part in in_tree_engine_argv()))
    n_vars, clauses = php_instance(7, 7)  # SAT: one pigeon per hole
    # Wall clock: the work happens in a child process, which
    # process_time would not count.
    result, seconds, stats = _timed_solve(
        lambda: make_backend("native"), n_vars, clauses,
        clock=time.perf_counter)
    assert result is True
    _merge_bench_json(bench_json_sink, {
        "native_subprocess": {
            "instance": "php(7,7)",
            "engine": stats["engine"],
            "seconds": seconds,
        },
    })
    artifact_sink(
        "solver_native",
        f"native subprocess adapter ({stats['engine']})\n"
        f"php(7,7) SAT in {seconds:.3f}s "
        "(includes process spawn + DIMACS round-trip)\n")


# ----------------------------------------------------------------------
# Vectorized sweeps vs the per-vector loops
# ----------------------------------------------------------------------
def _fig3_locked(kappa_s):
    host = generate_circuit("fig3_host", n_inputs=2, n_outputs=2,
                            n_flops=3, n_gates=14, seed=1)
    return SCHEMES.get("trilock").lock(
        host, seed=2, kappa_s=kappa_s, kappa_f=1, alpha=0.6)


def test_fig3_sweep_vectorized(artifact_sink, bench_json_sink,
                               monkeypatch):
    """Exhaustive error table (fig3 cell shape, one size up): numpy-
    vectorized stimulus packing / expansion / row extraction vs the
    seed per-pair loops.  Bar: >= 3x, identical tables."""
    if not have_numpy():
        pytest.skip("numpy unavailable; vectorized sweep has no fast path")
    locked = _fig3_locked(kappa_s=3)
    depth = 3  # 2^12 (input, key) pairs

    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    start = time.process_time()
    slow_table = measured_error_table(locked, depth)
    slow_seconds = time.process_time() - start
    monkeypatch.delenv("REPRO_NO_NUMPY")

    fast_seconds = float("inf")
    for _ in range(_REPEATS):
        start = time.process_time()
        fast_table = measured_error_table(locked, depth)
        fast_seconds = min(fast_seconds, time.process_time() - start)

    assert fast_table == slow_table
    speedup = slow_seconds / fast_seconds
    assert speedup >= 3.0, f"fig3 sweep only {speedup:.2f}x"
    _merge_bench_json(bench_json_sink, {
        "fig3_sweep": {
            "instance": "fig3 host, ks=3, depth=3 (2^12 pairs)",
            "per_vector_seconds": slow_seconds,
            "vectorized_seconds": fast_seconds,
            "speedup": speedup,
        },
    })
    artifact_sink(
        "solver_fig3_sweep",
        "fig3 exhaustive table, ks=3 depth=3 (2^12 pairs)\n"
        f"per-pair loops: {slow_seconds * 1000:.1f}ms\n"
        f"vectorized:     {fast_seconds * 1000:.1f}ms\n"
        f"speedup: {speedup:.1f}x (tables identical)\n")


def _fc_per_vector(locked, depth, n_samples, seed):
    """Per-vector FC reference: the same estimator evaluated one sample
    at a time (what a VCS-style per-vector flow does)."""
    rng = make_rng(("fc", seed))
    kappa = locked.config.kappa
    inputs = locked.netlist.inputs
    stimulus = [random_input_words(rng, inputs, n_samples)
                for _ in range(kappa + depth)]
    locked_sim = SequentialSimulator(locked.netlist)
    oracle_sim = SequentialSimulator(locked.original)
    errors = 0
    for j in range(n_samples):
        per_cycle = [{net: (words[net] >> j) & 1 for net in inputs}
                     for words in stimulus]
        locked_out, _ = locked_sim.run(per_cycle, 1)
        oracle_out, _ = oracle_sim.run(per_cycle[kappa:], 1)
        corrupted = any(
            (l_word ^ o_word) & 1
            for cycle in range(depth)
            for l_word, o_word in zip(locked_out[kappa + cycle],
                                      oracle_out[cycle])
        )
        errors += bool(corrupted)
    return errors / n_samples


def test_fig7_fc_sweep_packed(artifact_sink, bench_json_sink):
    """Fig. 7 FC estimation: packed-word batch vs the per-vector loop.
    Bar: >= 3x, identical estimates."""
    circuit = generate_circuit("fc_bench", n_inputs=5, n_outputs=4,
                               n_flops=10, n_gates=120, seed=7)
    locked = lock(circuit, TriLockConfig(kappa_s=2, kappa_f=1, alpha=0.6,
                                         s_pairs=0, seed=11))
    depth, n_samples, seed = 3, 400, 0

    start = time.process_time()
    slow_fc = _fc_per_vector(locked, depth, n_samples, seed)
    slow_seconds = time.process_time() - start

    fast_seconds = float("inf")
    for _ in range(_REPEATS):
        start = time.process_time()
        fast_fc = simulate_fc(locked, depth, n_samples=n_samples, seed=seed)
        fast_seconds = min(fast_seconds, time.process_time() - start)

    assert fast_fc == slow_fc
    speedup = slow_seconds / fast_seconds
    assert speedup >= 3.0, f"fig7 FC sweep only {speedup:.2f}x"
    _merge_bench_json(bench_json_sink, {
        "fig7_fc_sweep": {
            "instance": "fc_bench 120 gates, depth=3, 400 samples",
            "per_vector_seconds": slow_seconds,
            "packed_seconds": fast_seconds,
            "speedup": speedup,
        },
    })
    artifact_sink(
        "solver_fig7_sweep",
        "fig7 FC estimate, 120-gate circuit, depth=3, 400 samples\n"
        f"per-vector loop: {slow_seconds * 1000:.1f}ms\n"
        f"packed batch:    {fast_seconds * 1000:.1f}ms\n"
        f"speedup: {speedup:.1f}x (estimates identical: "
        f"FC={fast_fc:.4f})\n")


# ----------------------------------------------------------------------
# End-to-end attack wall-clock
# ----------------------------------------------------------------------
def test_comb_sat_attack_wall_clock(artifact_sink, bench_json_sink):
    """The real DIP loop on the arena solver: the headline wall-clock
    number the README quotes (oracle-simulation-dominated at this
    scale)."""
    circuit = generate_circuit("benchseq", n_inputs=4, n_outputs=3,
                               n_flops=8, n_gates=48, seed=9)
    locked = lock(circuit, TriLockConfig(kappa_s=2, kappa_f=1, alpha=0.6,
                                         s_pairs=0, seed=11))
    kappa, depth = locked.config.kappa, locked.config.kappa_s
    view, key_inputs, _ = unrolled_attack_view(locked.netlist, kappa, depth)
    view = _with_folded_constants(view)
    width = len(locked.netlist.inputs)
    oracle = SimulationOracle(locked.original)

    def oracle_fn(flat_data):
        vectors = _unflatten(flat_data, width, depth)
        trace = oracle.query(vectors)
        return tuple(bit for cycle in trace for bit in cycle)

    start = time.process_time()
    result = comb_sat_attack(view, key_inputs, oracle_fn, solver=Solver())
    seconds = time.process_time() - start

    assert result.success
    _merge_bench_json(bench_json_sink, {
        "comb_sat_attack": {
            "instance": "benchseq 48 gates, ks=2",
            "n_dips": result.n_dips,
            "arena_seconds": seconds,
        },
    })
    artifact_sink(
        "solver_attack_wall",
        f"comb_sat attack, 48-gate sequential host, ks=2 "
        f"({result.n_dips} DIPs)\n"
        f"arena solver: {seconds:.2f}s "
        "(oracle-simulation-dominated at this scale)\n")


def _merge_bench_json(bench_json_sink, fragment):
    """Accumulate sections into one BENCH_solver.json across tests."""
    import json
    from conftest import artifact_dir

    path = os.path.join(artifact_dir(), "BENCH_solver.json")
    payload = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.update(fragment)
    bench_json_sink("solver", payload)

"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import ENTRY_POINTS, Tracer  # noqa: E402
from workloads import Cell  # noqa: E402

from repro.api import matrix_cell  # noqa: E402
from repro.experiments import fig3_error_tables  # noqa: E402

SMALL_CELL = ("synth?gates=40&ffs=4&pis=3&pos=2&seed=0", 0,
              "trilock?kappa_s=1", "seq-sat")


def _outputs():
    return [checks.digest(matrix_cell(*SMALL_CELL)),
            checks.digest(fig3_error_tables.panel_cell("(b) E^SF", 1.0))]


def _resolved_entry_points():
    import importlib

    resolved = []
    for entry in ENTRY_POINTS:
        module = importlib.import_module(entry.module)
        owner_name, _, attr = entry.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        resolved.append(owner.__dict__[attr] if owner_name
                        else getattr(owner, attr))
    return resolved


def test_tracer_leaves_outputs_and_functions_unchanged():
    before = _outputs()
    originals = _resolved_entry_points()
    tracer = Tracer()
    with tracer:
        traced = _outputs()
        assert tracer.spans["sat.solve"].calls > 0
        assert tracer.counters["attacks.dips"] == 2 ** 3  # Theorem 1
    after = _outputs()
    assert traced == before
    assert after == before
    assert all(a is b for a, b in zip(_resolved_entry_points(), originals))


def test_self_time_within_total_and_coverage_within_wall():
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        matrix_cell(*SMALL_CELL)
    wall = time.perf_counter() - start
    assert tracer.spans
    for name, stats in tracer.spans.items():
        assert 0 <= stats.self_s <= stats.total_s + 1e-9, name
    assert 0 < tracer.covered_s <= wall


def test_nested_same_span_counts_once():
    from repro.api import SCHEMES, load_circuit
    from repro.metrics import corruptibility

    locked = SCHEMES.get("trilock").lock(load_circuit(SMALL_CELL[0]),
                                         seed=0, kappa_s=1)
    tracer = Tracer()
    with tracer:
        corruptibility.average_simulated_fc(locked, [1, 2], n_samples=32)
    # simulate_fc runs twice inside one average_simulated_fc span.
    assert tracer.spans["metrics.fc"].calls == 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(100)))[0] == 90.0
    assert run.tail_percentile(list(range(99)))[0] == 50.0
    assert run.tail_percentile(list(range(999)))[0] == 90.0
    assert run.tail_percentile(list(range(1000)))[0] == 99.0
    assert run.tail_percentile(list(range(10000)))[0] == 99.9
    pct, value = run.tail_percentile([3.0, 1.0, 2.0])
    assert pct == 50.0 and abs(value - 2.0) < 1e-6
    pct, value = run.tail_percentile([float(i) for i in range(101)])
    assert pct == 90.0 and abs(value - 90.0) < 1.0


def test_failed_lock_large_step_is_a_problem():
    from workloads import LARGE_MAX_DIPS, LARGE_SCHEME, LARGE_WIDTH, \
        PassResult

    cells = [Cell("lock", {}), Cell("fc", None, error="ValueError")]
    problems = checks.check_lock_large(
        PassResult(cells), LARGE_SCHEME["alpha"], LARGE_SCHEME["kappa_f"],
        LARGE_WIDTH, LARGE_MAX_DIPS)
    assert "lock-large: step fc failed (ValueError)" in problems
    assert "lock-large: step overhead failed" in problems


def test_perturbed_output_fails_the_digest_check():
    value = matrix_cell(*SMALL_CELL)
    cell = Cell("small", value)
    recorded = {"small": checks.cell_record(cell)}
    assert checks.check_digests([cell], recorded) == []

    retimed = Cell("small", {**value, "seconds": value["seconds"] + 1.0,
                             "timing": {}})
    assert checks.check_digests([retimed], recorded) == []

    perturbed = Cell("small", {**value, "metrics": {
        **value["metrics"], "n_dips": value["metrics"]["n_dips"] + 1}})
    assert checks.check_digests([perturbed], recorded)

    broken = Cell("small", None, error="AttackError")
    assert checks.check_digests([broken], recorded)


def test_recorded_failure_may_become_an_outcome():
    recorded = {"removal": "failed:AttackError"}
    assert checks.check_digests([Cell("removal", {"success": True})],
                                recorded) == []
    assert checks.check_digests([Cell("removal", None, "AttackError")],
                                recorded) == []
    assert checks.check_digests([Cell("other", {})], recorded)


class _Clock:
    def __init__(self, corrected_s, raw_s):
        self.corrected_s, self.raw_s = corrected_s, raw_s


def test_speed_clock_scales_laps_by_the_probe():
    import speed

    probes = iter([2 * speed.PROBE_REFERENCE_S, 2 * speed.PROBE_REFERENCE_S,
                   4 * speed.PROBE_REFERENCE_S])
    clock = speed.SpeedClock(lambda: next(probes))
    time.sleep(0.02)
    raw1, corrected1 = clock.lap()
    assert abs(corrected1 - raw1 / 2) < 1e-12
    time.sleep(0.02)
    raw2, corrected2 = clock.lap()
    assert abs(corrected2 - raw2 / 3) < 1e-12    # mean probe 3x reference
    assert abs(clock.raw_s - raw1 - raw2) < 1e-12
    assert abs(clock.corrected_s - corrected1 - corrected2) < 1e-12
    assert 0 < speed.probe() < 1.0


def test_reported_metrics_match_benchmark_json():
    import json

    from workloads import PassResult

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    cells = [Cell("a", {}, elapsed=0.1), Cell("b", {}, elapsed=0.2)]
    passes = [run.Pass(PassResult(cells), _Clock(1.0, 1.2)),
              run.Pass(PassResult(cells), _Clock(1.1, 1.3))]
    for cells_alike in (False, True):
        end_to_end, _ = run.end_to_end_metrics(
            passes, setup_s=0.5, peak_mb=80.0, cells_alike=cells_alike)
        assert sorted(end_to_end) == \
            sorted(m["name"] for m in spec["end_to_end"])
        assert all(end_to_end[m["name"]][1] == m["unit"]
                   for m in spec["end_to_end"])

    traced = [(({}, {}, 0.5), run.Pass(PassResult(cells), _Clock(1.2, 1.4)))]
    per_layer = run.per_layer_metrics(traced, [1.0, 1.1])
    assert sorted(per_layer) == sorted(m["name"] for m in spec["per_layer"])
    assert all(run.layer_unit(m["name"]) == m["unit"]
               for m in spec["per_layer"])

"""The four workloads, driven through the public ``repro`` API.

Each workload has a ``setup(variant)`` that generates the inputs of a
pass (timed as set-up) and a ``run_pass(inputs, clock)`` that does one
closed-loop pass: every cell starts after the previous one finished, and
each cell is one lap of the :class:`speed.SpeedClock` ``clock``.  Only
the campaign-grid workload uses processes (``Campaign(jobs=2)``); the
rest run inline in the benchmark's own process.

The benchmark seed selects one of :data:`VARIANTS` input variants.  A
variant changes the *lock* seed (key values, FC sample streams), never
circuit sizes or generator seeds: circuit generator seeds moved a
fig6+fig7 pass by up to 20% while lock seeds keep every seed's work the
same (Theorem 1 fixes each TriLock attack's DIP count).  Cell outputs of
every variant are recorded in ``digests.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import checks
import speed
from repro.api import (ATTACKS, SCHEMES, AttackBudget, load_circuit,
                       matrix_cells)
from repro.attacks import SimulationOracle, sequential_sat_attack
from repro.campaign import Campaign, CellSpec, ResultStore
from repro.experiments import (fig3_error_tables, fig4_tradeoff,
                               fig6_overhead, fig7_fc, table1_sat_resilience,
                               table2_removal)
from repro.metrics import (average_simulated_fc, locking_overhead,
                           paper_depth_range)
from repro.metrics.resilience import ResilienceMeasurement

#: Number of input variants; ``--seed n`` runs variant ``n % VARIANTS``.
VARIANTS = 4

#: Pool width of the campaign-grid workload (the 2-core reference VM).
CAMPAIGN_JOBS = 2


@dataclass
class Cell:
    """One unit of work in a pass and what it returned."""

    label: str
    value: object = None
    error: str | None = None      # exception type name when it failed
    elapsed: float = 0.0          # corrected for CPU speed (speed.py)
    raw: float = 0.0              # wall time as measured


@dataclass
class PassResult:
    cells: list
    artifacts: dict = field(default_factory=dict)   # assembled results
    extra: dict = field(default_factory=dict)       # workload metrics


def _reseeded(specs, lock_seed):
    """``specs`` with only the lock seed (the ``seed`` cell parameter)
    replaced; circuit specs keep the generator seed folded into them."""
    return [CellSpec.make(spec.fn, {**spec.kwargs(), "seed": lock_seed},
                          experiment=spec.experiment, label=spec.label)
            for spec in specs]


def _cell_of(result, elapsed, raw):
    return Cell(result.spec.label, result.value,
                None if result.ok else result.error["type"], elapsed, raw)


def _run_cells(campaign, specs, clock):
    """Run ``specs`` one after another, each timed as one lap."""
    results, cells = [], []
    for spec in specs:
        (result,) = campaign.run([spec])
        raw, corrected = clock.lap()
        results.append(result)
        cells.append(_cell_of(result, corrected, raw))
    return results, cells


def _timed_cell(label, fn, clock):
    """Run ``fn()`` as one cell, timed as one lap; an exception is
    recorded as the cell's error (its type name), as a campaign records
    a failed cell."""
    try:
        value, error = fn(), None
    except Exception as exc:              # noqa: BLE001 - counted, reported
        value, error = None, type(exc).__name__
    raw, corrected = clock.lap()
    return Cell(label, value, error, corrected, raw)


# ----------------------------------------------------------------------
# paper-figs: Fig. 3, 4, 6, 7 and Table II over the ten suite circuits
# ----------------------------------------------------------------------
FIG6_KAPPA_S = (1,)
FIG7_KAPPA_F = (2,)
FIG7_ALPHA = (0.6,)
TABLE2_S = (0, 10)


def paper_figs_setup(variant):
    return [
        (fig3_error_tables, fig3_error_tables.cells(), {}),
        (fig4_tradeoff, fig4_tradeoff.cells(), {}),
        (fig6_overhead,
         _reseeded(fig6_overhead.cells(kappa_s_values=FIG6_KAPPA_S),
                   variant),
         {"kappa_s_values": FIG6_KAPPA_S}),
        (fig7_fc,
         _reseeded(fig7_fc.cells(alphas=FIG7_ALPHA,
                                 kappa_fs=FIG7_KAPPA_F), variant),
         {"alphas": FIG7_ALPHA, "kappa_fs": FIG7_KAPPA_F}),
        (table2_removal,
         _reseeded(table2_removal.cells(s_values=TABLE2_S), variant),
         {"s_values": TABLE2_S}),
    ]


def paper_figs_pass(inputs, clock):
    campaign = Campaign()
    cells, artifacts = [], {}
    for module, specs, assemble_kwargs in inputs:
        results, experiment_cells = _run_cells(campaign, specs, clock)
        cells.extend(experiment_cells)
        if all(result.ok for result in results):
            result = module.assemble([r.value for r in results],
                                     **assemble_kwargs)
            artifacts[result.experiment] = result
        clock.lap()
    return PassResult(cells, artifacts)


# ----------------------------------------------------------------------
# sat-attack: attack cells through matrix_cell plus the Table I cell
# ----------------------------------------------------------------------
#: Lock seed of the Table I and solve cells on every benchmark seed.
#: Theorem 1 fixes a TriLock attack's DIP count, but not the solver's
#: work per DIP, which depends on the key: across the four lock seeds
#: the Table I cell took 0.41-0.83 s and the solve cell 0.64-0.87 s, and
#: a pass 2.4-3.0 s.  With one lock seed for both, every benchmark seed
#: does the same work.
KEY_COST_LOCK_SEED = 0

#: (label, circuit, schemes, attack, fixed lock seed or None = variant).
#: Removal cells keep lock seed 0: the TriLock ones are the inputs on
#: which ``removal`` raises ``AttackError`` today (counted as failures).
SAT_ATTACK_CELLS = (
    ("solve", "synth?gates=60&ffs=8&pis=2&pos=3&seed=0",
     ("trilock?kappa_s=3",), "seq-sat", KEY_COST_LOCK_SEED),
    ("pin", "synth?gates=220&pis=6&seed=0",
     ("sarlock",), "comb-sat?dip_batch=8", None),
    ("removal", "synth?gates=60|240&seed=0",
     ("trilock?kappa_s=1&s_pairs=4", "sarlock?g=1"), "removal", 0),
)

#: The oracle cell: a black-box seq-sat attack (no reference netlist),
#: so candidate keys are verified by ``check_rounds`` random oracle
#: sequences, in batched oracle queries, instead of by BMC.
#: ``matrix_cell`` always hands the attack the original netlist, so this
#: cell calls ``sequential_sat_attack`` directly.
ORACLE_CIRCUIT = "synth?gates=3000&pis=6&seed=0"
ORACLE_LABEL = "oracle:trilock?kappa_s=1/seq-sat(black-box)"
ORACLE_ATTACK = {"dip_batch": 16, "check_rounds": 256}

#: label prefix -> (kappa_s, |I|) of the successful TriLock SAT cells;
#: Theorem 1 says they need exactly 2^(kappa_s*|I|) DIPs.
THEOREM1_CELLS = {"table1": (1, 5), "solve": (3, 2), "oracle": (1, 6)}


def sat_attack_setup(variant):
    specs = _reseeded(table1_sat_resilience.cells(effort="quick"),
                      KEY_COST_LOCK_SEED)
    for label, circuit, schemes, attack, fixed_seed in SAT_ATTACK_CELLS:
        seed = variant if fixed_seed is None else fixed_seed
        grid = matrix_cells([circuit], schemes, [attack], seed=seed)
        specs.extend(CellSpec.make(spec.fn, spec.kwargs(),
                                   experiment=label,
                                   label=f"{label}:{spec.label}")
                     for spec in grid)
    return {"specs": specs, "oracle_netlist": load_circuit(ORACLE_CIRCUIT),
            "seed": variant}


def black_box_attack(netlist, seed):
    """Lock ``netlist`` with TriLock (kappa_s=1) and attack it through
    the oracle alone; the output has a matrix cell's shape."""
    locked = SCHEMES.get("trilock").lock(netlist, seed=seed, kappa_s=1)
    result = sequential_sat_attack(
        locked.netlist, locked.config.kappa,
        SimulationOracle(locked.original),
        known_depth=locked.config.kappa_s, reference=None, seed=seed,
        **ORACLE_ATTACK)
    key_ok = bool(result.success and result.key is not None
                  and result.key.as_int == locked.key.as_int)
    return {"success": result.success, "verified": result.verified,
            "key": None if result.key is None else str(result.key),
            "metrics": {"n_dips": result.n_dips, "key_ok": key_ok,
                        "stop_reason": result.stop_reason,
                        "oracle_queries": result.oracle_queries,
                        "oracle_calls": result.oracle_calls}}


def sat_attack_pass(inputs, clock):
    results, cells = _run_cells(Campaign(), inputs["specs"], clock)
    cells.append(_timed_cell(ORACLE_LABEL, lambda: black_box_attack(
        inputs["oracle_netlist"], inputs["seed"]), clock))
    table1 = results[0]
    artifacts = {}
    if table1.ok:
        metrics = table1.value["metrics"]
        measured = ResilienceMeasurement(
            circuit="b12", kappa_s=1, width=5, ndip=metrics["n_dips"],
            seconds=table1.value["seconds"],
            measured=bool(table1.value["success"]),
            attack_succeeded=bool(table1.value["success"]),
            key_correct=bool(metrics["key_ok"]))
        artifacts["table1"] = table1_sat_resilience.assemble(
            [measured], effort="quick")
    return PassResult(cells, artifacts)


# ----------------------------------------------------------------------
# lock-large: one large circuit through lock, FC, overhead and an attack
# ----------------------------------------------------------------------
LARGE_WIDTH = 16
LARGE_CIRCUIT = (f"synth?gates=12000&ffs=600&pis={LARGE_WIDTH}&pos=16"
                 "&seed=0")
LARGE_SCHEME = {"kappa_s": 2, "kappa_f": 1, "alpha": 0.6, "s_pairs": 10}
LARGE_FC_SAMPLES = 800
LARGE_MAX_DIPS = 2


def lock_large_setup(variant):
    return {"netlist": load_circuit(LARGE_CIRCUIT), "seed": variant}


def lock_large_pass(inputs, clock):
    seed = inputs["seed"]
    locked = None

    def lock():
        nonlocal locked
        locked = SCHEMES.get("trilock").lock(inputs["netlist"], seed=seed,
                                             **LARGE_SCHEME)
        # The LockedCircuit itself is not JSON; its digest is the
        # netlist shape and the key.
        return {"stats": locked.netlist.stats(),
                "key": [list(v) for v in locked.key_vectors()]}

    cells = [_timed_cell("lock", lock, clock)]
    if locked is None:
        return PassResult(cells)
    cells += [
        _timed_cell("fc", lambda: {"FC_sim": average_simulated_fc(
            locked, paper_depth_range(LARGE_SCHEME["kappa_s"]),
            n_samples=LARGE_FC_SAMPLES, seed=seed)}, clock),
        _timed_cell("overhead", lambda: locking_overhead(locked).as_row(),
                    clock),
        _timed_cell("comb-sat", lambda: ATTACKS.get("comb-sat").run(
            locked, budget=AttackBudget(max_dips=LARGE_MAX_DIPS)).as_dict(),
            clock),
    ]
    return PassResult(cells)


# ----------------------------------------------------------------------
# campaign-grid: a cold then warm pass of a cheap matrix through a pool
# ----------------------------------------------------------------------
GRID_CIRCUITS = ["synth?gates=20|25|30|35|40|45|50|55|60|65&ffs=4&pis=3"
                 "&pos=2&seed=0"]
GRID_SCHEMES = ["trilock?kappa_s=1", "sarlock", "sink", "harpoon",
                "sublock"]
GRID_ATTACKS = ["seq-sat", "comb-sat"]

#: The cold pass runs the grid as consecutive campaigns of this many
#: cells, each one probed before and after (see campaign_grid_pass).
COLD_CHUNK = 10

#: Warm reruns per pass (~1 s of reruns; a single 10 ms rerun is too
#: short to time alone), timed in laps of :data:`WARM_LAP` reruns.
WARM_RERUNS = 100
WARM_LAP = 10


def campaign_grid_setup(variant):
    return {"seed": variant, "work_dir": os.path.join(os.getcwd(),
                                                      ".e2ebench-work")}


def campaign_grid_pass(inputs, clock):
    """The cold pass runs in pool workers spread over every CPU, so it
    is corrected by the mean probe over all CPUs (``speed.probe_all``).
    The pool's CPUs change speed within the ~3 s cold pass, so it runs
    as campaigns of :data:`COLD_CHUNK` cells on the same store, each
    corrected by the probes around it: over 13 passes this cut the
    spread of the cold wall time from 13.4% to 5.9% and of the median
    cell latency from 22.1% to 9.5%.  The warm reruns run in this
    process and are timed by ``clock``."""
    grid = (GRID_CIRCUITS, GRID_SCHEMES, GRID_ATTACKS)
    os.makedirs(inputs["work_dir"], exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=inputs["work_dir"])
    try:
        campaign = Campaign(jobs=CAMPAIGN_JOBS, store=ResultStore(store_dir))
        specs = matrix_cells(*grid, seed=inputs["seed"])
        cold, cells, cold_raw, cold_wall = [], [], 0.0, 0.0
        before = speed.probe_all()
        for first in range(0, len(specs), COLD_CHUNK):
            start = time.perf_counter()
            chunk = campaign.run(specs[first:first + COLD_CHUNK])
            raw = time.perf_counter() - start
            after = speed.probe_all()
            factor = speed.correct(1.0, before, after)
            before = after
            cold += chunk
            cells += [_cell_of(result, result.elapsed * factor,
                               result.elapsed) for result in chunk]
            cold_raw += raw
            cold_wall += raw * factor
        clock.lap()
        warm_walls = []
        for _ in range(WARM_RERUNS // WARM_LAP):
            for _ in range(WARM_LAP):
                warm = campaign.run(matrix_cells(*grid,
                                                 seed=inputs["seed"]))
            warm_walls.append(clock.lap()[1] / WARM_LAP)
        stats = campaign.stats().as_dict()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
        try:
            os.rmdir(inputs["work_dir"])
        except OSError:
            pass
    in_worker = sum(result.elapsed for result in cold)
    extra = {
        "cold_wall_s": cold_wall,
        "cold_raw_s": cold_raw,
        "warm_walls": warm_walls,
        "warm_hits": sum(result.cached for result in warm),
        "warm_identical": all(
            json.dumps(c.value) == json.dumps(w.value)
            for c, w in zip(cold, warm, strict=True)),
        "store": stats,
        "worker_idle_s": CAMPAIGN_JOBS * cold_raw - in_worker,
    }
    return PassResult(cells, extra=extra)


@dataclass(frozen=True)
class Workload:
    """``setup(variant) -> inputs``,
    ``run_pass(inputs, clock) -> PassResult``
    and ``check(PassResult) -> [problem]`` (the paper invariants).
    ``cells_alike``: the cells are many and of similar cost, so cell
    latency percentiles mean something.  ``pooled``: cells run in pool
    worker processes, whose memory counts toward ``peak_rss_mb``."""

    name: str
    setup: object
    run_pass: object
    check: object
    cells_alike: bool = False
    pooled: bool = False


#: Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload("paper-figs", paper_figs_setup, paper_figs_pass,
                 checks.check_paper_figs),
        Workload("sat-attack", sat_attack_setup, sat_attack_pass,
                 lambda result: checks.check_sat_attack(result,
                                                        THEOREM1_CELLS)),
        Workload("lock-large", lock_large_setup, lock_large_pass,
                 lambda result: checks.check_lock_large(
                     result, LARGE_SCHEME["alpha"], LARGE_SCHEME["kappa_f"],
                     LARGE_WIDTH, LARGE_MAX_DIPS)),
        Workload("campaign-grid", campaign_grid_setup, campaign_grid_pass,
                 checks.check_campaign_grid, cells_alike=True,
                 pooled=True),
    )
}

"""Outside-in layer tracer: spans and counters around public entry points.

The tracer never edits ``repro``: :meth:`Tracer.install` replaces each
entry point listed in :data:`ENTRY_POINTS` with a timing wrapper, in the
class that defines it (methods) or in every loaded module that holds a
reference to it (functions imported by name, the benchmark's own
modules included), and
:meth:`Tracer.uninstall` puts the originals back.

A span records calls, total time and self time (total minus the time of
spans nested inside it).  A call into an entry point whose span is
already open further up the stack (``query_batch_flat`` into
``query_batch``, ``average_simulated_fc`` into ``simulate_fc``) is
counted and timed once, by the outermost span.  Root spans (opened with
nothing else open) add up to the covered time.

Counters (DIPs found, clauses encoded, solver conflicts, ...) are read
at the same boundaries from arguments, results and solver fields.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module`` + ``attr`` (``Class.method`` for
    methods), the span it feeds (``None`` = counters only, for per-gate
    hot calls too frequent to time), and an optional ``counts(args,
    kwargs, result, before)`` returning counter increments, where
    ``before`` is ``probe(args, kwargs)`` taken before the call."""

    module: str
    attr: str
    span: str | None
    counts: object = None
    probe: object = None


def _count_calls(name):
    return lambda args, kwargs, result, before: {name: 1}


def _pattern_cycles(args, kwargs, result, before):
    # SequentialSimulator.run(self, input_words_per_cycle, n_patterns, ...)
    words = args[1] if len(args) > 1 else kwargs["input_words_per_cycle"]
    n_patterns = args[2] if len(args) > 2 else kwargs["n_patterns"]
    return {"sim.pattern_cycles": len(words) * n_patterns}


def _unroll_frames(args, kwargs, result, before):
    # unroll(netlist, depth, ...)
    return {"unroll.frames": args[1] if len(args) > 1 else kwargs["depth"]}


def _clauses_before(args, kwargs):
    cnf = args[1] if len(args) > 1 else kwargs.get("cnf")
    return 0 if cnf is None else len(cnf.clauses)


def _clauses_added(args, kwargs, result, before):
    return {"cnf.clauses": len(result.cnf.clauses) - before}


_SOLVER_FIELDS = (("sat.conflicts", "num_conflicts"),
                  ("sat.propagations", "num_propagations"),
                  ("sat.decisions", "num_decisions"))


def _solver_before(args, kwargs):
    return [getattr(args[0], attr, 0) for _, attr in _SOLVER_FIELDS]


def _solver_delta(args, kwargs, result, before):
    return {name: getattr(args[0], attr, 0) - start
            for (name, attr), start in zip(_SOLVER_FIELDS, before)}


def _oracle_patterns(args, kwargs, result, before):
    # query_batch(self, sequences) simulates one pattern per sequence.
    return {"attacks.oracle.patterns": len(result)}


def _query_one(args, kwargs, result, before):
    return {"attacks.oracle.patterns": 1}


def _dips_found(args, kwargs, result, before):
    return {"attacks.dips": len(result)}


#: The layers' public entry points.  Span names are ``<layer>.<verb>``.
ENTRY_POINTS = (
    EntryPoint("repro.bench.synth", "generate", "bench.generate"),
    EntryPoint("repro.netlist.netlist", "Netlist.validate",
               "netlist.validate"),
    EntryPoint("repro.netlist.transform", "InputSpecializer.specialize",
               "netlist.specialize"),
    EntryPoint("repro.api.schemes", "Scheme.lock", "core.lock"),
    EntryPoint("repro.core.error_tables", "spec_error_table",
               "core.error_tables"),
    EntryPoint("repro.core.error_tables", "naive_error_table",
               "core.error_tables"),
    EntryPoint("repro.core.error_tables", "measured_error_table",
               "core.error_tables"),
    EntryPoint("repro.sim.comb", "CombSimulator.__init__", "sim.compile"),
    EntryPoint("repro.sim.seq", "SequentialSimulator.run", "sim.run",
               counts=_pattern_cycles),
    EntryPoint("repro.tech.power", "simulate_power", "tech.power"),
    EntryPoint("repro.tech.timing", "critical_path_delay", "tech.timing"),
    EntryPoint("repro.tech.power", "cell_area", "tech.area"),
    EntryPoint("repro.tech.library", "Library.map_gate", None,
               counts=_count_calls("tech.map_gate.calls")),
    EntryPoint("repro.metrics.corruptibility", "average_simulated_fc",
               "metrics.fc"),
    EntryPoint("repro.metrics.corruptibility", "simulate_fc", "metrics.fc"),
    EntryPoint("repro.metrics.overhead", "locking_overhead",
               "metrics.overhead"),
    EntryPoint("repro.unroll.unroller", "unroll", "unroll",
               counts=_unroll_frames),
    EntryPoint("repro.cnf.tseitin", "encode", "cnf.encode",
               counts=_clauses_added, probe=_clauses_before),
    EntryPoint("repro.sat.solver", "Solver.solve", "sat.solve",
               counts=_solver_delta, probe=_solver_before),
    EntryPoint("repro.attacks.oracle", "SimulationOracle.query",
               "attacks.oracle", counts=_query_one),
    EntryPoint("repro.attacks.oracle", "SimulationOracle.query_batch",
               "attacks.oracle", counts=_oracle_patterns),
    EntryPoint("repro.attacks.comb_sat", "DipEngine.pin_batch",
               "attacks.pin"),
    EntryPoint("repro.attacks.bmc", "bounded_equivalence", "attacks.verify"),
    EntryPoint("repro.attacks.comb_sat", "DipEngine.find_dip_batch", None,
               counts=_dips_found),
    EntryPoint("repro.campaign.store", "ResultStore.get",
               "campaign.store.get"),
    EntryPoint("repro.campaign.store", "ResultStore.put",
               "campaign.store.put"),
    EntryPoint("repro.api.cells", "matrix_cells", "api.spec"),
    EntryPoint("repro.api.cells", "canonical_scheme_spec", "api.spec"),
    EntryPoint("repro.api.cells", "canonical_attack_spec", "api.spec"),
    EntryPoint("repro.api.circuits", "canonical_circuit_spec", "api.spec"),
    EntryPoint("repro.api.spec", "expand_grid", "api.spec"),
    EntryPoint("repro.api.cells", "matrix_cell", "api.cell"),
    EntryPoint("repro.experiments.fig3_error_tables", "assemble",
               "experiments.assemble"),
    EntryPoint("repro.experiments.fig4_tradeoff", "assemble",
               "experiments.assemble"),
    EntryPoint("repro.experiments.fig6_overhead", "assemble",
               "experiments.assemble"),
    EntryPoint("repro.experiments.fig7_fc", "assemble",
               "experiments.assemble"),
    EntryPoint("repro.experiments.table1_sat_resilience", "assemble",
               "experiments.assemble"),
    EntryPoint("repro.experiments.table2_removal", "assemble",
               "experiments.assemble"),
)


class Tracer:
    """Span and counter collection for the entry points it installs."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans = {}
        self.counters = {}
        self.covered_s = 0.0
        self._stack = []          # [name, start, child_seconds]
        self._open = {}           # span name -> open depth count
        self._patches = []        # (owner, attr, original)

    # -- recording -----------------------------------------------------
    def reset(self):
        self.spans = {}
        self.counters = {}
        self.covered_s = 0.0

    def count(self, increments):
        for name, value in increments.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def _call(self, entry, fn, args, kwargs):
        before = entry.probe(args, kwargs) if entry.probe else None
        name = entry.span
        if name is None or self._open.get(name):
            result = fn(*args, **kwargs)
        else:
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._open[name] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                self._stack.pop()
                self._open[name] = 0
                stats = self.spans.get(name)
                if stats is None:
                    stats = self.spans[name] = SpanStats()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[2]
                if self._stack:
                    self._stack[-1][2] += elapsed
                else:
                    self.covered_s += elapsed
        if entry.counts is not None:
            self.count(entry.counts(args, kwargs, result, before))
        return result

    def _wrapper(self, entry, fn):
        def traced(*args, **kwargs):
            return self._call(entry, fn, args, kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        return traced

    # -- patching ------------------------------------------------------
    def install(self):
        """Wrap every entry point; idempotent per tracer."""
        if self._patches:
            return self
        for entry in self.entry_points:
            module = importlib.import_module(entry.module)
            owner_name, _, method = entry.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original,
                            self._wrapper(entry, original))
                continue
            original = getattr(module, method)
            wrapped = self._wrapper(entry, original)
            for loaded in list(sys.modules.values()):
                if loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, original, wrapped)
        return self

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

"""Removal attack based on SCC analysis of the register connection graph.

Following Section II-C/III-C and [19], the attacker (assumed able to
recognise all state registers [20,21]) clusters them with an SCC
algorithm and tries to separate the locking registers from the original
ones. Two tools:

* :func:`scc_report` — the Table II metrics (#O-SCC, #E-SCC, #M-SCC,
  ``P_M``), scored against ground-truth provenance;
* :func:`attempt_removal` — an end-to-end removal attack: label registers
  that are structurally separable from the anchor cluster (no provenance
  used), strip them, and SAT-solve for tie-off constants that make the
  stripped circuit match the oracle *without any key*. On a separable
  (``S = 0``) design this unlocks the circuit; once Algorithm 1 has
  entangled the lock FSM into the mixed SCC there is nothing left to
  strip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.attacks.bmc import bounded_equivalence
from repro.attacks.comb_sat import comb_sat_attack
from repro.attacks.oracle import SimulationOracle
from repro.core.rcg import build_rcg, cyclic_sccs
from repro.errors import InconsistentOracleError
from repro.netlist.transform import simplified, specialise_on_inputs
from repro.unroll import unroll


@dataclass
class SccReport:
    """Table II row: SCC clustering structure of one locked netlist."""

    o_sccs: int
    e_sccs: int
    m_sccs: int
    pm_percent: float
    total_registers: int
    registers_in_m: int
    components: list = field(default_factory=list)  # (kind, size) pairs

    def as_row(self):
        return {
            "O": self.o_sccs,
            "E": self.e_sccs,
            "M": self.m_sccs,
            "PM": self.pm_percent,
        }


def _kind_of(kinds):
    if "encoded" in kinds or len(kinds) > 1:
        return "M"
    return "O" if kinds == {"original"} else "E"


def scc_report(locked, include_trivial=False):
    """SCC clustering quality against ground-truth provenance.

    By default only *cyclic* SCCs are counted (size >= 2 or self-loop),
    the convention set in DESIGN.md §6; ``include_trivial`` also counts
    isolated registers as their own SCCs.
    """
    provenance = locked.register_provenance()
    graph = build_rcg(locked.netlist, provenance)
    if include_trivial:
        components = [set(c) for c in nx.strongly_connected_components(graph)]
    else:
        components = cyclic_sccs(graph)

    counts = {"O": 0, "E": 0, "M": 0}
    registers_in_m = 0
    details = []
    for component in components:
        kinds = {graph.nodes[n]["provenance"] for n in component}
        kind = _kind_of(kinds)
        counts[kind] += 1
        if kind == "M":
            registers_in_m += len(component)
        details.append((kind, len(component)))

    total = locked.netlist.num_flops()
    return SccReport(
        o_sccs=counts["O"],
        e_sccs=counts["E"],
        m_sccs=counts["M"],
        pm_percent=100.0 * registers_in_m / total if total else 0.0,
        total_registers=total,
        registers_in_m=registers_in_m,
        components=sorted(details, key=lambda item: -item[1]),
    )


def separable_registers(netlist, anchor_rank=0):
    """Registers structurally separable from an anchor SCC.

    Pure structural labelling — exactly what a removal attacker can
    compute. The anchor is the ``anchor_rank``-th largest cyclic SCC; a
    register is separable when it *influences* the anchor (it reaches it)
    but is itself outside the anchor's forward cone — the signature of an
    autonomous controller grafted onto a design, which is what a lock FSM
    is. Without re-encoding the lock's phase counter and comparison flags
    land here; Algorithm 1 exists precisely to absorb them into the mixed
    SCC so that nothing separable remains.
    """
    graph = build_rcg(netlist)
    components = sorted(cyclic_sccs(graph), key=len, reverse=True)
    if anchor_rank >= len(components):
        return []
    anchor = components[anchor_rank]
    seed = next(iter(anchor))
    forward = nx.descendants(graph, seed) | anchor
    backward = nx.ancestors(graph, seed) | anchor
    return [q for q in netlist.flops
            if q not in forward and q in backward]


@dataclass
class RemovalAttempt:
    """Result of the strip-and-solve removal attack."""

    success: bool
    stripped_registers: tuple
    tie_values: dict | None      # stripped Q net -> constant
    n_dips: int
    verified: bool
    reason: str = ""


def attempt_removal(locked, depth=None, max_dips=256, time_budget=None,
                    verify_depth=None, anchor_tries=3):
    """Strip separable registers, then solve tie constants via DIPs.

    The stripped registers' Q nets become free symbolic constants; a
    COMB-SAT run over the unrolled keyless circuit searches for values
    that reproduce the oracle from reset (no key cycles at all). Success
    means the locking scheme has been removed. Up to ``anchor_tries``
    candidate anchor SCCs are attempted (a real attacker iterates).
    """
    last = RemovalAttempt(
        success=False, stripped_registers=(), tie_values=None,
        n_dips=0, verified=False,
        reason="no structurally separable registers")
    for rank in range(anchor_tries):
        suspects = separable_registers(locked.netlist, anchor_rank=rank)
        if not suspects:
            continue
        attempt = _attempt_removal_with(
            locked, suspects, depth, max_dips, time_budget, verify_depth)
        if attempt.success:
            return attempt
        last = attempt
    return last


def _attempt_removal_with(locked, suspects, depth, max_dips, time_budget,
                          verify_depth):
    netlist = locked.netlist
    stripped = netlist.copy(name=netlist.name + "_stripped")
    for q in suspects:
        stripped.remove_flop(q)
    tie_nets = []
    for q in suspects:
        stripped.add_input(q)
        tie_nets.append(q)

    if depth is None:
        depth = locked.config.kappa_s + 1
    unrolled = unroll(stripped, depth, name="removal_view")
    view = unrolled.netlist

    # Merge the per-cycle copies of each tie net into one shared constant.
    mapping = {}
    for q in tie_nets:
        for cycle in range(depth):
            mapping[f"{q}@{cycle}"] = f"tie::{q}"
    merged_view = _merge_inputs(view, mapping)
    merged_view = simplified(merged_view, name="removal_view_folded")

    oracle = SimulationOracle(locked.original)
    width = len(locked.original.inputs)

    def oracle_fn(flat_data):
        vectors = [tuple(flat_data[c * width:(c + 1) * width])
                   for c in range(depth)]
        trace = oracle.query(vectors)
        return tuple(bit for cycle in trace for bit in cycle)

    def oracle_batch_fn(flat_batch):
        sequences = [[tuple(flat[c * width:(c + 1) * width])
                      for c in range(depth)] for flat in flat_batch]
        return oracle.query_batch_flat(sequences)

    tie_inputs = sorted({mapping[f"{q}@0"] for q in tie_nets})
    try:
        result = comb_sat_attack(merged_view, tie_inputs, oracle_fn,
                                 max_dips=max_dips, time_budget=time_budget,
                                 oracle_batch_fn=oracle_batch_fn)
    except InconsistentOracleError as error:
        # Every DIP pinned, yet no tie assignment matches the oracle:
        # the stripped circuit cannot be unlocked by constants alone.
        return RemovalAttempt(
            success=False, stripped_registers=tuple(suspects),
            tie_values=None, n_dips=error.n_pinned, verified=False,
            reason="no tie constants reproduce the oracle")
    if not result.success:
        return RemovalAttempt(
            success=False, stripped_registers=tuple(suspects),
            tie_values=None, n_dips=result.n_dips, verified=False,
            reason=f"tie solving stopped: {result.stop_reason}")

    tie_values = {net.removeprefix("tie::"): value
                  for net, value in result.key.items()}

    # Verify: fold the ties into the sequential stripped circuit and BMC
    # against the original, from reset, without any key prefix.
    tied = specialise_on_inputs(
        stripped, {q: (1 if tie_values[q] else 0) for q in tie_nets},
        name="removal_tied")
    if verify_depth is None:
        verify_depth = locked.config.kappa + locked.config.kappa_s + 4
    check = bounded_equivalence(locked.original, tied, depth=verify_depth)
    return RemovalAttempt(
        success=bool(check.equivalent),
        stripped_registers=tuple(suspects),
        tie_values=tie_values,
        n_dips=result.n_dips,
        verified=bool(check.equivalent),
        reason="" if check.equivalent else "tie constants fail BMC",
    )


def _merge_inputs(netlist, mapping):
    """Rename inputs so aliased names collapse into single shared inputs."""
    merged = netlist.__class__(netlist.name + "_merged")
    added = set()
    for net in netlist.inputs:
        target = mapping.get(net, net)
        if target not in added:
            merged.add_input(target)
            added.add(target)
    for net, gate in netlist.gates.items():
        merged.add_gate(mapping.get(net, net), gate.op,
                        [mapping.get(s, s) for s in gate.inputs])
    for q, flop in netlist.flops.items():
        merged.add_flop(mapping.get(q, q), mapping.get(flop.d, flop.d),
                        flop.init)
    for net in netlist.outputs:
        merged.add_output(mapping.get(net, net))
    return merged.validate()

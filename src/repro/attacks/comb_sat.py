"""COMB-SAT: the oracle-guided DIP attack of Subramanyan et al. [24].

Operates on a *combinational* locked circuit whose inputs split into data
inputs and key inputs (for sequential TriLock the caller passes an
unrolled circuit where the first ``κ`` cycle-inputs act as the key, per
Section II-B). Each iteration finds a distinguishing input pattern (DIP)
— a data pattern on which two keys that satisfy all constraints so far
disagree — queries the oracle, and pins both key copies to the observed
response. When no DIP remains, any satisfying key is functionally
equivalent on the attacked window.

The attack engine is built from two orthogonal pieces:

* :class:`DipEngine` owns the miter, the constraint store, and the
  solver — which may be a single registered backend or a racing
  :class:`~repro.sat.portfolio.PortfolioSolver` (``portfolio`` /
  ``attack_jobs`` knobs, see :func:`repro.sat.make_attack_solver`);
* :func:`comb_sat_attack` drives the DIP loop, optionally *batched*:
  ``dip_batch=k`` extracts up to ``k`` distinct DIPs per miter round by
  re-solving under blocking clauses gated on the miter activation
  literal, then pins all ``k`` oracle responses before the next round.
  Blocking a queried pattern is sound because once its I/O pair is
  pinned on both key copies no surviving key pair can disagree on it;
  gating the clause on ``act`` keeps key extraction and the
  candidate-key feasible set equivalent to pinning the same DIPs one at
  a time.

``dip_batch=1`` with the default portfolio is byte-identical to the
historical single-solver loop (same solver, same clauses, same DIP
sequence).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.cnf import Cnf, encode
from repro.errors import AttackError, InconsistentOracleError
from repro.netlist.transform import InputSpecializer
from repro.sat import make_attack_solver


@dataclass
class CombSatResult:
    """Outcome of one COMB-SAT run.

    ``solve_seconds`` / ``oracle_seconds`` / ``encode_seconds`` break the
    wall-clock into the DIP loop's three phases: miter solving (DIP
    extraction + key extraction), oracle queries, and I/O-pair pinning
    (specialise + CNF encode).  The remainder of ``seconds`` is loop
    overhead.
    """

    success: bool
    key: dict | None          # key input net -> bool (None if failed)
    n_dips: int
    seconds: float
    dips: list = field(default_factory=list)
    solver_stats: dict = field(default_factory=dict)
    stop_reason: str = "no_more_dips"
    n_rounds: int = 0         # miter rounds (== n_dips when dip_batch=1)
    solve_seconds: float = 0.0
    oracle_seconds: float = 0.0
    encode_seconds: float = 0.0


def _miter_copy_map(netlist, key_set, tag):
    """Rename map for a miter copy: shared data inputs, per-copy keys."""
    mapping = {}
    for net in netlist.nets():
        if net in key_set:
            mapping[net] = f"key_{tag}::{net}"
        elif netlist.is_input(net):
            mapping[net] = net  # data inputs are shared between copies
        else:
            mapping[net] = f"mtr_{tag}::{net}"
    return mapping


def _constraint_copy_map(netlist, key_set, tag, index):
    """Rename map for an I/O-constraint copy: shares only the key nets."""
    mapping = {}
    for net in netlist.nets():
        if net in key_set:
            mapping[net] = f"key_{tag}::{net}"
        else:
            mapping[net] = f"io_{tag}{index}::{net}"
    return mapping


class DipEngine:
    """Miter plus constraint store of one COMB-SAT attack.

    Builds the two-copy miter over ``locked`` (shared data inputs,
    per-copy key inputs), then serves the DIP loop: batched DIP
    extraction, I/O-pair pinning, and final key extraction.  The solver
    is either injected (``solver=...``) or built from the ``portfolio``
    and ``attack_jobs`` knobs; an engine that built its own solver also
    tears it down in :meth:`close`.
    """

    def __init__(self, locked, key_inputs, solver=None, portfolio=None,
                 attack_jobs=1):
        self.locked = locked
        self.key_inputs = list(key_inputs)
        self.key_set = set(self.key_inputs)
        unknown = self.key_set - set(locked.inputs)
        if unknown:
            raise AttackError(
                f"key inputs not in circuit: {sorted(unknown)[:4]}")
        self.data_inputs = [net for net in locked.inputs
                            if net not in self.key_set]

        if solver is not None and (portfolio is not None
                                   or attack_jobs != 1):
            raise AttackError(
                "pass either an explicit solver or the portfolio/"
                "attack_jobs knobs, not both (the injected solver would "
                "silently win)")
        self._owns_solver = solver is None
        self.solver = solver if solver is not None else \
            make_attack_solver(portfolio=portfolio, attack_jobs=attack_jobs)

        self.map_a = _miter_copy_map(locked, self.key_set, "a")
        self.map_b = _miter_copy_map(locked, self.key_set, "b")
        cnf = Cnf()
        self.var_of = {}
        encode(locked.renamed(self.map_a, name="miter_a"), cnf=cnf,
               var_of=self.var_of)
        encode(locked.renamed(self.map_b, name="miter_b"), cnf=cnf,
               var_of=self.var_of)
        self.solver.ensure_vars(cnf.num_vars)
        if not self.solver.add_cnf(cnf):
            raise AttackError("locked circuit CNF is unsatisfiable")

        # Gated miter: act -> (some output pair differs).
        self.act = self.solver.new_var()
        diff_lits = []
        for net in locked.outputs:
            lit_a = self.var_of[self.map_a[net]]
            lit_b = self.var_of[self.map_b[net]]
            diff = self.solver.new_var()
            for clause in _xor_clauses(diff, lit_a, lit_b):
                self.solver.add_clause(clause)
            diff_lits.append(diff)
        self.solver.add_clause([-self.act] + diff_lits)
        self.n_pinned = 0

        # Pinning scaffolding, reused across every pinned DIP: the
        # specializer caches the fold order of `locked`, the Cnf arena is
        # recycled per batch, and the key-variable map lets copy "b" of
        # each constraint be mirrored from copy "a" by literal remapping
        # instead of a second specialise+encode pass.
        self._specializer = None
        self._pin_cnf = Cnf()
        self._key_var_b_of_a = {
            self.var_of[self.map_a[net]]: self.var_of[self.map_b[net]]
            for net in self.key_inputs
        }

    # ------------------------------------------------------------------
    def _solve(self, assumptions=()):
        """Solve, refusing to conflate *interrupted* with UNSAT.

        The backend contract allows ``solve`` to return ``None``
        (unknown) when an interrupt callback fired; treating that as
        "no DIP remains" would let an interrupted attack report success
        with an under-constrained key.
        """
        result = self.solver.solve(assumptions=assumptions)
        if result is None:
            raise AttackError(
                "miter solve interrupted (unknown result); the attack "
                "cannot conclude from a cancelled search")
        return result

    def find_dip_batch(self, limit=1, deadline=None):
        """Extract up to ``limit`` distinct DIPs from the current store.

        The first DIP comes from a plain gated-miter solve; each further
        one re-solves under a blocking clause excluding the data patterns
        already in the batch.  Blocking clauses are permanent but gated
        on the miter activation literal, so they only narrow the search
        for *new* DIPs — key extraction and feasibility queries (which
        leave ``act`` free) never see them, and the constraint store
        stays equivalent to pinning the same DIPs one at a time.
        Returns the batch in extraction order; empty means no DIP remains.

        ``deadline`` (a ``time.perf_counter`` instant) stops *re-solves*
        once passed, so a batch cannot overshoot an attack time budget
        by more than one miter solve — the first extraction of a round
        always runs, keeping ``dip_batch=1`` behaviour untouched.
        """
        if limit < 1:
            raise AttackError(f"DIP batch limit must be >= 1, got {limit}")
        batch = []
        while len(batch) < limit:
            if batch and deadline is not None \
                    and time.perf_counter() > deadline:
                break
            if not self._solve(assumptions=[self.act]):
                break
            dip = tuple(self.solver.model_value(self.var_of[net])
                        for net in self.data_inputs)
            batch.append(dip)
            if len(batch) >= limit or not self.data_inputs:
                break
            self.solver.add_clause([-self.act] + [
                -var if bit else var
                for var, bit in zip(
                    (self.var_of[net] for net in self.data_inputs), dip)
            ])
        return batch

    def pin_response(self, dip, response):
        """Constrain both key copies to produce ``response`` on ``dip``.

        The circuit is first partially evaluated on the (constant) DIP,
        so each copy encodes only the key-dependent cone — the standard
        constraint-compaction trick that keeps the clause store linear in
        key logic rather than circuit size.
        """
        self.pin_batch([(dip, response)])

    def pin_batch(self, pairs):
        """Pin a batch of ``(dip, response)`` I/O pairs in one arena pass.

        Clause-for-clause identical to calling :meth:`pin_response` per
        pair: each pair contributes copy-"a" clauses, copy-"a" response
        units, copy-"b" clauses, copy-"b" units, in batch order.  Each
        pair is specialised through the cached
        :class:`~repro.netlist.transform.InputSpecializer`, encodes copy
        "a" into one reused Cnf arena, and *mirrors* copy "b" by literal
        remapping: the two copies are structurally identical and share
        only the key variables with the rest of the store, so copy "b"
        is copy "a" with ``key_a`` variables swapped for ``key_b`` and
        every fresh variable shifted by the copy's fresh-variable count —
        exactly what a second ``encode()`` would allocate, without paying
        for the second specialise+encode pass.
        """
        pairs = [(dip, tuple(response)) for dip, response in pairs]
        n_outputs = len(self.locked.outputs)
        for _dip, response in pairs:
            if len(response) != n_outputs:
                raise AttackError("oracle response width mismatch")
        if self._specializer is None:
            self._specializer = InputSpecializer(self.locked)
        key_b_of_a = self._key_var_b_of_a
        cnf = self._pin_cnf
        cnf.num_vars = self.solver.num_vars
        cnf.clauses.clear()
        staged = []
        for dip, response in pairs:
            self.n_pinned += 1
            index = self.n_pinned
            assignments = {net: (1 if bit else 0)
                           for net, bit in zip(self.data_inputs, dip)}
            specialized = self._specializer.specialize(
                assignments, name=f"io_spec{index}")
            mapping = _constraint_copy_map(specialized, self.key_set, "a",
                                           index)
            copy_a = specialized.renamed(mapping, name=f"io_a{index}")
            start = len(cnf.clauses)
            base_vars = cnf.num_vars
            circuit = encode(copy_a, cnf=cnf, var_of=self.var_of)
            n_fresh = cnf.num_vars - base_vars
            a_clauses = cnf.clauses[start:]
            a_units = [[circuit.lit(net, bool(bit))]
                       for net, bit in zip(copy_a.outputs, response)]

            def mirror(lit, _base=base_vars, _shift=n_fresh):
                var = lit if lit > 0 else -lit
                mapped = key_b_of_a.get(var)
                if mapped is None:
                    mapped = var + _shift if var > _base else var
                return mapped if lit > 0 else -mapped

            staged.extend(a_clauses)
            staged.extend(a_units)
            staged.extend([mirror(lit) for lit in clause]
                          for clause in a_clauses)
            staged.extend([mirror(lit) for lit in clause]
                          for clause in a_units)
            cnf.num_vars += n_fresh  # reserve copy-b's variables
        self.solver.ensure_vars(cnf.num_vars)
        for clause in staged:
            self.solver.add_clause(clause)

    def solve_key(self):
        """A key consistent with every pinned I/O pair.

        Raises :class:`~repro.errors.InconsistentOracleError` when no key
        reproduces the oracle on the pinned patterns.
        """
        if not self._solve():
            raise InconsistentOracleError(
                "constraint store unsatisfiable: oracle inconsistent",
                n_pinned=self.n_pinned)
        return {net: self.solver.model_value(self.var_of[self.map_a[net]])
                for net in self.key_inputs}

    def feasible_keys(self):
        """Every key assignment consistent with the pinned I/O pairs.

        Exhaustive over ``2^|key_inputs|`` — a diagnostic for tests on
        toy circuits (this is the candidate-key feasible set that batched
        and sequential pinning must agree on).
        """
        feasible = set()
        key_vars = [self.var_of[self.map_a[net]] for net in self.key_inputs]
        for bits in itertools.product((False, True),
                                      repeat=len(key_vars)):
            assumptions = [var if bit else -var
                           for var, bit in zip(key_vars, bits)]
            if self._solve(assumptions=assumptions):
                feasible.add(bits)
        return feasible

    def close(self):
        """Tear down a solver this engine created (no-op otherwise)."""
        if self._owns_solver and hasattr(self.solver, "close"):
            self.solver.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def comb_sat_attack(locked, key_inputs, oracle_fn, max_dips=None,
                    collect_dips=False, time_budget=None, dip_batch=1,
                    portfolio=None, attack_jobs=1, solver=None,
                    oracle_batch_fn=None):
    """Run the DIP loop; returns a :class:`CombSatResult`.

    ``locked``
        Combinational netlist; its inputs are ``key_inputs`` plus data
        inputs (order irrelevant).
    ``oracle_fn``
        Callable mapping a tuple of data-input bits (ordered like the data
        inputs appear in ``locked.inputs``) to the tuple of correct output
        bits (ordered like ``locked.outputs``).
    ``oracle_batch_fn``
        Optional callable mapping a *list* of data-input tuples to the
        list of corresponding output tuples.  When given, a miter round
        that extracted ``k > 1`` DIPs issues ONE batched oracle call
        instead of ``k`` serial ``oracle_fn`` calls — the responses (and
        therefore the pinned constraint store, the DIP walk, and the
        recovered key) are required to be bit-identical to the serial
        loop; only the oracle's call count changes.  Single-DIP rounds
        still go through ``oracle_fn`` so ``dip_batch=1`` stays
        byte-identical to the historical loop, accounting included.
    ``max_dips`` / ``time_budget``
        Optional effort caps; exceeding one returns ``success=False`` with
        ``stop_reason`` set accordingly.
    ``dip_batch``
        DIPs extracted (and oracle responses pinned) per miter round;
        1 reproduces the classic one-DIP-per-iteration loop exactly.
    ``portfolio`` / ``attack_jobs`` / ``solver``
        Solver selection, forwarded to :class:`DipEngine`.
    """
    start = time.perf_counter()
    if dip_batch < 1:
        raise AttackError(f"dip_batch must be >= 1, got {dip_batch}")
    deadline = None if time_budget is None else start + time_budget
    solve_seconds = 0.0
    oracle_seconds = 0.0
    encode_seconds = 0.0
    with DipEngine(locked, key_inputs, solver=solver,
                   portfolio=portfolio, attack_jobs=attack_jobs) as engine:
        n_dips = 0
        n_rounds = 0
        dips = []
        stop_reason = "no_more_dips"
        while True:
            if max_dips is not None and n_dips >= max_dips:
                stop_reason = "max_dips"
                break
            if deadline is not None and time.perf_counter() > deadline:
                stop_reason = "time_budget"
                break
            limit = dip_batch
            if max_dips is not None:
                limit = min(limit, max_dips - n_dips)
            phase_start = time.perf_counter()
            batch = engine.find_dip_batch(limit, deadline=deadline)
            solve_seconds += time.perf_counter() - phase_start
            if not batch:
                break  # no distinguishing pattern remains
            n_rounds += 1
            responses = None
            if oracle_batch_fn is not None and len(batch) > 1:
                phase_start = time.perf_counter()
                responses = [tuple(response)
                             for response in oracle_batch_fn(list(batch))]
                oracle_seconds += time.perf_counter() - phase_start
                if len(responses) != len(batch):
                    raise AttackError(
                        "batched oracle returned "
                        f"{len(responses)} responses for {len(batch)} DIPs")
            pins = []
            for position, dip in enumerate(batch):
                # Mid-batch budget check: the first pin of a round always
                # lands (dip_batch=1 behaviour is untouched); later pins
                # stop once the budget is spent — the attack is failing
                # with stop_reason="time_budget" anyway, so the skipped
                # patterns' gated blocking clauses are harmless.
                if position and deadline is not None \
                        and time.perf_counter() > deadline:
                    stop_reason = "time_budget"
                    break
                n_dips += 1
                if collect_dips:
                    dips.append(dip)
                if responses is not None:
                    response = responses[position]
                else:
                    phase_start = time.perf_counter()
                    response = tuple(oracle_fn(dip))
                    oracle_seconds += time.perf_counter() - phase_start
                pins.append((dip, response))
            phase_start = time.perf_counter()
            engine.pin_batch(pins)
            encode_seconds += time.perf_counter() - phase_start
            if stop_reason == "time_budget":
                break

        if stop_reason != "no_more_dips":
            return CombSatResult(
                success=False, key=None, n_dips=n_dips,
                seconds=time.perf_counter() - start, dips=dips,
                solver_stats=engine.solver.stats(), stop_reason=stop_reason,
                n_rounds=n_rounds, solve_seconds=solve_seconds,
                oracle_seconds=oracle_seconds, encode_seconds=encode_seconds)

        phase_start = time.perf_counter()
        key = engine.solve_key()
        solve_seconds += time.perf_counter() - phase_start
        return CombSatResult(
            success=True, key=key, n_dips=n_dips,
            seconds=time.perf_counter() - start, dips=dips,
            solver_stats=engine.solver.stats(), n_rounds=n_rounds,
            solve_seconds=solve_seconds, oracle_seconds=oracle_seconds,
            encode_seconds=encode_seconds)


def _xor_clauses(out_var, lit_a, lit_b):
    return [
        [-out_var, lit_a, lit_b],
        [-out_var, -lit_a, -lit_b],
        [out_var, -lit_a, lit_b],
        [out_var, lit_a, -lit_b],
    ]

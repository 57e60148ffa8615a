"""The batched word-parallel oracle and the hoisted pinning path.

Two invariants anchor this file:

* the batched oracle is an *accounting* change, not a *behaviour*
  change — every trace, the DIP walk, the recovered key, and the
  feasible key set are bit-identical to a per-pattern oracle
  (:class:`SerialOracle`, which answers a batch one :meth:`query` at a
  time); only ``query_count`` collapses while ``pattern_count`` stays
  comparable;
* the hoisted pinning path (shared :class:`InputSpecializer` + arena
  batch encode + copy-b literal mirroring) feeds the solver the exact
  clause stream of a fresh ``simplified()`` plus two ``encode()`` copies
  per pin (:func:`_reference_pin`), so attack runs stay byte-identical
  to that construction.
"""

import pytest

import repro.attacks.comb_sat as comb_sat
from repro.attacks import SimulationOracle, sequential_sat_attack
from repro.attacks.comb_sat import DipEngine, _constraint_copy_map
from repro.attacks.seq_sat import unrolled_attack_view, _with_folded_constants
from repro.cnf import Cnf, encode
from repro.errors import AttackError
from repro.netlist.transform import InputSpecializer, simplified
from repro.sat import make_backend
from repro.sim import make_rng
from repro.sim.random_vectors import random_vectors

from tests.conftest import _locked_tiny, locked_factory


def _random_sequences(n_sequences, width, cycles, seed=7):
    rng = make_rng(("oracle-batch", seed))
    return [random_vectors(rng, width, cycles) for _ in range(n_sequences)]


class TestQueryBatch:
    def test_batch_matches_serial_queries_bit_for_bit(self):
        locked = _locked_tiny()
        serial = SimulationOracle(locked.original)
        batched = SimulationOracle(locked.original)
        sequences = _random_sequences(9, serial.input_width, 4)
        expected = [serial.query(seq) for seq in sequences]
        assert batched.query_batch(sequences) == expected
        assert batched.query_batch_flat(sequences) == \
            [serial.query_flat(seq) for seq in sequences]

    def test_accounting_calls_vs_patterns(self):
        locked = _locked_tiny()
        oracle = SimulationOracle(locked.original)
        sequences = _random_sequences(5, oracle.input_width, 3)
        oracle.query_batch(sequences)
        assert (oracle.query_count, oracle.pattern_count) == (1, 5)
        oracle.query(sequences[0])
        assert (oracle.query_count, oracle.pattern_count) == (2, 6)

    def test_empty_batch_is_free(self):
        oracle = SimulationOracle(_locked_tiny().original)
        assert oracle.query_batch([]) == []
        assert (oracle.query_count, oracle.pattern_count) == (0, 0)

    def test_mixed_length_sequences_rejected(self):
        oracle = SimulationOracle(_locked_tiny().original)
        seqs = _random_sequences(2, oracle.input_width, 3)
        seqs[1] = seqs[1][:2]
        with pytest.raises(AttackError, match=r"cycle counts \[2, 3\]"):
            oracle.query_batch(seqs)

    def test_width_validation_names_the_bad_cycle(self):
        oracle = SimulationOracle(_locked_tiny().original)
        seq = _random_sequences(1, oracle.input_width, 3)[0]
        seq[1] = seq[1] + (False,)
        with pytest.raises(AttackError, match="cycle 1: oracle stimulus"):
            oracle.query_batch([seq])


class SerialOracle(SimulationOracle):
    """Answers every batch one :meth:`query` at a time: the per-pattern
    reference the word-parallel batch must match, with one
    ``query_count`` call per DIP."""

    def query_batch(self, sequences):
        return [self.query(seq) for seq in sequences]

    def query_batch_flat(self, sequences):
        return [self.query_flat(seq) for seq in sequences]


def _attack_pair(kappa_s, dip_batch, portfolio=None, attack_jobs=1,
                 seed=3):
    """Run the same attack against a serial and a batched oracle;
    returns both ``(result, oracle)`` pairs."""
    locked = locked_factory(kappa_s=kappa_s, seed=seed)
    out = []
    for oracle_cls in (SerialOracle, SimulationOracle):
        oracle = oracle_cls(locked.original)
        out.append((sequential_sat_attack(
            locked.netlist, locked.config.kappa, oracle,
            known_depth=locked.config.kappa_s, dip_batch=dip_batch,
            portfolio=portfolio, attack_jobs=attack_jobs), oracle))
    return out


class TestBatchedSerialDifferential:
    @pytest.mark.parametrize("kappa_s,dip_batch", [
        (1, 1), (1, 4), (2, 2), (2, 8), (3, 4),
    ])
    def test_identical_attack_across_kappa_and_batch(self, kappa_s,
                                                     dip_batch):
        (serial, serial_oracle), (batched, batched_oracle) = \
            _attack_pair(kappa_s, dip_batch)
        assert batched.success and serial.success
        assert batched.key == serial.key
        assert batched.n_dips == serial.n_dips
        assert batched.dips_per_depth == serial.dips_per_depth
        assert batched.depth == serial.depth
        # Same patterns through the oracle; fewer tester sessions
        # whenever a round actually had more than one DIP to ask about.
        assert batched_oracle.pattern_count == serial_oracle.pattern_count
        assert batched_oracle.query_count <= serial_oracle.query_count
        if dip_batch > 1 and batched.n_dips > 1:
            assert batched_oracle.query_count < serial_oracle.query_count

    @pytest.mark.portfolio
    def test_identical_under_portfolio_racing(self):
        (serial, _), (batched, _) = _attack_pair(
            2, 4, portfolio="cdcl,cdcl-agile", attack_jobs=2)
        assert batched.key == serial.key
        assert batched.n_dips == serial.n_dips

    def test_identical_under_pure_python_fallback(self, monkeypatch):
        numpy_pair = _attack_pair(2, 4)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        fallback_pair = _attack_pair(2, 4)
        for (with_numpy, _), (fallback, _) in zip(numpy_pair,
                                                  fallback_pair):
            assert fallback.key == with_numpy.key
            assert fallback.n_dips == with_numpy.n_dips
            assert fallback.dips_per_depth == with_numpy.dips_per_depth
            assert fallback.oracle_queries == with_numpy.oracle_queries
            assert fallback.oracle_calls == with_numpy.oracle_calls

    def test_dip_batch_one_accounting_matches_serial_loop(self):
        # oracle_batch_fn is bypassed for single-DIP rounds, so the
        # historical one-call-per-DIP accounting survives verbatim.
        (serial, serial_oracle), (batched, batched_oracle) = \
            _attack_pair(2, 1)
        assert batched.key == serial.key
        assert batched_oracle.query_count == serial_oracle.query_count \
            or batched_oracle.query_count < serial_oracle.query_count
        assert batched_oracle.pattern_count == serial_oracle.pattern_count


# ----------------------------------------------------------------------
# Pinning equivalence: the hoisted path must feed the solver the exact
# clause stream the legacy path did.
# ----------------------------------------------------------------------
class SpySolver:
    """Wraps a real backend and logs every clause it is fed."""

    def __init__(self):
        self._inner = make_backend("cdcl")
        self.clause_log = []

    def add_clause(self, lits):
        self.clause_log.append(tuple(lits))
        return self._inner.add_clause(lits)

    @property
    def num_vars(self):
        return self._inner.num_vars

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _attack_view(kappa_s=2, seed=3):
    locked = locked_factory(kappa_s=kappa_s, seed=seed)
    view, key_inputs, _ = unrolled_attack_view(
        locked.netlist, locked.config.kappa, locked.config.kappa_s)
    view = _with_folded_constants(view)
    return locked, view, key_inputs


def _random_pins(engine, locked, n_pins, seed=11):
    rng = make_rng(("pin-equiv", seed))
    oracle = SimulationOracle(locked.original)
    width = len(locked.original.inputs)
    depth = locked.config.kappa_s
    pins = []
    for _ in range(n_pins):
        vectors = random_vectors(rng, width, depth)
        trace = oracle.query(vectors)
        flat_dip = tuple(bit for cycle in vectors for bit in cycle)
        flat_response = tuple(bit for cycle in trace for bit in cycle)
        pins.append((flat_dip, flat_response))
    return pins


def _reference_pin(engine, dip, response):
    """Pin one I/O pair the direct way: a fresh ``simplified()`` of the
    circuit on the DIP, then two independent ``encode()`` copies (key
    copies "a" and "b"), each followed by its response units."""
    engine.n_pinned += 1
    index = engine.n_pinned
    assignments = {net: (1 if bit else 0)
                   for net, bit in zip(engine.data_inputs, dip)}
    specialized = simplified(engine.locked, constant_inputs=assignments,
                             name=f"io_spec{index}")
    for tag in ("a", "b"):
        mapping = _constraint_copy_map(specialized, engine.key_set, tag,
                                       index)
        copy = specialized.renamed(mapping, name=f"io_{tag}{index}")
        cnf = Cnf(engine.solver.num_vars)
        circuit = encode(copy, cnf=cnf, var_of=engine.var_of)
        engine.solver.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            engine.solver.add_clause(clause)
        for net, bit in zip(copy.outputs, response):
            engine.solver.add_clause([circuit.lit(net, bool(bit))])


class TestPinningEquivalence:
    def test_legacy_and_hoisted_clause_streams_identical(self):
        locked, view, key_inputs = _attack_view()
        streams, var_counts, feasible = {}, {}, {}
        for mode in ("reference", "hoisted"):
            spy = SpySolver()
            with DipEngine(view, key_inputs, solver=spy) as engine:
                pins = _random_pins(engine, locked, n_pins=6)
                for dip, response in pins:
                    if mode == "reference":
                        _reference_pin(engine, dip, response)
                    else:
                        engine.pin_response(dip, response)
                streams[mode] = list(spy.clause_log)
                var_counts[mode] = spy.num_vars
                feasible[mode] = engine.feasible_keys()
        assert streams["hoisted"] == streams["reference"]
        assert var_counts["hoisted"] == var_counts["reference"]
        assert feasible["hoisted"] == feasible["reference"]

    def test_pin_batch_equals_one_by_one_pinning(self):
        locked, view, key_inputs = _attack_view()
        streams, feasible = {}, {}
        for mode in ("one-by-one", "batched"):
            spy = SpySolver()
            with DipEngine(view, key_inputs, solver=spy) as engine:
                pins = _random_pins(engine, locked, n_pins=5)
                if mode == "batched":
                    engine.pin_batch(pins)
                else:
                    for dip, response in pins:
                        engine.pin_response(dip, response)
                streams[mode] = list(spy.clause_log)
                feasible[mode] = engine.feasible_keys()
        assert streams["batched"] == streams["one-by-one"]
        assert feasible["batched"] == feasible["one-by-one"]

    def test_hoisted_encode_does_not_regress(self, monkeypatch):
        """The work guard of the hoisted path: over N pins, one at a
        time or batched, an engine builds ONE :class:`InputSpecializer`
        (a per-pin re-simplify builds one per pin) and calls ``encode``
        N times (copy "b" is mirrored, not re-encoded)."""
        locked, view, key_inputs = _attack_view(kappa_s=3)
        counts = {"specializers": 0, "encodes": 0}
        real_init = InputSpecializer.__init__

        def counting_init(self, *args, **kwargs):
            counts["specializers"] += 1
            real_init(self, *args, **kwargs)

        def counting_encode(*args, **kwargs):
            counts["encodes"] += 1
            return encode(*args, **kwargs)

        n_pins = 12
        with DipEngine(view, key_inputs) as engine:
            pins = _random_pins(engine, locked, n_pins=n_pins)
            monkeypatch.setattr(InputSpecializer, "__init__", counting_init)
            monkeypatch.setattr(comb_sat, "encode", counting_encode)
            for dip, response in pins[:n_pins // 2]:
                engine.pin_response(dip, response)
            engine.pin_batch(pins[n_pins // 2:])
            assert engine.n_pinned == n_pins
        assert counts == {"specializers": 1, "encodes": n_pins}


def test_serial_oracle_loop_is_gone():
    locked = _locked_tiny()
    with pytest.raises(TypeError, match="oracle_batch"):
        sequential_sat_attack(
            locked.netlist, locked.config.kappa,
            SimulationOracle(locked.original), known_depth=1,
            oracle_batch=False)

"""Property tests for the solver-backend layer: every registered CDCL
configuration cross-checked against DPLL under random assumption stacks,
and racing portfolios shown to be deterministic in *result* (sat/unsat +
model validity) regardless of which worker wins."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import Cnf
from repro.errors import SolverError
from repro.sat import (
    BUILTIN_CONFIGS,
    CdclConfig,
    DpllBackend,
    PortfolioSolver,
    Solver,
    SolverBackend,
    backend_names,
    dpll_solve,
    make_attack_solver,
    make_backend,
    parse_portfolio,
    register_backend,
)

pytestmark = pytest.mark.smoke

CDCL_NAMES = tuple(n for n in backend_names() if n.startswith("cdcl"))


def random_3cnf(rng, num_vars, num_clauses):
    """Random 3-CNF (the classic hard-instance distribution)."""
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        clause = []
        for _ in range(3):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        try:
            cnf.add_clause(clause)
        except Exception:
            pass
    return cnf


def random_assumptions(rng, num_vars, count):
    stack = []
    for var in rng.sample(range(1, num_vars + 1), min(count, num_vars)):
        stack.append(var if rng.random() < 0.5 else -var)
    return stack


# ----------------------------------------------------------------------
# Registry and specs
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered(self):
        names = backend_names()
        assert "cdcl" in names and "dpll" in names
        assert len(CDCL_NAMES) >= 3  # reference + >= 2 tuned variants

    def test_reference_config_is_engine_default(self):
        """'cdcl' must stay at the historical Solver() defaults — the
        serial path's byte-identical promise hangs on it."""
        reference = next(c for c in BUILTIN_CONFIGS if c.name == "cdcl")
        assert reference == CdclConfig("cdcl",
                                       description=reference.description)
        fresh = Solver()
        built = reference.build()
        assert built._var_decay == fresh._var_decay
        assert built._restart_base == fresh._restart_base
        assert built._phase_default == fresh._phase_default

    def test_every_backend_implements_surface(self):
        for name in backend_names():
            assert SolverBackend.implemented_by(make_backend(name)), name

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError):
            make_backend("minisat-classic")

    def test_removed_legacy_backend_is_unknown(self):
        """The pre-arena core is gone; its old name fails loudly and the
        error lists what is registered instead."""
        with pytest.raises(SolverError, match=r"known: .*cdcl.*dpll"):
            make_backend("legacy-cdcl")
        with pytest.raises(SolverError, match=r"known: .*cdcl.*dpll"):
            parse_portfolio("cdcl,legacy-cdcl")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError):
            register_backend("cdcl", Solver)

    def test_alias_names_are_reserved(self):
        """A backend named like a portfolio alias would be unreachable
        (parse_portfolio resolves aliases first) — reject it loudly."""
        for alias in ("default", "race", "race2", "all"):
            with pytest.raises(SolverError):
                register_backend(alias, Solver)

    def test_custom_registration(self):
        name = "cdcl-test-custom"
        if name not in backend_names():
            register_backend(
                name, CdclConfig(name, restart_base=32).build)
        backend = make_backend(name)
        assert backend._restart_base == 32

    def test_configs_are_actually_different(self):
        built = {name: make_backend(name) for name in CDCL_NAMES}
        signatures = {
            (s._var_decay, s._cla_decay, s._restart_base, s._phase_default)
            for s in built.values()
        }
        assert len(signatures) == len(built)


class TestPortfolioSpec:
    def test_default_spellings_agree(self):
        assert parse_portfolio(None) == parse_portfolio("") \
            == parse_portfolio("default") == parse_portfolio("cdcl") \
            == ("cdcl",)

    def test_aliases_and_lists(self):
        assert parse_portfolio("race") == ("cdcl", "cdcl-agile",
                                           "cdcl-stable")
        assert parse_portfolio("cdcl, cdcl-agile") == ("cdcl", "cdcl-agile")
        assert parse_portfolio(["cdcl-flip", "dpll"]) == ("cdcl-flip",
                                                          "dpll")

    def test_bad_specs_rejected(self):
        for spec in ("cdcl,cdcl", "nope", "cdcl,,cdcl-agile", []):
            with pytest.raises(SolverError):
                parse_portfolio(spec)

    def test_make_attack_solver_selection(self):
        assert isinstance(make_attack_solver(), Solver)
        assert isinstance(make_attack_solver("default", attack_jobs=1),
                          Solver)
        racing = make_attack_solver("race2", attack_jobs=2)
        try:
            assert isinstance(racing, PortfolioSolver)
            assert racing.configs == ("cdcl", "cdcl-agile")
        finally:
            racing.close()
        with pytest.raises(SolverError):
            make_attack_solver(attack_jobs=0)
        with pytest.raises(SolverError):
            # Silent truncation of a named portfolio is rejected too.
            make_attack_solver("race", attack_jobs=2)

    def test_explicit_race_needs_raceable_portfolio(self):
        """attack_jobs >= 2 with a 1-config portfolio is a misconfig,
        not a silent serial run."""
        with pytest.raises(SolverError):
            make_attack_solver(attack_jobs=2)
        with pytest.raises(SolverError):
            make_attack_solver("default", attack_jobs=4)

    def test_multi_config_portfolio_needs_workers(self):
        """The mirror misconfig: a named portfolio truncated to one
        backend by the serial default is rejected, not silently run."""
        with pytest.raises(SolverError):
            make_attack_solver("race2", attack_jobs=1)

    def test_auto_jobs_clamp_to_cpu_budget(self):
        from repro.sat import cpu_budget

        solver = make_attack_solver("race2", attack_jobs=None)
        try:
            if cpu_budget() == 1:
                assert isinstance(solver, Solver)
            else:
                assert isinstance(solver, PortfolioSolver)
                assert len(solver.configs) <= cpu_budget()
        finally:
            if hasattr(solver, "close"):
                solver.close()

    def test_cpu_budget_divides_by_campaign_share(self, monkeypatch):
        import os

        from repro.sat import cpu_budget

        monkeypatch.delenv("REPRO_CPU_SHARE", raising=False)
        whole = cpu_budget()
        assert whole >= 1
        monkeypatch.setenv("REPRO_CPU_SHARE", str(2 * whole))
        assert cpu_budget() == 1  # fair share rounds down, floors at 1
        monkeypatch.setenv("REPRO_CPU_SHARE", "1")
        assert cpu_budget() == whole
        monkeypatch.setenv("REPRO_CPU_SHARE", "not-a-number")
        assert cpu_budget() == whole  # garbage is ignored, not fatal


# ----------------------------------------------------------------------
# Every CDCL configuration vs the DPLL oracle
# ----------------------------------------------------------------------
class TestConfigsAgainstDpll:
    @pytest.mark.parametrize("name", CDCL_NAMES)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_3cnf_with_assumption_stacks(self, name, seed):
        rng = random.Random(sum(ord(ch) for ch in name) * 1000 + seed)
        num_vars = rng.randint(4, 14)
        cnf = random_3cnf(rng, num_vars, rng.randint(4, 60))
        backend = make_backend(name)
        ok = backend.add_cnf(cnf)
        for trial in range(4):
            assumptions = random_assumptions(rng, num_vars,
                                             rng.randint(0, 4))
            got = ok and backend.solve(assumptions=assumptions)
            want = dpll_solve(cnf, assumptions=assumptions) is not None
            assert got == want, (name, seed, trial, assumptions)
            if got:
                model = backend.model()
                assert cnf.evaluate(model)
                for lit in assumptions:
                    assert model[abs(lit)] == (lit > 0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_tuned_configs_agree_with_reference(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 12)
        cnf = random_3cnf(rng, num_vars, rng.randint(3, 50))
        assumptions = random_assumptions(rng, num_vars, rng.randint(0, 3))
        answers = set()
        for name in CDCL_NAMES:
            backend = make_backend(name)
            answers.add(backend.add_cnf(cnf)
                        and backend.solve(assumptions=assumptions))
        assert len(answers) == 1  # complete solvers cannot disagree


class TestDpllBackend:
    def test_incremental_parity_with_solver(self):
        rng = random.Random(99)
        dpll = DpllBackend()
        cdcl = Solver()
        for _ in range(10):
            dpll.new_var()
            cdcl.new_var()
        for round_index in range(12):
            clause = [rng.randint(1, 10) * (1 if rng.random() < 0.5 else -1)
                      for _ in range(rng.randint(1, 3))]
            dpll.add_clause(clause)
            cdcl.add_clause(clause)
            assumptions = random_assumptions(rng, 10, 2)
            assert bool(dpll.solve(assumptions=assumptions)) == \
                bool(cdcl.solve(assumptions=assumptions)), round_index

    def test_model_requires_sat(self):
        backend = DpllBackend()
        var = backend.new_var()
        backend.add_clause([var])
        with pytest.raises(SolverError):
            backend.model_value(var)
        assert backend.solve()
        assert backend.model_value(var) is True

    def test_bad_literal_rejected(self):
        backend = DpllBackend()
        with pytest.raises(SolverError):
            backend.add_clause([1])

    def test_stats_shape(self):
        backend = DpllBackend()
        backend.new_var()
        backend.solve()
        stats = backend.stats()
        assert stats["backend"] == "dpll" and stats["solve_calls"] == 1

    def test_interruptible_like_every_backend(self):
        """A dpll portfolio worker must honor cooperative cancellation."""
        backend = DpllBackend()
        a, b = backend.new_var(), backend.new_var()
        backend.add_clause([a, b])
        backend.interrupt = lambda: True
        assert backend.solve() is None
        backend.interrupt = None
        assert backend.solve() is True


# ----------------------------------------------------------------------
# Cooperative interruption (what portfolio cancellation relies on)
# ----------------------------------------------------------------------
class TestInterrupt:
    def test_interrupted_solve_returns_none_and_recovers(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.interrupt = lambda: True
        assert solver.solve() is None
        assert solver.solve() is None  # still interrupted, still alive
        solver.interrupt = None
        assert solver.solve() is True

    def test_interrupted_solve_drops_the_stale_model(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve() is True and solver.model_value(a) is True
        solver.interrupt = lambda: True
        assert solver.solve() is None
        with pytest.raises(SolverError):
            solver.model_value(a)  # prior round's model must not leak

    def test_interrupt_preserves_clause_store(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([-a])
        solver.interrupt = lambda: True
        assert solver.solve() is None
        solver.interrupt = None
        assert solver.solve(assumptions=[a]) is False
        assert solver.solve() is True and solver.model_value(a) is False


# ----------------------------------------------------------------------
# Racing portfolios
# ----------------------------------------------------------------------
class TestPortfolioSolver:
    @pytest.mark.parametrize("configs", [
        ("cdcl", "cdcl-agile"),
        ("cdcl", "cdcl-agile", "cdcl-stable"),
        ("cdcl-flip", "dpll"),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_race_result_matches_dpll_oracle(self, configs, seed):
        rng = random.Random(seed * 31 + len(configs))
        num_vars = rng.randint(4, 12)
        cnf = random_3cnf(rng, num_vars, rng.randint(6, 48))
        with PortfolioSolver(configs) as portfolio:
            portfolio.add_cnf(cnf)
            for _ in range(3):
                assumptions = random_assumptions(rng, num_vars,
                                                 rng.randint(0, 3))
                got = portfolio.solve(assumptions=assumptions)
                want = dpll_solve(cnf, assumptions=assumptions) is not None
                assert got == want
                if got:
                    assert cnf.evaluate(portfolio.model())

    def test_result_deterministic_across_reruns(self):
        """Whoever wins the race, sat/unsat must not change between
        otherwise-identical runs."""
        rng = random.Random(7)
        cnf = random_3cnf(rng, 10, 38)
        answers = []
        for _ in range(3):
            with PortfolioSolver(("cdcl", "cdcl-agile",
                                  "cdcl-stable")) as portfolio:
                portfolio.add_cnf(cnf)
                answers.append(portfolio.solve())
        assert len(set(answers)) == 1

    def test_incremental_rounds_and_wins_accounting(self):
        with PortfolioSolver(("cdcl", "cdcl-agile")) as portfolio:
            variables = [portfolio.new_var() for _ in range(4)]
            portfolio.add_clause(variables)
            rounds = 0
            while portfolio.solve():
                model = [portfolio.model_value(v) for v in variables]
                portfolio.add_clause([
                    -v if value else v
                    for v, value in zip(variables, model)])
                rounds += 1
                assert rounds <= 16
            assert rounds == 15  # all assignments except all-False
            stats = portfolio.stats()
            assert stats["solve_calls"] == 16
            assert sum(stats["wins"].values()) == 16
            assert stats["winner"] in ("cdcl", "cdcl-agile")

    def test_root_unsat_short_circuits(self):
        with PortfolioSolver(("cdcl", "cdcl-agile")) as portfolio:
            var = portfolio.new_var()
            portfolio.add_clause([var])
            assert portfolio.add_clause([]) is False
            assert portfolio.solve() is False

    def test_contradictory_units_detected_at_add_time(self):
        """The backend contract's root-UNSAT signal covers directly
        clashing unit clauses, like the inline engine."""
        with PortfolioSolver(("cdcl", "cdcl-agile")) as portfolio:
            var = portfolio.new_var()
            assert portfolio.add_clause([var]) is True
            assert portfolio.add_clause([-var]) is False
            assert portfolio.solve() is False

    def test_inline_fallback_when_workers_unavailable(self, monkeypatch):
        portfolio = PortfolioSolver(("cdcl", "cdcl-agile"))
        monkeypatch.setattr(
            PortfolioSolver, "_ensure_workers",
            lambda self: (_ for _ in ()).throw(OSError("no forks today")))
        var = portfolio.new_var()
        portfolio.add_clause([var])
        assert portfolio.solve() is True
        assert portfolio.model_value(var) is True
        assert portfolio.stats()["inline_fallback"] is True
        portfolio.close()

    def test_bad_configs_rejected(self):
        with pytest.raises(SolverError):
            PortfolioSolver(())
        with pytest.raises(SolverError):
            PortfolioSolver(("cdcl", "cdcl"))
        with pytest.raises(SolverError):
            PortfolioSolver(("cdcl", "ghost"))

    def test_close_is_idempotent(self):
        portfolio = PortfolioSolver(("cdcl", "cdcl-agile"))
        var = portfolio.new_var()
        portfolio.add_clause([var])
        assert portfolio.solve() is True
        portfolio.close()
        portfolio.close()

    def test_interrupt_is_part_of_the_surface(self):
        """The portfolio honors the backend contract's interrupt hook:
        an already-set flag makes solve return None (unknown), and
        clearing it restores normal solving."""
        with PortfolioSolver(("cdcl", "cdcl-agile")) as portfolio:
            var = portfolio.new_var()
            portfolio.add_clause([var])
            assert portfolio.solve() is True
            portfolio.interrupt = lambda: True
            assert portfolio.solve() is None
            with pytest.raises(SolverError):
                portfolio.model_value(var)  # stale model dropped
            portfolio.interrupt = None
            assert portfolio.solve() is True
            assert portfolio.model_value(var) is True

    def test_stats_shape_is_uniform_across_backends(self):
        """Every backend's stats() carries the 'backend' key consumers
        key on (CombSatResult.solver_stats)."""
        for name in backend_names():
            assert make_backend(name).stats()["backend"] == name
        with PortfolioSolver(("cdcl", "cdcl-agile")) as portfolio:
            assert portfolio.stats()["backend"] == "portfolio"

    def test_solve_after_close_replays_the_clause_log(self):
        """Respawned workers start with empty stores; the parent must
        stream the whole log again, not just the delta."""
        portfolio = PortfolioSolver(("cdcl", "cdcl-agile"))
        try:
            a, b = portfolio.new_var(), portfolio.new_var()
            for clause in ([a, b], [a, -b], [-a, b], [-a, -b]):
                assert portfolio.add_clause(clause) is True
            assert portfolio.solve() is False
            portfolio.close()
            assert portfolio.solve() is False  # not an empty formula
        finally:
            portfolio.close()

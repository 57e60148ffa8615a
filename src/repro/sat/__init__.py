"""SAT solving: CDCL engine, DPLL reference, pluggable backends,
racing portfolios, model enumeration."""

from repro.sat.backend import (
    BUILTIN_CONFIGS,
    CdclConfig,
    DEFAULT_BACKEND,
    DpllBackend,
    SolverBackend,
    backend_names,
    cpu_budget,
    make_attack_solver,
    make_backend,
    parse_portfolio,
    register_backend,
)
from repro.sat.dpll import brute_force_models, dpll_solve
from repro.sat.models import count_models, enumerate_models
from repro.sat.native import (
    DimacsSubprocessBackend,
    NativeUnavailableBackend,
    PySatBackend,
    engine_probe,
    in_tree_engine_argv,
    make_native_backend,
)
from repro.sat.portfolio import PortfolioSolver
from repro.sat.solver import Solver

__all__ = [
    "BUILTIN_CONFIGS",
    "CdclConfig",
    "DEFAULT_BACKEND",
    "DimacsSubprocessBackend",
    "DpllBackend",
    "NativeUnavailableBackend",
    "PortfolioSolver",
    "PySatBackend",
    "Solver",
    "SolverBackend",
    "backend_names",
    "brute_force_models",
    "count_models",
    "cpu_budget",
    "dpll_solve",
    "engine_probe",
    "enumerate_models",
    "in_tree_engine_argv",
    "make_attack_solver",
    "make_backend",
    "make_native_backend",
    "parse_portfolio",
    "register_backend",
]

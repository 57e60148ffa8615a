"""Exception hierarchy for the TriLock reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class NetlistError(ReproError):
    """Structural problem in a netlist (duplicate driver, missing net, ...)."""


class CombinationalCycleError(NetlistError):
    """The combinational portion of a netlist contains a cycle."""

    def __init__(self, nets):
        self.nets = tuple(nets)
        preview = ", ".join(self.nets[:8])
        suffix = ", ..." if len(self.nets) > 8 else ""
        super().__init__(f"combinational cycle through nets: {preview}{suffix}")


class BenchFormatError(ReproError):
    """Malformed ISCAS ``.bench`` text."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """Invalid stimulus or circuit state during simulation."""


class CnfError(ReproError):
    """Problem while building or reading a CNF formula."""


class SolverError(ReproError):
    """SAT solver misuse (e.g. querying a model after UNSAT)."""


class UnrollError(ReproError):
    """Invalid unrolling request (non-positive depth, missing nets, ...)."""


class LockingError(ReproError):
    """Invalid TriLock configuration or locking request."""


class AttackError(ReproError):
    """An attack was invoked on an incompatible circuit or ran out of budget."""


class InconsistentOracleError(AttackError):
    """No key satisfies the pinned I/O constraints: the attacked circuit
    cannot reproduce the oracle under any key assignment.  ``n_pinned``
    is the number of I/O pairs pinned when that became certain."""

    def __init__(self, message, n_pinned=0):
        self.n_pinned = n_pinned
        super().__init__(message)


class ExtrapolationError(ReproError):
    """A Table I cell cannot be extrapolated (no measured runs to fit a
    time/DIP rate from) — raised instead of silently emitting NaN."""


class TechError(ReproError):
    """Technology-library lookup failure (unknown cell, bad load, ...)."""


class BenchmarkError(ReproError):
    """Benchmark-suite lookup or generation failure."""


class CampaignError(ReproError):
    """Invalid campaign request or a cell failure the caller did not allow."""


class CampaignWarning(UserWarning):
    """A campaign configuration is legal but (partly) ineffective — e.g.
    a ``cell_timeout`` on the inline backend, which cannot interrupt a
    cell running in its own process."""


class SpecError(ReproError):
    """Malformed scheme/attack spec string or registry lookup failure."""

"""Exception hierarchy for the keycap package.

Each class names the per-row `status` the CLI writes when it is raised; a
bad library argument raises `ValueError` instead.
"""


class KeycapError(Exception):
    """Base class for all keycap errors."""

    status = "error"


class QuadratureFailure(KeycapError):
    """An integral's error estimate exceeds its tolerance: an entropy of the
    trapezoid lattice rule, or a QUADPACK oracle integral of the tests."""

    status = "quadrature_failure"


class NoConvergence(KeycapError):
    """Mass-point escalation exhausted without satisfying the KKT certificate.

    trace holds the escalation's steps (`solver.EscalationStep`), one per
    law polished."""

    status = "no_convergence"

    def __init__(self, message: str, trace: tuple):
        super().__init__(message)
        self.trace = trace

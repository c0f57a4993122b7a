"""Exception hierarchy for the keycap package.

Each class names the per-row `status` the CLI writes when it is raised.
"""


class KeycapError(Exception):
    """Base class for all keycap errors."""

    status = "error"


class UnsupportedScheme(KeycapError):
    """Input scheme support exceeds the channel's amplitude limit."""

    status = "unsupported_scheme"


class DegenerateTruncation(KeycapError):
    """Truncated-Gaussian normalizer underflows; input is numerically a point mass."""

    status = "degenerate_truncation"


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


class InvalidBeta(KeycapError):
    """Free parameter of the closed-form lower bound must be positive."""

    status = "invalid_beta"

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
    """Adaptive quadrature did not reach the requested tolerance."""

    status = "quadrature_failure"


class NoConvergence(KeycapError):
    """Mass-point escalation exhausted without satisfying the KKT certificate."""

    status = "no_convergence"


class InvalidBeta(KeycapError):
    """Free parameter of the closed-form lower bound must be positive."""

    status = "invalid_beta"

"""Secret-key capacity of the amplitude-constrained Gaussian key-agreement
setting: discrete-input solver, suboptimal schemes, closed-form bounds, and
a sweep CLI."""

from .channel import (
    ChannelParams,
    secret_key_rate,
)
from .errors import (
    DegenerateTruncation,
    InvalidBeta,
    KeycapError,
    NoConvergence,
    QuadratureFailure,
    UnsupportedScheme,
)
from .inputs import (
    DiscreteDistribution,
    InputScheme,
    TruncatedGaussianScheme,
    UniformScheme,
    maxentropic_scheme,
)
from .numerics import (
    OutputDensity,
    RateResult,
    differential_entropy,
    density_discrete_conv,
    density_trunc_gauss_conv,
    density_uniform_conv,
    mutual_information,
)
from .bounds import (
    high_a_limit,
    lower_bound_1,
    lower_bound_2,
    lower_bound_3,
    maximize_lower_bound_2,
    upper_bound,
)
from .schemes import (
    best_maxentropic,
    optimize_truncated_gaussian,
    truncated_gaussian_rate,
    uniform_scheme_rate,
)
from .solver import (
    SolverConfig,
    SolverReport,
    plain_capacity,
    secret_key_capacity,
)

__version__ = "0.1.0"

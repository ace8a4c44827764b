"""Tail bounds for sums of independent geometric or exponential variables.

Closed-form and numerically optimized Chernoff-type bounds for the upper and
lower tails, a matching lower bound for the upper tail, exact oracles, and
seeded Monte Carlo estimation, all sharing immutable distribution specs.
The oracles' routes: partial fractions for geometric and exponential sums,
an iterated convolution of the geometric pmf, a scaling-and-squaring matrix
exponential for tied or clustered rates, and closed forms for thresholds
outside the support and for equal p (``iid_geom_tail``, a negative binomial).
"""

from .exact_oracle import (
    OracleMethod,
    TailEstimate,
    geom_lower_tail_exact,
    geom_pmf_convolution,
    geom_tail_exact,
    hypoexp_survival,
    iid_geom_tail,
)
from .exp_bounds import (
    exp_lower_tail_iii,
    exp_tail_lower_iv,
    exp_upper_i,
    exp_upper_ii,
)
from .geom_bounds import (
    lemma1_bound,
    lower_tail_tl1,
    optimized_chernoff,
    optimized_lemma1,
    upper_tail_cor1,
    upper_tail_cor2,
    upper_tail_lower_bound_tl,
    upper_tail_thm1,
    upper_tail_thm2,
)
from .methods import best_upper
from .model import (
    BoundResult,
    DomainError,
    EmptyParams,
    ExponentialSumSpec,
    GeometricSumSpec,
    LambdaOutOfRange,
    LogProb,
    Method,
    NegativeX,
    OutOfRange,
    TailBoundsError,
    TailQuery,
    log_pgf_geometric,
    make_exponential_spec,
    make_geometric_spec,
    make_tail_query,
    parse_params,
    read_params_file,
)
from .montecarlo import (
    McConfig,
    mc_tail,
    uniform_block,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "DomainError",
    "EmptyParams",
    "ExponentialSumSpec",
    "GeometricSumSpec",
    "LambdaOutOfRange",
    "LogProb",
    "McConfig",
    "Method",
    "NegativeX",
    "OracleMethod",
    "OutOfRange",
    "TailBoundsError",
    "TailEstimate",
    "TailQuery",
    "best_upper",
    "exp_lower_tail_iii",
    "exp_tail_lower_iv",
    "exp_upper_i",
    "exp_upper_ii",
    "geom_lower_tail_exact",
    "geom_pmf_convolution",
    "geom_tail_exact",
    "hypoexp_survival",
    "iid_geom_tail",
    "lemma1_bound",
    "log_pgf_geometric",
    "lower_tail_tl1",
    "make_exponential_spec",
    "make_geometric_spec",
    "make_tail_query",
    "mc_tail",
    "optimized_chernoff",
    "optimized_lemma1",
    "parse_params",
    "read_params_file",
    "uniform_block",
    "upper_tail_cor1",
    "upper_tail_cor2",
    "upper_tail_lower_bound_tl",
    "upper_tail_thm1",
    "upper_tail_thm2",
]

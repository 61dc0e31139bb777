"""sumsetlab: exact sumset calculus, tripling estimation, and law checking
on finitely generated commutative groups."""

from .groups import GroupContext, PointSet, sumset, iterated_sumset, dimension
from .functional import WeightedFunction, max_convolve, gamma_ratio
from .search import SearchConfig, EstimateReport, beta_estimate, alpha_estimate, gamma_estimate

__version__ = "0.1.0"

__all__ = [
    "GroupContext",
    "PointSet",
    "sumset",
    "iterated_sumset",
    "dimension",
    "WeightedFunction",
    "max_convolve",
    "gamma_ratio",
    "SearchConfig",
    "EstimateReport",
    "beta_estimate",
    "alpha_estimate",
    "gamma_estimate",
    "__version__",
]

"""Distance distribution between a random-waypoint mobile node confined to
a regular hexagon and an arbitrary fixed reference node.

Analytic per-axis marginals and the distance CDF live alongside a seeded
RWP simulator so each side can validate the other.
"""

__version__ = "0.3.0"

from types import ModuleType as _ModuleType

from .hexgeom import HexRegion, Point2, RefNode, SQRT3
from .piecewise import DomainError, PiecewisePolynomial
from .marginals import (
    AxisMarginal,
    axis_marginal,
    stationary_cdf_x,
    stationary_cdf_y,
    stationary_pdf_x,
    stationary_pdf_y,
)
from .distance import (
    CdfCurve,
    distance_cdf,
    distance_cdf_curve,
    product_mass_hexagon,
)
from .sim import (
    SimConfig,
    Trace,
    distances_to,
    ecdf,
    ks_statistic,
    simulate,
    uniform_node_distances,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]

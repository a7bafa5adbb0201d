"""Distance distribution between a random-waypoint mobile node confined to
a regular hexagon and an arbitrary fixed reference node.

Analytic per-axis marginals and the distance CDF live alongside a seeded
RWP simulator so each side can validate the other.

The package namespace is lazy (PEP 562): ``import rwphex`` loads no
submodule, and the first read of a public name, or of ``rwphex.<submodule>``,
imports the one module that defines it.  So a CLI process loads only what
its command runs.  The library modules import each other directly, so no
library call ever triggers an import.
"""

from importlib import import_module as _import_module

__version__ = "0.4.0"

# each public name and the submodule that defines it
_HOMES = {
    "HexRegion": "hexgeom", "Point2": "hexgeom", "RefNode": "hexgeom", "SQRT3": "hexgeom",
    "DomainError": "piecewise", "PiecewisePolynomial": "piecewise",
    "AxisMarginal": "marginals", "axis_marginal": "marginals",
    "stationary_cdf_x": "marginals", "stationary_cdf_y": "marginals",
    "stationary_pdf_x": "marginals", "stationary_pdf_y": "marginals",
    "CdfCurve": "distance", "distance_cdf": "distance", "distance_cdf_curve": "distance",
    "product_mass_hexagon": "distance",
    "SimConfig": "sim", "Trace": "sim", "distances_to": "sim", "ecdf": "sim",
    "ks_statistic": "sim", "simulate": "sim", "uniform_node_distances": "sim",
}
_SUBMODULES = frozenset({"cli", "distance", "hexgeom", "marginals", "piecewise", "sim"})

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        value = getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
        globals()[name] = value     # later reads skip this hook
        return value
    if name in _SUBMODULES:
        # the import binds the submodule on this package
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

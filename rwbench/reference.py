"""Frozen accuracy reference shared by the benchmark and its generator.

Every value is at side 1.  The distance CDF is scale-invariant, so a query
at side ``s`` with the reference node and distance scaled by ``s`` has the
same reference value; marginal CDFs are scale-invariant too and marginal
PDFs scale by ``1/s``.
"""

import json
import math
import os

SQRT3 = math.sqrt(3.0)

# The paper's four reference nodes, at side 1.  (0, 0) is the bounding-box
# corner just outside the cell, (0.5, 0) is a vertex and (3, 3) lies well
# outside; only the centre and the vertex have d_min = 0.
PAPER_REFS = {
    "corner": (0.0, 0.0),
    "centre": (1.0, SQRT3 / 2),
    "vertex": (0.5, 0.0),
    "exterior": (3.0, 3.0),
}
CURVE_POINTS = 200

# The stated error of the library's default quadrature (QuadratureSpec()
# abs_tol at the commit that defined this benchmark).  Analytic CDF values
# further than this from the reference count as failed operations.
CDF_TOL = 1e-6
# Marginal evaluators are closed-form polynomials: only rounding separates
# them from the exact rational values.
MARGINAL_RTOL = 1e-9

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "reference.json")


def load(path=PATH):
    with open(path) as fh:
        return json.load(fh)

"""Exact symbolic and certified-numeric analysis of planar polynomial
vector fields with the invariant square (4x^2-1)(4y^2-1) = 0.

Modules:
- scalars, poly, linalg, roots: exact arithmetic foundations
- polytext: the polynomial text format (printer and parser)
- resultants: elimination, multivariate gcd, factor extraction
- lyapunov: focus quantities and normalization
- fields, centers: field families and center certificates
- bifurcation: first-order limit-cycle counts
- dynamics: singularities and four-point configurations
- integrate: trajectories and return maps
- cli: command-line front end
"""

__version__ = "0.1.0"

from .fields import VectorField, build_from_game
from .poly import MultiPoly, format_poly, parse_poly

__all__ = [
    "MultiPoly",
    "VectorField",
    "build_from_game",
    "format_poly",
    "parse_poly",
    "__version__",
]

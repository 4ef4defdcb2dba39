"""Decay of an excited atom watched by an ionizable photodetector.

Three mutually cross-checking routes to the same survival probability:
time-domain integration of the discretized amplitude equations
(``dynamics``), Laplace-domain resolvent evaluation plus numerical
inversion (``resolvent``), and closed-form pole-approximation rates
(``analytic``).
"""

from . import analytic, discretize, dynamics, geometry, model, resolvent

__all__ = [
    "analytic",
    "discretize",
    "dynamics",
    "geometry",
    "model",
    "resolvent",
]

__version__ = "0.1.0"

"""Numerical laboratory for a planar SIR map with saturated incidence.

The map advances susceptible and infected fractions one generation at a
time: logistic growth of the susceptibles, a saturating transmission
term, and geometric removal of the infecteds.  The package computes its
fixed points, stability thresholds, bifurcation-boundary labels and
normal-form coefficients, locates cycle births on the invariant axis,
estimates Lyapunov exponents, and probes candidate positively invariant
regions.

The public names are those each module lists in its ``__all__``.
"""
from . import core, dynamics, equilibria, normal_forms, positivity
from .core import *  # noqa: F403
from .equilibria import *  # noqa: F403
from .normal_forms import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .positivity import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *equilibria.__all__,
    *normal_forms.__all__,
    *dynamics.__all__,
    *positivity.__all__,
    "__version__",
]

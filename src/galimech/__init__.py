"""Frame-independent Newtonian particle mechanics on a fixed space-time chart.

The package splits into a kinematic base (:mod:`galimech.chart`,
:mod:`galimech.potentials`), two formulations of the dynamics
(:mod:`galimech.frame_dynamics` per observer,
:mod:`galimech.homogeneous` parameterization-free), the frame-free
quotient objects (:mod:`galimech.affine_values`), and the verification
and CLI layers (:mod:`galimech.verify`, :mod:`galimech.cli`).
"""

from .chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    ORIGIN,
    REST_FRAME,
    SpatialCovector,
    SpatialVector,
    TIME_FORM,
)
from .potentials import HarmonicPotential, Potential, UniformPotential, ZeroPotential
from .frame_dynamics import IntegrationDiverged, Sample, integrate
from .homogeneous import legendre, mass_shell_residual
from .affine_values import (
    AffineMomentum,
    LagrangianValue,
    affine_lagrangian,
    affine_momentum,
    frame_free_legendre,
    lagrangian_value,
)
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "Event",
    "Frame",
    "FourCovector",
    "FourVector",
    "ORIGIN",
    "REST_FRAME",
    "SpatialCovector",
    "SpatialVector",
    "TIME_FORM",
    "Potential",
    "ZeroPotential",
    "UniformPotential",
    "HarmonicPotential",
    "Sample",
    "IntegrationDiverged",
    "integrate",
    "legendre",
    "mass_shell_residual",
    "LagrangianValue",
    "AffineMomentum",
    "lagrangian_value",
    "affine_lagrangian",
    "affine_momentum",
    "frame_free_legendre",
    "run_checks",
    "__version__",
]

"""Hypothesis strategies shared by the test modules.

Desk-scale draws: chart slots in [-2, 2], masses in [0.5, 3], and
future-directed four-velocities with time rate in [0.1, 3], away from
the zero-rate boundary.  Variants that widen these ranges stay in the
module that needs them.
"""

from hypothesis import strategies as st

from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    SpatialCovector,
)
from galimech.potentials import HarmonicPotential, UniformPotential, ZeroPotential

scalars = st.floats(-2, 2)
masses = st.floats(0.5, 3)
frames = st.builds(Frame, st.just(1.0), scalars, scalars, scalars)
events = st.builds(Event, scalars, scalars, scalars, scalars)
four_vectors = st.builds(FourVector, scalars, scalars, scalars, scalars)
four_velocities = st.builds(FourVector, st.floats(0.1, 3),
                            scalars, scalars, scalars)
four_covectors = st.builds(FourCovector, scalars, scalars, scalars, scalars)
spatial_covectors = st.builds(SpatialCovector, scalars, scalars, scalars)
potentials = st.one_of(
    st.just(ZeroPotential()),
    st.builds(UniformPotential, four_covectors),
    st.builds(HarmonicPotential, st.floats(0.2, 2), events),
)

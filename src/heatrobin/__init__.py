"""Semi-analytic solver for the 1-D heat equation with a Robin condition at
the right end, evaluated as an exact polynomial part plus an exponentially
damped eigenfunction series, together with independent finite-difference and
quadrature verification instruments."""

from . import extension, polyalg, solver, spectral, verify
from .extension import *  # noqa: F403
from .polyalg import *  # noqa: F403
from .solver import *  # noqa: F403
from .spectral import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *polyalg.__all__,
    *extension.__all__,
    *spectral.__all__,
    *solver.__all__,
    *verify.__all__,
]

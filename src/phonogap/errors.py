"""Exception types shared across the package.

Configuration problems (bad parameters, malformed input files) and numerical
failures (non-convergence, singular systems) are kept distinct so that callers
-- in particular the command line interface -- can map them to different exit
codes.
"""


class PhonogapError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(PhonogapError, ValueError):
    """A geometric or material parameter violates its validity constraints."""


class ConfigError(PhonogapError, ValueError):
    """A run configuration is malformed or internally inconsistent."""


class MeshingError(PhonogapError, RuntimeError):
    """Mesh generation produced an invalid (degenerate or mismatched) mesh."""


class NumericalError(PhonogapError, RuntimeError):
    """An eigensolve or quadrature failed to converge to tolerance."""


class CoverageError(PhonogapError, RuntimeError):
    """Computed bands do not cover the requested frequency window."""


class SamplingError(PhonogapError, RuntimeError):
    """Sampling is too coarse for the requested post-processing step."""


class ClassificationError(PhonogapError, RuntimeError):
    """The mesh lacks the y/z mirror symmetry that band parities rest on."""


class ExtractionError(PhonogapError, RuntimeError):
    """A signal-processing step (e.g. pulse-edge detection) failed."""


class FitError(PhonogapError, RuntimeError):
    """A fit could not be performed on the given data."""


class NonConvergenceError(FitError):
    """An iterative fit ran out of iterations.

    The best parameter estimate seen so far is attached as ``best`` so that
    callers can inspect how far the fit got.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best

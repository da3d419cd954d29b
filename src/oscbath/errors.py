"""Exception types raised by the library.

Every failure mode that a caller can act on gets its own class; generic
numpy errors are wrapped at the boundary where they occur.
"""


class OscBathError(Exception):
    """Base class for all library errors."""


class NonPositiveParameter(OscBathError):
    """A model parameter that must be strictly positive is not."""


class PositivityViolated(OscBathError):
    """The stability margin of the composite Hamiltonian is not positive.

    Carries the computed margin in ``margin``.
    """

    def __init__(self, message, margin):
        super().__init__(message)
        self.margin = margin


class NegativeFrequency(OscBathError):
    """A real frequency argument was negative."""


class BranchCutHit(OscBathError):
    """Evaluation requested on the branch cut of a fractional power."""


class OnCut(OscBathError):
    """Resolvent evaluation requested on the continuum cut [0, inf)."""


class QuadratureFailure(OscBathError):
    """An adaptive integral did not meet its error target."""


class NoConvergence(OscBathError):
    """Root search exhausted its iteration budget."""


class PoleInUpperHalfPlane(OscBathError):
    """The located root is not a decaying resonance (Im z0 >= 0)."""


class PoleOnRay(OscBathError):
    """The resonance pole sits too close to the deformation ray."""


class GridTooCoarse(OscBathError):
    """The time grid is too coarse for the requested finite differencing or fit."""


class WindowBeforeCrossover(OscBathError):
    """The fit window is still inside the exponential-decay phase."""


class CrossoverNotBracketed(OscBathError):
    """No phase crossover exists within the supplied series."""


class InvalidDiscretization(OscBathError):
    """Bath discretization parameters are unusable."""


class EigensolveFailure(OscBathError):
    """The symmetric eigendecomposition did not converge."""


class AmplitudeOutOfRange(OscBathError):
    """A survival amplitude exceeds the unit bound beyond tolerance."""


class ConfigError(OscBathError):
    """A run configuration file could not be parsed or validated."""


class DualMethodMismatch(OscBathError):
    """The two amplitude routes disagree beyond the configured tolerance."""


class OrderingViolated(OscBathError):
    """The decay-rate ordering across spectral exponents failed."""


class DensityInvariantViolated(OscBathError):
    """A reduced density matrix broke trace or positivity at some time."""

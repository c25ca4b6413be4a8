"""The package's exception and warning classes.

This module imports nothing, so the CLI can catch the solver's errors
without loading numpy; roots, secular and the package re-export each class
as the same object.
"""


class SecularEvaluationError(RuntimeError):
    """A secular callable raised while scanning; carries the offending t."""

    def __init__(self, t: float, cause: BaseException):
        super().__init__(f"secular evaluation failed at t={t!r}: {cause}")
        self.t = t


class SecularRealityError(RuntimeError):
    """The secular value failed its reality assertion.

    Signals either a PT-asymmetric input potential or a numerical fault;
    carries the offending (Z, t) and the imaginary magnitude seen. For an
    array call, t is the first failing point.
    """

    def __init__(self, what: str, Z: float, t: float, im_mag: float):
        super().__init__(
            f"{what} not real at Z={Z!r}, t={t!r}: |Im| = {im_mag:.3e}"
        )
        self.Z = Z
        self.t = t
        self.im_mag = im_mag


class SecularOverflowError(OverflowError):
    """The secular value left the double range (sin/cos of kappa overflow
    once |Im(kappa * width)| passes about 710); carries the offending (Z, t).
    For an array call, t is the first failing point.
    """

    def __init__(self, what: str, Z: float, t: float):
        super().__init__(f"{what} overflowed at Z={Z!r}, t={t!r}")
        self.Z = Z
        self.t = t


class LevelShortfallWarning(UserWarning):
    """Fewer real levels found than requested (possible PT breaking)."""

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


class SecularOverflowError(OverflowError):
    """The secular value left the double range, as its energy E = s^2 - t^2
    does once t, or s = Z/(2t), passes about 1.3e154; carries the offending
    (Z, t). For an array call, t is the first failing point.
    """

    def __init__(self, what: str, Z: float, t: float):
        super().__init__(f"{what} overflowed at Z={Z!r}, t={t!r}")
        self.Z = Z
        self.t = t


class LevelShortfallWarning(UserWarning):
    """Fewer real levels found than requested (possible PT breaking)."""

"""Spectra of PT-symmetric imaginary square-well potentials on a circle.

The operator is -psi'' + V psi on a circle of circumference 4, with V
piecewise constant and purely imaginary, alternating between +iZ and -iZ
over 4M equal segments. Although V is complex, PT symmetry (V(-x) equal to
conj(V(x))) allows large parts of the spectrum to stay real; this package
locates those real eigenvalues through secular functions of the variable t,
where E = s^2 - t^2 and 2 s t = Z.
"""

import importlib as _importlib

from .errors import (
    LevelShortfallWarning,
    SecularEvaluationError,
    SecularOverflowError,
)
from .potential import SquareWell, build_square_well

__version__ = "0.1.0"

# Importing the package loads errors and potential alone, so building
# potentials pays for nothing else. Every other module loads on the first
# use of one of its names here, or of the submodule itself: roots and
# secular bring numpy, serialize brings csv and json.
_LAZY = {
    name: module
    for module, names in {
        "roots": (
            "roots", "RootRecord", "ScanConfig", "default_scan_config",
            "find_roots", "level_count", "scan_secular",
        ),
        "secular": (
            "secular", "FREE_LIMIT_Z", "LogScaledValue", "SpectralPoint",
            "secular_explicit", "secular_monodromy",
        ),
        "serialize": (
            "serialize", "SpectrumDocument", "analysis_to_csv", "fmt_float",
            "parse_spectrum_csv", "parse_spectrum_json", "potential_to_csv",
            "potential_to_json", "scan_to_csv", "spectrum_to_csv",
            "spectrum_to_json",
        ),
        "spectrum": (
            "spectrum", "EnergyLevel", "SpectrumReport", "analyze_series",
            "energies_from_roots", "first_differences",
        ),
    }.items()
    for name in names
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = _importlib.import_module(f".{module}", __name__)
    value = mod if name == module else getattr(mod, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


# `from ptring import *` still brings every public name, and so loads numpy
__all__ = [name for name in __dir__() if not name.startswith("_")]

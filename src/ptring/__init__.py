"""Spectra of PT-symmetric imaginary square-well potentials on a circle.

The operator is -psi'' + V psi on a circle of circumference 4, with V
piecewise constant and purely imaginary, alternating between +iZ and -iZ
over 4M equal segments. Although V is complex, PT symmetry (V(-x) equal to
conj(V(x))) allows large parts of the spectrum to stay real; this package
locates those real eigenvalues through secular functions of the variable t,
where E = s^2 - t^2 and 2 s t = Z.
"""

from .potential import (
    CirclePotential,
    build_square_well,
    rotate_segments,
)
from .roots import (
    LevelShortfallWarning,
    RootRecord,
    ScanConfig,
    ScanSample,
    SecularEvaluationError,
    default_scan_config,
    find_roots,
    level_count,
    scan_secular,
)
from .secular import (
    LogScaledValue,
    SecularOverflowError,
    SecularRealityError,
    SpectralPoint,
    TransferMatrix2,
    monodromy,
    secular_explicit,
    secular_monodromy,
    segment_propagator,
)
from .serialize import (
    SpectrumDocument,
    analysis_to_csv,
    fmt_float,
    parse_spectrum_csv,
    parse_spectrum_json,
    potential_to_csv,
    potential_to_json,
    scan_to_csv,
    spectrum_to_csv,
    spectrum_to_json,
)
from .spectrum import (
    EnergyLevel,
    SpectrumReport,
    analyze_series,
    energies_from_roots,
    first_differences,
    quasi_degenerate_pairs,
)

__version__ = "0.1.0"

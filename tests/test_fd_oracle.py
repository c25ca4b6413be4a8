"""The finite-difference oracle against find_roots on the benchmark's
monodromy solves, and on the complex pairs the Z = 1, M = 1 shortfall
warning stands for.

Each oracle value is the eigenvalue of the discretized operator nearest
the level, extrapolated from grids of 4096 and 8192 points (fd_extrapolated),
both multiples of 4M for every M here. Without the extrapolation the
4096-point grid alone misses the lowest level at M = 8 and 32, whose
energies are 1.3e-3 and 8.1e-5, by 1.2e-4 and 2.0e-3 relative; with it
every level here agrees to within 5e-6 relative.
"""

import warnings

import numpy as np
import pytest
from fd_oracle import fd_extrapolated

from ptring import (
    LevelShortfallWarning,
    build_square_well,
    energies_from_roots,
    find_roots,
    secular_monodromy,
)

# relative tolerance of the finite-difference check in test_acceptance
FD_RTOL = 1e-4
# the complex pairs at Z = 1, M = 1 below E = 30, roots of tau(E) = -2 by a
# 30-digit Newton on one cell: find_roots finds 13 real levels of 18 there
COMPLEX_PAIRS_Z1 = [
    2.48924072837 + 0.637681973019j,
    22.1969022661 + 0.213467158717j,
]


def _levels(Z, M, n_levels=18):
    pot = build_square_well(M, Z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(lambda t: secular_monodromy(pot, Z, t), Z, n_levels)
    return [lvl.E for lvl in energies_from_roots(recs, Z)[:n_levels]]


@pytest.mark.parametrize(
    "Z,M",
    [(1.0, 8), (1.0, 32)] + [(Z, 1) for Z in (0.05, 0.7, 4.0)],
)
def test_levels_against_finite_differences(Z, M):
    """The lowest, the middle and the top level the solve reports (18 of
    23 and 25 at M = 8 and 32, all 13 at M = 1) are real eigenvalues of the
    discretized operator within FD_RTOL relative."""
    levels = _levels(Z, M)
    assert len(levels) == (18 if M > 1 else 13)
    for E in (levels[0], levels[len(levels) // 2], levels[-1]):
        fd = fd_extrapolated(Z, M, E)
        assert abs(fd.imag) < 1e-8 * E, (E, fd)
        assert fd.real == pytest.approx(E, rel=FD_RTOL, abs=0), (E, fd)


@pytest.mark.parametrize("E", COMPLEX_PAIRS_Z1 + [np.conj(E) for E in COMPLEX_PAIRS_Z1])
def test_complex_pairs_against_finite_differences(E):
    """Each complex level behind the Z = 1, M = 1 shortfall warning, and its
    conjugate, is an eigenvalue of the discretized operator within FD_RTOL
    relative; find_roots has no real level near it."""
    fd = fd_extrapolated(1.0, 1, E)
    assert abs(fd - E) <= FD_RTOL * abs(E), (E, fd)
    assert all(abs(lvl - E.real) > 0.5 for lvl in _levels(1.0, 1))

"""Finite-difference oracle: eigenvalues of -psi'' + V psi = E psi on the
circle of circumference 4, with no secular function involved.

The square well of 4M segments (+iZ first, from x = -2) is discretized on a
periodic cell-centred grid of n_grid points, whose cell faces fall on the
segment boundaries, by the second-order three-point Laplacian. scipy is a
test dependency only.
"""

import numpy as np
import pytest


def fd_operator(Z: float, M: int, n_grid: int = 4000):
    """The n_grid x n_grid sparse (CSC) matrix of the discretized operator;
    n_grid must be a multiple of 4M, so that cell faces fall on the segment
    boundaries."""
    from scipy import sparse

    if n_grid % (4 * M):
        raise ValueError(f"n_grid must be a multiple of 4M = {4 * M}, got {n_grid}")
    h = 4.0 / n_grid
    x = -2.0 + (np.arange(n_grid) + 0.5) * h
    v = np.where(np.floor((x + 2.0) * M).astype(int) % 2 == 0, 1j * Z, -1j * Z)
    off = np.full(n_grid, -1.0 / h**2)
    return sparse.diags(
        [off[:1], off[:-1], 2.0 / h**2 + v, off[:-1], off[:1]],
        [-(n_grid - 1), -1, 0, 1, n_grid - 1],
        format="csc",
        dtype=complex,
    )


def fd_eigenvalues(Z: float, M: int, sigma: float, k: int = 2, n_grid: int = 4000):
    """The k eigenvalues of fd_operator nearest sigma (shift-invert), sorted
    by real part, then imaginary part."""
    sla = pytest.importorskip("scipy.sparse.linalg")
    op = fd_operator(Z, M, n_grid)
    return np.sort_complex(sla.eigs(op, k=k, sigma=sigma, return_eigenvectors=False))


def fd_extrapolated(Z: float, M: int, sigma: complex, n_grid: int = 4096) -> complex:
    """The eigenvalue nearest sigma, Richardson-extrapolated from the grids
    of n_grid and 2 n_grid points: (4 E(h/2) - E(h)) / 3, which cancels the
    O(h^2) error of the three-point Laplacian."""
    coarse, fine = (
        fd_eigenvalues(Z, M, sigma, k=1, n_grid=n)[0] for n in (n_grid, 2 * n_grid)
    )
    return (4.0 * fine - coarse) / 3.0

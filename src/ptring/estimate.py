"""First estimates of the roots in the sign-change brackets of a master grid.

find_roots closes each bracket on its factor from a first estimate of the
root (roots._close_brackets); one that lands within epsilon = _T_TOL t / 2
of the root, _T_TOL the closer's relative tolerance, closes the bracket on
the closer's first step. Both estimates here are barycentric interpolants
(Berrut & Trefethen, SIAM Rev. 46 (2004) 501) through the _FIT_POINTS
consecutive grid points around the bracket, evaluated for all brackets at
once.

The inverse estimate interpolates t as a polynomial in the factor's value
and reads it at value 0. Polynomial interpolation converges only where the
interpolated function is analytic, and on the twisted closure the factors
k (a -+ b) are not: b1 and b2 are square roots whose radicands vanish near
the real axis, b1's beside every doublet at sin s = 0, and both where
|cos kappa| vanishes, at cos s = +-i sinh t, beside cos s = 0 for small t.
There the inverse estimate missed by up to 6e7 epsilon, on 23 of the 25
brackets at Z = 1 and 18 levels, and the closer took three steps. Their
product is analytic, and a value that
carries it as its analytic form (see LogScaledValue) gets the forward
estimate instead: the root of that form's interpolant, in s = Z/(2t) as the
closure computes it from the grid's t, so that the points are exact where
the form varies fastest. It starts from the inverse estimate, or the
bracket's midpoint, and takes one step onto each root of the local
quadratic, then a Newton step from each of the two. Where one grid interval
holds both roots of a +- pair, as at most b1 doublets at Z = 1, the step
finds both, and each factor takes the one where the pair's sum
k (a - b) + k (a + b) = 2 k a has its sign: positive for k (a - b),
negative for k (a + b). The forward estimate replaces the
inverse one where it lies strictly inside the bracket, has that sign, and
its last Newton step e = p / p' has settled: the step's own error bound,
|p'' / (2 p')| e^2, is at most the closer's epsilon relative to s.
"""

import numpy as np

# Grid points around a bracket through which both estimates interpolate.
# Through p points h apart on a function that varies on a length l, the
# interpolant errs by about (h/l)^p, and h/l <= 2 _GRID_STEP ~ 0.037 on
# either part of the master grid (_GRID_RATIO = 0.02 on the geometric one;
# both in roots). Landing within epsilon then needs (2 _GRID_STEP)^p <=
# _T_TOL / 2, p >= 9.3, before the spread of the p points around the root,
# which costs a few powers of h/l more. Measured on the M = 1 solves at 400
# couplings in [0.05, 4], the inverse estimate lands within 15.6 epsilon of
# every root at p = 10, 1.28 at 12, 0.34 at 13 and 0.15 at 14; p = 14 is
# also the least at which M = 32 at Z = 1 closes in one step. On the
# twisted closure at Z from 0.5 to 33.55 and up to 100 levels, the forward
# estimate lands within 0.52 epsilon of every root. Each estimate costs
# p^2 products per bracket for its weights
_FIT_POINTS = 14
# Offsets of those points from the first of them, as a column
_FIT = np.arange(_FIT_POINTS)[:, None]


def first_estimates(ts, factors, analytic, Z: float, X, Y, k, i, eps) -> np.ndarray:
    """Per bracket, the first estimate of its root as a fraction of the way
    from its lower end to its upper one, strictly between 0 and 1, or NaN
    for none.

    ts is the ascending grid, factors its (K, n) factor values and analytic
    the value's analytic form there, a (1, n) row, or (0, n) for none; Z is
    the coupling of s = Z/(2t). Bracket j is a sign change of factor k[j]
    between grid points i[j] and i[j] + 1, with ends X[:, j] and the
    factor's values Y[:, j] there; eps is the closer's epsilon relative to
    s, _T_TOL / 2 of roots. The inverse estimate is taken where the factor
    is strictly monotone over the fit's points and the estimate lies
    strictly inside the bracket, the forward one as the module docstring
    says; a grid of fewer than _FIT_POINTS points gives NaN throughout.
    """
    q = np.full(i.size, np.nan)
    last = ts.size - _FIT_POINTS  # the last grid index a fit may start at
    if last < 0:
        return q
    fit = np.minimum(np.maximum(i - (_FIT_POINTS // 2 - 1), 0), last) + _FIT
    # the inverse estimate: with x the points' t relative to lo and y their
    # values over hi's less lo's, which rise through the bracket, the bracket
    # axis innermost, and y on the diagonal, the product in _weights is, per
    # point, (-1)^(p-1) times its value and its differences to the others,
    # the reciprocal of its barycentric weight at y = 0; the quotient drops
    # the sign. Factor k at grid index fit is factors' flat entry
    # fit + k * ts.size
    x, y = ts[fit] - X[0], factors.take(fit + k * ts.size) / (Y[1] - Y[0])
    with np.errstate(all="ignore"):  # equal values: not monotone
        c = _weights(y, y)
        u = (c * x).sum(axis=0) / (c.sum(axis=0) * (X[1] - X[0]))
    np.copyto(q, u, where=(y[1:] > y[:-1]).all(axis=0) & (u > 0.0) & (u < 1.0))
    if not analytic.size:
        return q
    # the forward estimate, with two candidates per bracket along the first
    # axis; the differences of s between grid points are exact, and their
    # product underflows, leaving no estimate, only below s of about 1e-22
    x, y = Z / (2.0 * ts[fit]), analytic[0, fit]
    z = Z / (2.0 * (X[0] + np.where(np.isnan(q), 0.5, q) * (X[1] - X[0])))
    with np.errstate(all="ignore"):  # an underflow, or a step onto a point: NaN
        w = _weights(x, 1.0)
        p, p1, p2, _ = _derivatives(z, x, w, y)
        root = np.sqrt(np.fmax(p1 * p1 - 4.0 * p * p2, 0.0))
        z = z - 2.0 * p / (p1 + [[1.0], [-1.0]] * root)
        p, p1, p2, c = _derivatives(z, x, w, y)
        e = p / p1
        u = (Z / (2.0 * (z - e)) - X[0]) / (X[1] - X[0])
        pair = (c * (factors[k & ~1, fit] + factors[k | 1, fit])).sum(axis=1)
        ok = (u > 0.0) & (u < 1.0) & (np.abs(p2 / p1) * e * e <= eps * z)
    ok &= (pair > 0.0) == (k % 2 == 0)
    np.copyto(q, np.where(ok[0], u[0], u[1]), where=ok.any(axis=0))
    return q


def _weights(v: np.ndarray, diagonal) -> np.ndarray:
    """Per column of v, of _FIT_POINTS rows, the reciprocal of the product
    over the first axis of d, where d_ij = v_i - v_j off the diagonal and
    diagonal_i on it."""
    d = v[:, None] - v
    d.reshape(_FIT_POINTS**2, -1)[:: _FIT_POINTS + 1] = diagonal
    return 1.0 / np.prod(d, axis=0)


def _derivatives(z, x, w, y) -> tuple:
    """At z, the value, the first derivative and half the second of the
    interpolant through the points (x, y), each a column of the last two
    axes, in the second barycentric form of weights w, and that form's
    terms, normalized to sum to 1. The derivatives are the polynomial's,
    from its divided differences p[z, x_i] = (p(z) - y_i) / (z - x_i) and
    p[z, z, x_i] = (p'(z) - p[z, x_i]) / (z - x_i), which the form weighs
    as it weighs y_i."""
    r = 1.0 / (z[..., None, :] - x)
    c = w * r
    c /= c.sum(axis=-2, keepdims=True)
    p = (c * y).sum(axis=-2)
    g = (p[..., None, :] - y) * r
    p1 = (c * g).sum(axis=-2)
    return p, p1, (c * (p1[..., None, :] - g) * r).sum(axis=-2), c

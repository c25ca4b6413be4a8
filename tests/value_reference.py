"""Reference value readers: the sign, log-magnitude and factors of both
closures and of LogScaledValue.from_float, each read by its own reader and
at once, as each was before all three shared one deferred reader.

The periodic reader computes g = 2 - tr T off k (a - b), k (a + b) and,
for M > 1, u, over the envelope k^2 (c^2 + d^2) e^(4th), leaving k c out;
the twisted one off its four band-edge factors over the negative envelope
of log-magnitude log 8 + 5 log|kappa|^2 + log(|c|^2 e^(-2t)) + 6t;
from_float takes np.sign and np.log|x| of x. Each returns (sign, logmag,
factors), unwrapped to Python scalars for a scalar t or x, as the
library's values are; these must equal the library's bit for bit.
"""

import math

import numpy as np

from ptring.potential import SquareWell
from ptring.secular import (
    FREE_LIMIT_Z,
    _cell_cd,
    _cell_trace,
    _chebyshev_u,
    _edge_pair,
    _points,
)


def _read_factors(sign, logmag, factors, log_u=None) -> tuple:
    """secular._read_off as the three readers called it."""
    for y, count in factors:
        sign = sign * np.sign(y) ** count
        logmag = logmag + count * (log_u if count == 2 else np.log(np.abs(y)))
    return sign.astype(int), logmag


def _unwrap(scalar: bool, sign, logmag, factors) -> tuple:
    if not scalar:
        return sign, logmag, factors
    return int(sign[0]), float(logmag[0]), [(float(v[0]), c) for v, c in factors]


def periodic(well: SquareWell, Z: float, t) -> tuple:
    """secular_monodromy(well, Z, t) as (sign, logmag, factors)."""
    point, mod_sq, scalar = _points(Z, t)
    M = well.M
    k_sq, a, b, sh, th, decay = _cell_trace(point, mod_sq, 1.0 / M)[:6]
    k = np.sqrt(k_sq)
    factors, log_u = _edge_pair(k, a, b), None
    c, d = _cell_cd(point, b, decay, sh)
    plus = k_sq * (c * c + d * d)
    if M > 1:
        u, log_u = _chebyshev_u(factors[0][0] * factors[1][0], plus, th, M)
        factors.append((u, 2))
    if Z <= FREE_LIMIT_Z:
        factors.append((k * c, 2))
    with np.errstate(divide="ignore"):
        envelope = np.log(plus) + 4.0 * th
        sign, logmag = _read_factors(1, envelope, factors[: 2 + (M > 1)], log_u)
    return _unwrap(scalar, sign, logmag, factors)


def explicit(Z: float, t) -> tuple:
    """secular_explicit(Z, t) as (sign, logmag, factors)."""
    point, mod_sq, scalar = _points(Z, t)
    k_sq, a, b, sh, th, decay, sin_s, em = _cell_trace(point, mod_sq, 1.0)
    cos_s = np.cos(sh)
    decay = np.exp(-2.0 * th)
    sinh2 = (0.5 * em) ** 2
    c2 = cos_s * cos_s * decay + sinh2
    rho = np.abs(cos_s) * (0.5 + 0.5 * decay) / np.sqrt(c2)
    gap = 2.0 * sin_s ** 2 * sinh2 / (c2 * (1.0 + rho)) * decay
    b_sq = b * b
    b1, b2 = np.sqrt(b_sq + gap / k_sq), np.sqrt(b_sq + (4.0 * decay - gap) / k_sq)
    flip, k = cos_s < 0.0, np.sqrt(k_sq)
    b1, b2 = np.where(flip, b2, b1), np.where(flip, b1, b2)
    factors = _edge_pair(k, a, b1) + _edge_pair(k, a, b2)
    with np.errstate(divide="ignore"):
        envelope = math.log(8.0) + 5.0 * np.log(mod_sq) + np.log(c2) + 6.0 * th
        sign, logmag = _read_factors(-1, envelope, factors)
    return _unwrap(scalar, sign, logmag, factors)


def from_float(x) -> tuple:
    """LogScaledValue.from_float(x) as (sign, logmag, factors)."""
    xs = np.array(x, dtype=float, ndmin=1)
    with np.errstate(divide="ignore"):
        sign, logmag = np.sign(xs).astype(int), np.log(np.abs(xs))
    return _unwrap(np.ndim(x) == 0, sign, logmag, [(xs, 1)])

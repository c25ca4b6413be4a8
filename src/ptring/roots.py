"""Root location for log-scaled secular functions of t.

The secular callable f takes a 1-D float array of t and returns a
LogScaledValue whose sign and logmag are arrays of the same length, with
its real factors. Root finding reads only the factors, and rejects a
value without them, so a closure that computes its sign and logmag on
first read never computes them here; scan_secular reads the value
itself. Every stage evaluates whole arrays: the master grid (in chunks
of at most _EVAL_CHUNK points, one chunk at 18 levels) and one step of
every open bracket together. Each secular call costs a fixed overhead
far above its per-point cost, so a solve's time follows its number of
calls, and each closer step spends a few points per bracket to save
calls.

Every real root of the value is a simple root of exactly one factor, and
the roots of one factor lie far apart. So the spectrum is the set of
sign changes of the factors on a master grid that is uniform in
s = Z/(2t) (so the energy resolution is roughly uniform), with its first
interval split geometrically in t where it spans a ratio above 2. A grid
point where a factor vanishes is an exact root. Each bracket is closed
on its own factor to a relative width of _T_TOL by Chandrupatla's
inverse quadratic interpolation under ITP's projection, in at most one
step more than bisection would take; each step evaluates a geometric
stencil around the estimate, so an accurate estimate on either side of
the root closes most of the bracket at once. All brackets are closed in
lock step, starting from the values the scan found at their ends and at
the grid point beyond each lower end, so that the first step already
interpolates. A root stands for as many levels as its factor's count;
two roots whose closed brackets overlap, so that the closer cannot order
them, merge into one record standing for two. A factor's pair of real
roots closer than the grid spacing is not found; the closed-form factors
have none, but the propagator product's one factor (any layout other
than a square well) may.

A level count below the requested one is a physical signal, not a
numerical fault: the missing levels have no real root in the window, as
happens when PT symmetry breaks spontaneously and levels merge into
complex conjugate pairs. find_roots emits a LevelShortfallWarning for it.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .potential import Z_FLOOR

# Master-scan resolution in s; the roots of one square-well factor lie at
# least 135 such steps apart (Z from 1e-6 to 16, up to 100 levels)
_MASTER_DS = 5e-3
# Most points of a master grid, checked before it is allocated: the default
# window of up to about 21800 levels at any Z, or t_min down to about
# 2.4e-5 at Z = 1. Just below it, a solve peaks at 270 MB RSS (explicit,
# four factors; 166 MB at M = 1)
_MAX_GRID_POINTS = 2**22
# Most t values handed to the secular callable in one call, which bounds its
# temporaries: a few dozen doubles per point for the closed forms, a few
# complex 2x2 matrices per point for the propagator product. 8192 takes the
# whole master grid of an 18-level solve (about 3800-5900 points) in one
# call; against 1024 it raised the peak RSS of a solve by at most 0.3 MB
# (explicit, 100 levels), and the benchmark's peak_rss_mb by 0.3-0.9 MB
# (+0.5% to +1.4%).
_EVAL_CHUNK = 8192
# Relative width to which every bracket is closed
_T_TOL = 1e-13
# Spare steps of ITP's projection over bisection's count
_ITP_N0 = 1
# Offsets of the points one closer step evaluates around its estimate, in
# units of epsilon = _T_TOL lo0 / 2, and the estimate's index in the row
# x1, stencil, x2 that the step searches for its sign change
_STENCIL = np.array([-1e9, -1e6, -1e3, -1.0, 0.0, 1.0, 1e3, 1e6, 1e9])
_CENTRE = 1 + _STENCIL.size // 2
# Offsets from that first point j without x1's sign, in the row, of the next
# step's x1, x2 and x3: column 0 for a new bracket below the estimate
# (j <= _CENTRE), column 1 above it
_NEXT = np.array([[0, -1], [-1, 0], [1, -2]])
# Signs of the values at x1, x2 and x3 relative to x1's
_Y_SIGNS = np.array([[1.0], [-1.0], [1.0]])
# Least bracket_width reported for a closed bracket, in ulps of its t: the
# sign of a computed value is rounding noise within a few ulps of its root
_WIDTH_FLOOR_ULPS = 8


class SecularEvaluationError(RuntimeError):
    """A secular callable raised while scanning; carries the offending t."""

    def __init__(self, t: float, cause: BaseException):
        super().__init__(f"secular evaluation failed at t={t!r}: {cause}")
        self.t = t


class LevelShortfallWarning(UserWarning):
    """Fewer real levels found than requested (possible PT breaking)."""


@dataclass(frozen=True)
class ScanConfig:
    """Scan window and least sample count for find_roots and scan_secular."""

    t_min: float
    t_max: float
    initial_samples: int = 256

    def __post_init__(self) -> None:
        if not self.t_min > 0:
            raise ValueError(f"t_min must be positive, got {self.t_min!r}")
        if not self.t_min < self.t_max:
            raise ValueError(
                f"need t_min < t_max, got [{self.t_min!r}, {self.t_max!r}]"
            )
        if self.initial_samples < 16:
            raise ValueError(
                f"initial_samples must be at least 16, got {self.initial_samples!r}"
            )


@dataclass(frozen=True, slots=True)
class ScanSample:
    """One point of a scan_secular table; slots keep a long table small."""

    t: float
    sign: int
    logmag: float


@dataclass(frozen=True)
class RootRecord:
    """One located root (or root pair) of the secular function.

    t is the end of the final bracket where |factor| is smaller, for the
    factor whose root it is, and residual_logmag is log|factor| there;
    bracket_width is the final bracket's width, which holds the root.
    unresolved_doublet=True means the record stands for two levels: a root
    of a factor of count 2, or two roots closer than bracket resolution.
    """

    t: float
    residual_logmag: float
    bracket_width: float
    unresolved_doublet: bool = False


def _evaluate(
    f: Callable[[np.ndarray], object], ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The factors of f over the 1-D array ts, chunk by chunk, as one row
    per factor, and their counts; the sign and log-magnitude of the value
    are not read. Raises ValueError on a value without factors.

    An error raised by f is wrapped in SecularEvaluationError, carrying the
    cause's own t when it has one and the chunk's first t otherwise.
    """
    factors = counts = None
    for i in range(0, ts.size, _EVAL_CHUNK):
        chunk = ts[i : i + _EVAL_CHUNK]
        v = _call(f, chunk)
        if not v.factors:
            raise ValueError(
                "root finding needs a secular value with factors; "
                "LogScaledValue.from_float(x) carries x as its one factor"
            )
        if factors is None:
            factors = np.empty((len(v.factors), ts.size))
            counts = np.array([c for _, c in v.factors])
        for row, (y, _) in zip(factors, v.factors):
            row[i : i + chunk.size] = y
    return factors, counts


def _call(f: Callable[[np.ndarray], object], ts: np.ndarray):
    """f(ts), an error it raises wrapped as _evaluate describes."""
    try:
        return f(ts)
    except SecularEvaluationError:
        raise
    except Exception as e:
        t = getattr(e, "t", None)
        raise SecularEvaluationError(float(ts[0]) if t is None else t, e) from e


def _pick(
    factors: np.ndarray, k: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log-magnitude of factor k at point idx of _evaluate's
    factors, k and idx broadcast together."""
    y = factors[k, idx]
    with np.errstate(divide="ignore"):  # an exact root: -inf
        return np.sign(y), np.log(np.abs(y))


def scan_secular(
    f: Callable[[np.ndarray], object], config: ScanConfig
) -> list[ScanSample]:
    """Tabulate sign and log-magnitude of f itself on a uniform t grid over
    the window."""
    ts = np.linspace(config.t_min, config.t_max, config.initial_samples)
    signs, logmags = np.empty(ts.size, dtype=int), np.empty(ts.size)
    for i in range(0, ts.size, _EVAL_CHUNK):
        v = _call(f, ts[i : i + _EVAL_CHUNK])
        signs[i : i + _EVAL_CHUNK] = v.sign
        logmags[i : i + _EVAL_CHUNK] = v.logmag
    return list(map(ScanSample, ts.tolist(), signs.tolist(), logmags.tolist()))


def _close_brackets(
    f: Callable[[np.ndarray], object], brackets: np.ndarray, ends: tuple
) -> list[RootRecord]:
    """Close every sign-change bracket in lock step, one record each.

    brackets and ends are what _brackets_and_exacts found on a grid: an
    (n, 2) array of (lo, hi) rows, 0 < lo < hi, and per bracket the index of
    the factor of f's value that changes sign across it, whether that
    factor counts twice, the factor's sign at lo, a seed point beyond lo of
    lo's sign (NaN for none), and the factor's log-magnitudes at lo, hi and
    the seed as an array of shape (3, n). No factor is zero at its
    bracket's ends, which the scan records as exact roots instead.

    Each step's estimate x is Chandrupatla's (Adv. Eng. Softw. 28 (1997)
    145): inverse quadratic interpolation over the end nearer the last
    estimate, the other end and the next point beyond the nearer end of its
    sign (the seed at first), taken where his test accepts it and the
    midpoint otherwise (as at the first step of an unseeded bracket). It is
    clipped to at least epsilon = _T_TOL lo0 / 2 from the nearer end, so
    that a converged estimate steps across the root, and then projected as
    in ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with n0 = 1. The
    step evaluates the stencil x + epsilon {0, +-1, +-1e3, +-1e6, +-1e9},
    clipped into the bracket, and takes its sign change as the new bracket,
    so an estimate off the root by e < 1e9 epsilon, on either side, leaves
    a bracket at most about 1e3 e wide (epsilon for e < epsilon). The
    stencil only shrinks the bracket ITP's point alone would leave: at most
    ceil(log2((hi0 - lo0) / (_T_TOL lo0))) + 1 steps, one more than
    bisection needs to reach width _T_TOL lo0. Steps are taken while the
    width exceeds _T_TOL times the upper end and lo < mid < hi holds, a
    point with sign 0 closes the bracket on it, and the record's t is the
    final end of smaller |factor|, whose log-magnitude is the residual. One
    step evaluates the stencils of all open brackets in one call.
    """
    if not len(brackets):
        return []
    # per open bracket i: the rows of X are the end x1 nearer the last
    # estimate (of sign s1), the other end x2 and the next point x3 beyond
    # x1 of x1's sign (NaN for none), the rows of L their log-magnitudes,
    # and k is its factor
    k, double, s1, seed, L = ends
    i = np.arange(len(brackets))
    X = np.concatenate([brackets.T, seed[None]])
    t, residual, width = np.empty((3, i.size))
    eps = 0.5 * _T_TOL * X[0]
    n_max = np.ceil(np.log2((X[1] - X[0]) / (2.0 * eps))) + _ITP_N0
    # ITP's projection radius plus half the width, (eps - ulp) 2^(n_max - j)
    # at step j: rounding of mid and x adds up to one ulp to a width held at
    # its budget, and an ulp less keeps n_max steps enough
    budget = (eps - np.spacing(X[1])) * 2.0**n_max
    while i.size:
        x1, x2, x3 = X
        a, b = np.minimum(x1, x2), np.maximum(x1, x2)
        w, m = b - a, 0.5 * (a + b)
        go = (w > _T_TOL * b) & (a < m) & (m < b)
        if not go.all():
            # record the brackets that closed and drop them from the arrays
            c = ~go
            x_c, l_c, w_c = X[:2, c], L[:2, c], w[c]
            nearer = l_c[0] <= l_c[1]
            t[i[c]] = np.where(nearer, *x_c)
            residual[i[c]] = np.where(nearer, *l_c)
            width[i[c]] = np.where(
                w_c > 0, np.maximum(w_c, _WIDTH_FLOOR_ULPS * np.spacing(m[c])), 0.0
            )
            if not go.any():
                break
            i, X, L, s1, k, eps, budget, a, b, w, m = (
                i[go], X[:, go], L[:, go], s1[go], k[go], eps[go], budget[go],
                a[go], b[go], w[go], m[go],
            )
            x1, x2, x3 = X
        # inverse quadratic interpolation on the values normalized by the
        # largest of the three, where Chandrupatla's test accepts it; the
        # values carry the sign s1 (-s1 at x2), which changes neither
        y1, y2, y3 = np.exp(L - L.max(axis=0)) * _Y_SIGNS
        dx = x2 - x1
        with np.errstate(all="ignore"):
            d21, d23 = y2 - y1, y2 - y3
            xi, phi = dx / (x2 - x3), d21 / d23
            q = y1 / d23 * (y3 / d21 - (x3 - x1) / dx * y2 / (y3 - y1))
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(q)
        # clip: at least epsilon from the nearer end toward the other end
        q_min = eps / w
        xt = np.where(iqi, x1 + np.minimum(np.maximum(q, q_min), 1.0 - q_min) * dx, m)
        # project: keep it within r of the midpoint
        r = np.maximum(budget - 0.5 * w, 0.0)
        d = m - xt
        x = np.where(np.abs(d) <= r, xt, m - np.sign(d) * r)
        # the row x1, stencil, x2 per bracket: the stencil runs from x1
        # toward x2 and is clipped into the bracket, so the row is sorted; a
        # point clipped onto an end takes that end's sign
        col = (slice(None), None)  # a per-bracket array as a column
        stencil = x[col] + (eps * np.sign(dx))[col] * _STENCIL
        np.maximum(stencil, a[col], out=stencil)
        np.minimum(stencil, b[col], out=stencil)
        factors, _ = _evaluate(f, stencil.ravel())
        points = np.arange(stencil.size).reshape(stencil.shape)
        signs, logmags = _pick(factors, k[col], points)
        row = np.concatenate([x1[col], stencil, x2[col]], axis=1)
        row_l = np.concatenate([L[0][col], logmags, L[1][col]], axis=1)
        row_s = np.concatenate([s1[col], signs, -s1[col]], axis=1)
        # the new bracket (row[j - 1], row[j]) at the row's first point j
        # without x1's sign; its end nearer the estimate row[_CENTRE] becomes
        # x1, the next point beyond that end x3 (of x1's sign, unless
        # rounding noise flips a sign inside the stencil), and a zero at
        # row[j] closes the bracket on it
        keep = ((row_s == s1[col]) | (row == x1[col])) & (row != x2[col])
        j = np.argmin(keep, axis=1)
        brk = np.arange(j.size)
        up = j > _CENTRE
        idx = j + _NEXT[:, up.astype(np.intp)]
        np.copyto(idx[:2], j, where=row_s[brk, j] == 0)
        X, L = row[brk, idx], row_l[brk, idx]
        s1 = np.where(up, s1, -s1)
        budget *= 0.5
    return [
        RootRecord(t=ti, residual_logmag=ri, bracket_width=wi, unresolved_doublet=di)
        for ti, ri, wi, di in zip(
            t.tolist(), residual.tolist(), width.tolist(), double.tolist()
        )
    ]


def bisect(
    f: Callable[[np.ndarray], object], bracket: tuple[float, float]
) -> RootRecord:
    """The root in the bracket (lo, hi), closed to relative width _T_TOL.

    find_roots on the two-point grid lo, hi, without a seed: an end where a
    factor vanishes is the root, lo before hi; otherwise the first factor,
    in the value's order, that changes sign across the bracket is closed.
    Raises ValueError unless 0 < lo < hi and some factor changes sign
    across the bracket or vanishes at an end.
    """
    lo, hi = map(float, bracket)
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got {(lo, hi)!r}")
    ts = np.array([lo, hi])
    brackets, ends, exacts = _brackets_and_exacts(ts, _evaluate(f, ts))
    if exacts:
        return exacts[0]
    if not len(brackets):
        raise ValueError(f"no factor changes sign across the bracket {(lo, hi)!r}")
    return _close_brackets(f, brackets[:1], tuple(e[..., :1] for e in ends))[0]


def _brackets_and_exacts(
    ts: np.ndarray, scan: tuple
) -> tuple[np.ndarray, tuple, list[RootRecord]]:
    """Sign-change brackets of each factor between neighbours of the grid ts
    as an (n, 2) array of (lo, hi) rows, their ends argument of
    _close_brackets, and exact roots: points where a factor is zero, each a
    root of the first such factor.

    Each bracket is seeded with the grid point just beyond lo, where that
    point exists and has lo's sign of the factor.
    """
    factors, counts = scan
    neg, pos, zero = factors < 0, factors > 0, factors == 0
    exacts = []
    if zero.any():
        j = np.flatnonzero(zero.any(axis=0))
        exacts = [
            RootRecord(
                t=t, residual_logmag=-math.inf, bracket_width=0.0, unresolved_doublet=d
            )
            for t, d in zip(
                ts[j].tolist(), (counts[np.argmax(zero[:, j], axis=0)] == 2).tolist()
            )
        ]
    # factor by factor in ascending i, as np.nonzero would give them
    k, i = divmod(
        np.flatnonzero((neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])),
        ts.size - 1,
    )
    i_lo = np.where(ts[i] < ts[i + 1], i, i + 1)
    i_hi = 2 * i + 1 - i_lo
    beyond = 2 * i_lo - i_hi
    i_seed = np.minimum(np.maximum(beyond, 0), ts.size - 1)
    signs, logmags = _pick(factors, k, np.array([i_lo, i_hi, i_seed]))
    seed = np.where((i_seed == beyond) & (signs[2] == signs[0]), ts[i_seed], np.nan)
    brackets = np.stack([ts[i_lo], ts[i_hi]], axis=1)
    return brackets, (k, counts[k] == 2, signs[0], seed, logmags), exacts


def _merge_close(records: list[RootRecord]) -> list[RootRecord]:
    """Collapse root pairs that bracket closing cannot tell apart.

    Each record's root lies within bracket_width of its t. Two records
    whose such intervals touch are one doublet whose splitting is below
    the closer's resolution; they merge into a single unresolved_doublet
    record. The test scales with t, as the closer's relative tolerance
    does, so it holds at every coupling.
    """
    records = sorted(records, key=lambda r: r.t)
    out: list[RootRecord] = []
    for r in records:
        if out and r.t - out[-1].t <= r.bracket_width + out[-1].bracket_width:
            prev = out.pop()
            if prev.unresolved_doublet or r.unresolved_doublet:
                # already counted as a pair; keep the sharper record
                keep = prev if prev.residual_logmag <= r.residual_logmag else r
                out.append(keep)
                continue
            out.append(
                RootRecord(
                    t=0.5 * (prev.t + r.t),
                    residual_logmag=min(prev.residual_logmag, r.residual_logmag),
                    bracket_width=abs(r.t - prev.t)
                    + prev.bracket_width
                    + r.bracket_width,
                    unresolved_doublet=True,
                )
            )
        else:
            out.append(r)
    return out


def level_count(records: Sequence[RootRecord]) -> int:
    """Number of energy levels the records stand for (doublets count twice)."""
    return sum(2 if r.unresolved_doublet else 1 for r in records)


def default_scan_config(
    Z: float,
    n_levels: int,
    t_min: float | None = None,
    t_max: float | None = None,
) -> ScanConfig:
    """Scan window sized to capture the lowest n_levels levels.

    The energy ceiling is 1.5x the free-circle estimate for level
    n_levels + 2, converted to a t floor through s = Z/(2t); the t ceiling
    sits far above the ground state of any coupling up to Z. The floor
    ignores the -t^2 of E = s^2 - t^2, so at large Z the window reaches
    less far in E. Where a default floor leaves the window no positive
    energy, or no t range at all, this raises ValueError rather than return
    a window that holds no level of the strictly periodic operator (whose
    eigenvalues all have Re E >= 0).
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be at least 1, got {n_levels!r}")
    if not Z >= Z_FLOOR:
        raise ValueError(f"Z must be at least {Z_FLOOR:g}, got {Z!r}")
    e_max = 1.5 * (math.pi * (n_levels + 2) / 4.0) ** 2
    if t_max is None:
        t_max = 5.0 * max(1.0, math.sqrt(Z))
    if t_min is None:
        t_min = Z / (2.0 * math.sqrt(e_max))
        e_top = (Z / (2.0 * t_min)) ** 2 - t_min**2
        if not (e_top > 0 and t_min < t_max):
            raise ValueError(
                f"the default scan window for {n_levels} levels at Z={Z!r} "
                f"holds no positive energy: t from {t_min:.6g} to {t_max:.6g} "
                f"reaches E up to {e_top:.6g}; set a smaller t_min (--t-min)"
            )
    return ScanConfig(t_min=t_min, t_max=t_max)


def find_roots(
    f: Callable[[np.ndarray], object],
    Z: float,
    n_levels: int,
    config: ScanConfig | None = None,
) -> list[RootRecord]:
    """Locate the real secular roots covering the lowest n_levels levels.

    f maps a 1-D float array of t to a LogScaledValue with factors; it is
    called on the master grid and on each lock-step closer step, and only
    its factors are read. Every sign change of a factor on the grid is
    closed on that factor. Returns every root found in the window, in
    descending t (ascending energy) order; callers slice the leading
    n_levels levels after doublet expansion. Warns with
    LevelShortfallWarning when the window yields fewer levels than
    requested, which for this operator family indicates levels lost to
    complex conjugate pairs rather than a scan failure. Raises ValueError
    on a value without factors, and before evaluating or allocating
    anything when the master grid would take more than _MAX_GRID_POINTS
    points.
    """
    cfg = config if config is not None else default_scan_config(Z, n_levels)
    s_lo = Z / (2.0 * cfg.t_max)
    s_hi = Z / (2.0 * cfg.t_min)
    span = (s_hi - s_lo) / _MASTER_DS  # inf where s_hi overflows
    points = max(span + 1.0, cfg.initial_samples)
    if not points <= _MAX_GRID_POINTS:
        raise ValueError(
            f"the master grid for t from {cfg.t_min:.6g} to {cfg.t_max:.6g} at "
            f"Z={Z!r} would take {points:.4g} points, more than the "
            f"{_MAX_GRID_POINTS} allowed; set a larger t_min (--t-min) or "
            f"request fewer levels (--levels)"
        )
    n = max(cfg.initial_samples, math.ceil(span) + 1)
    ts = Z / (2.0 * np.linspace(s_lo, s_hi, n))
    # the first interval, (Z / (2 (s_lo + ds)), t_max), spans a t ratio up
    # to 5e4 at Z = 1e-6 and holds the ground state; geometric points in t
    # split it into ratios of at most 2 (none in the default window from
    # Z = 0.05 up)
    n_fill = max(math.ceil(math.log2(ts[0] / ts[1])), 1) - 1
    if n_fill:
        fill = np.geomspace(ts[0], ts[1], n_fill + 2)[1:-1]
        ts = np.concatenate([ts[:1], fill, ts[1:]])
    brackets, ends, records = _brackets_and_exacts(ts, _evaluate(f, ts))
    records += _close_brackets(f, brackets, ends)

    records = _merge_close(records)
    records.sort(key=lambda r: -r.t)

    found = level_count(records)
    if found < n_levels:
        e_top = (Z / (2.0 * cfg.t_min)) ** 2 - cfg.t_min**2
        warnings.warn(
            LevelShortfallWarning(
                f"found {found} of {n_levels} requested levels scanning "
                f"E up to {e_top:.6g}; the missing levels have no real "
                f"root in the window, consistent with complex conjugate "
                f"pairs from spontaneously broken PT symmetry"
            ),
            stacklevel=2,
        )
    return records

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
the roots of one factor lie far apart, except that two of them meet where
two real levels leave the real axis at an exceptional point. So the
spectrum is the set of sign changes of the factors on a master grid in
s = Z/(2t) (so the energy resolution is roughly uniform), geometric near
the ground state and uniform above it, with spacings derived from the
closer's reach (see _GRID_RATIO). A grid point where a factor vanishes is
an exact root. Where a factor keeps its sign across three grid points but
its least magnitude there lies so near zero that a pair of its roots may
hide in between (see _hides_pair), the scan flags an extremum window, and
find_roots refines the grid before closing anything: each pass adds the
closer's stencil around the vertex of each window's parabola and scans the
merged grid again, until no window is left; a pair it shows is two
ordinary sign changes. Each bracket is closed on its own factor to a
relative width of _T_TOL by Chandrupatla's inverse quadratic interpolation
under ITP's projection, in at most one step more than bisection would
take; each step evaluates a geometric stencil around the estimate, so an
accurate estimate on either side of the root closes most of the bracket at
once. All brackets are closed in lock step, starting from the values the
scan found at their ends and at a seed, the grid point beyond one end with
that end's sign (below the lower end where it has one, else above the
upper), so that the first step interpolates; a bracket with neither seed
starts at its midpoint. A root stands for as many levels as its factor's
count; two roots whose closed brackets overlap, so that the closer cannot
order them, merge into one record standing for two.

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

from .errors import LevelShortfallWarning, SecularEvaluationError
from .potential import check_coupling

# Most points of a master grid, checked before it is allocated, and of a
# scan_secular table: the default window of up to about 80000 levels at any
# Z, or t_min down to about 6.5e-6 at Z = 1. Just below it, a solve peaked at
# 478 MB RSS (explicit, four factors, 2.2 s on one core; 287 MB at M = 1)
_MAX_GRID_POINTS = 2**22
# Least points of a master grid: a derived grid with fewer has each of its
# intervals split evenly until it has at least this many. Of the default
# windows it binds only on those of 1-3 levels at Z from about 0.5 to 44
# (186-253 derived points at Z = 1-17.9), whose printed roots rest on it
_LEAST_GRID_POINTS = 256
# Most t values handed to the secular callable in one call, which bounds its
# temporaries: a few dozen doubles per point for the closed forms, a few
# complex 2x2 matrices per point for the propagator product. 8192 takes the
# whole master grid of a default window up to about 150 levels (about 1100
# points at 18, 5400 at 100) in one call; against 1024 it raised the peak
# RSS of a solve by at most 0.3 MB (explicit, 100 levels, on a uniform
# master grid of step 5e-3), and the benchmark's peak_rss_mb by 0.3-0.9 MB
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
# Reach of the stencil around a closer estimate, relative to t: an estimate
# off the root by less than this closes most of the bracket at once
_REACH = float(_STENCIL[-1]) * _T_TOL / 2
# Master grid in s. The closer's first step on a bracket interpolates
# through its ends and its seed, the grid point beyond one end (inverse
# quadratic interpolation), and needs only one step more when it lands
# within _REACH of the root. Through points h apart on a factor that varies
# on a length l, the secant errs by about h^2 / (8 l) and the quadratic by
# about h^3 / l^2. Near the ground state, s ~ sqrt(Z/2), a factor varies on
# the scale of s itself (l = s), and the secant's bound sets a geometric
# grid of ratio 1 + _GRID_RATIO, 2% apart. The ratio stays although every
# first step interpolates through a seed or takes the midpoint: a wider one
# moves the last bits of the roots, and with them the printed delta1 of
# doublet partners. Above s = _GRID_STEP / _GRID_RATIO (0.92) a factor
# varies on the scale of its roots, which lie no closer than about pi/2 in s
# (the free ring's level spacing at circumference 4), l = 1/2, and the
# quadratic sets the uniform step _GRID_STEP (0.018). Two roots of one
# factor that meet at an exceptional point lie closer than that; the
# extremum windows catch them.
_GRID_RATIO = math.sqrt(8.0 * _REACH)
_GRID_STEP = 0.5 * _REACH ** (1.0 / 3.0)
# An extremum of a factor toward zero may hide a pair of roots when the vertex
# of the parabola through it and its neighbours lies within this many times
# the parabola's own error (the cubic term, from the third divided difference)
# of zero, or beyond it
_VERTEX_MARGIN = 3.0
# Least bracket_width reported for a closed bracket, in ulps of its t: the
# sign of a computed value is rounding noise within a few ulps of its root
_WIDTH_FLOOR_ULPS = 8


@dataclass(frozen=True)
class ScanConfig:
    """The t window of find_roots and scan_secular, t_min < t_max, both
    positive; each sizes its own grid over it."""

    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if not self.t_min > 0:
            raise ValueError(
                f"t_min must be positive, got {self.t_min!r}; "
                f"set a positive t_min (--t-min)"
            )
        if not self.t_min < self.t_max:
            raise ValueError(
                f"need t_min < t_max, got [{self.t_min!r}, {self.t_max!r}]; "
                f"set t_min (--t-min) below t_max (--t-max)"
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


def _chunks(f: Callable[[np.ndarray], object], ts: np.ndarray):
    """(i, f(ts[i : i + _EVAL_CHUNK])) for i = 0, _EVAL_CHUNK, ... over the
    1-D array ts. An error raised by f is wrapped in SecularEvaluationError,
    carrying the cause's own t when it has one and the chunk's first t
    otherwise."""
    for i in range(0, ts.size, _EVAL_CHUNK):
        chunk = ts[i : i + _EVAL_CHUNK]
        try:
            v = f(chunk)
        except SecularEvaluationError:
            raise
        except Exception as e:
            t = getattr(e, "t", None)
            raise SecularEvaluationError(float(chunk[0]) if t is None else t, e) from e
        yield i, v


def _evaluate(
    f: Callable[[np.ndarray], object], ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The factors of f over the 1-D array ts, chunk by chunk (_chunks), as
    one row per factor, and their counts; the sign and log-magnitude of the
    value are not read. Raises ValueError on a value without factors.
    """
    factors = counts = None
    for i, v in _chunks(f, ts):
        if not v.factors:
            raise ValueError(
                "root finding needs a secular value with factors; "
                "LogScaledValue.from_float(x) carries x as its one factor"
            )
        if factors is None:
            factors = np.empty((len(v.factors), ts.size))
            counts = np.array([c for _, c in v.factors])
        for row, (y, _) in zip(factors, v.factors):
            row[i : i + _EVAL_CHUNK] = y
    return factors, counts


def scan_secular(
    f: Callable[[np.ndarray], object], config: ScanConfig, samples: int = 256
) -> list[ScanSample]:
    """Tabulate sign and log-magnitude of f itself at samples points evenly
    spaced in t over the window, both ends included, calling f chunk by
    chunk as root finding does (_chunks). Raises ValueError before
    evaluating or allocating anything when samples is below 16 or above
    _MAX_GRID_POINTS."""
    if samples < 16:
        raise ValueError(
            f"samples must be at least 16, got {samples!r}; request more (--samples)"
        )
    if not samples <= _MAX_GRID_POINTS:
        raise ValueError(
            f"a scan of {samples} samples is more than the "
            f"{_MAX_GRID_POINTS} allowed; request fewer (--samples)"
        )
    ts = np.linspace(config.t_min, config.t_max, samples)
    signs, logmags = np.empty(ts.size, dtype=int), np.empty(ts.size)
    for i, v in _chunks(f, ts):
        signs[i : i + _EVAL_CHUNK] = v.sign
        logmags[i : i + _EVAL_CHUNK] = v.logmag
    return list(map(ScanSample, ts.tolist(), signs.tolist(), logmags.tolist()))


def _itp_budget(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per bracket with ends x1 and x2, in either order, lo the lesser and
    hi the greater: epsilon = _T_TOL lo / 2, and ITP's projection radius
    plus half the width, (epsilon - ulp) 2^n_max, for its first step.

    n_max = ceil(log2((hi - lo) / (2 epsilon))) + _ITP_N0 steps; rounding of
    mid and x adds up to one ulp to a width held at its budget, and an ulp
    less keeps n_max steps enough.
    """
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    eps = 0.5 * _T_TOL * lo
    with np.errstate(divide="ignore"):  # a closed bracket: a budget of 0
        n_max = np.ceil(np.log2((hi - lo) / (2.0 * eps))) + _ITP_N0
    return eps, (eps - np.spacing(hi)) * 2.0**n_max


def _hides_pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per column of x and y, five points in ascending x (NaN where absent)
    around a middle point where |y| is least, all of one sign: whether a pair
    of roots may lie near it.

    That is, whether the vertex of the parabola through the middle three
    points lies within _VERTEX_MARGIN times the parabola's error of zero, or
    beyond it. The error is the cubic term, the largest third divided
    difference over four neighbouring points times the cube of the wider
    middle spacing, so a touch of zero at a kink, where the third difference
    is large, counts as near. x is taken relative to the middle point, which
    keeps the differences finite at any t.
    """
    _, vertex = _vertex(x[1:4], y[1:4])
    u = x / x[2] - 1.0
    with np.errstate(all="ignore"):
        d1 = (y[1:] - y[:-1]) / (u[1:] - u[:-1])
        d2 = (d1[1:] - d1[:-1]) / (u[2:] - u[:-2])
        d3 = np.abs((d2[1:] - d2[:-1]) / (u[3:] - u[:-3]))
    error = np.fmax(np.fmax(d3[0], d3[1]), 0.0) * np.maximum(-u[1], u[3]) ** 3
    return ~(np.sign(y[2]) * vertex > _VERTEX_MARGIN * error)


def _close_brackets(
    f: Callable[[np.ndarray], object], brackets: tuple
) -> list[RootRecord]:
    """Close every bracket in lock step and make one record of each.

    brackets is what _brackets_and_windows found on a grid: per bracket, as
    columns of (3, n) arrays, the points x1, x2 and x3 and the factor's
    values there, then the index of the factor of f's value whose root it
    holds and whether that factor counts twice. A sign-change bracket has
    ends x1 and x2, 0 < min(x1, x2), where its factor is not zero, and a
    seed x3: the grid point beyond x1 with x1's sign (NaN for none). An
    exact root, a grid point where the factor is zero, is a bracket already
    closed: all three points are that grid point and the values are 0.
    find_roots has resolved every extremum window on its grid before this,
    so a pair of roots it found is two ordinary brackets here.

    Each step's estimate x is Chandrupatla's (Adv. Eng. Softw. 28 (1997)
    145): inverse quadratic interpolation over the end nearer the last
    estimate, the other end and the next point beyond the nearer end of its
    sign (the seed at first), taken where his test accepts it and the
    midpoint otherwise, as always without a seed. It is clipped to
    at least epsilon = _T_TOL lo0 / 2 from the nearer end, so that a
    converged estimate steps across the root, and then projected as in ITP
    (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with n0 = 1. The
    step evaluates the stencil x + epsilon {0, +-1, +-1e3, +-1e6, +-1e9},
    clipped into the bracket, and takes its sign change as the new bracket,
    so an estimate off the root by e < 1e9 epsilon, on either side, leaves
    a bracket at most about 1e3 e wide (epsilon for e < epsilon). The
    stencil only shrinks the bracket ITP's point alone would leave: at most
    ceil(log2((hi0 - lo0) / (_T_TOL lo0))) + 1 steps, one more than
    bisection needs to reach width _T_TOL lo0. Steps are taken while the
    width exceeds _T_TOL times the upper end and lo < mid < hi holds, and a
    point with value 0 closes the bracket on it. One step evaluates the
    stencils of all open brackets in one call; a closed bracket keeps its
    ends. When all have closed, each record's t is its final end of smaller
    |factor|, whose log is the residual (-inf at an exact root).
    """
    # per bracket: the rows of X are the end x1 nearer the last estimate,
    # the other end x2 and the next point x3 beyond x1 of x1's sign (NaN for
    # none), the rows of Y the factor's values there, and k is its factor
    X, Y, k, double = brackets
    X, Y = X.copy(), Y.copy()
    eps, budget = _itp_budget(X[0], X[1])
    col = (slice(None), None)  # a per-bracket array as a column
    while True:
        a, b = np.minimum(X[0], X[1]), np.maximum(X[0], X[1])
        w, m = b - a, 0.5 * (a + b)
        go = (w > _T_TOL * b) & (a < m) & (m < b)
        if not go.any():
            break
        (x1, x2, x3), (y1, y2, y3) = X[:, go], Y[:, go]
        a, b, w, m = a[go], b[go], w[go], m[go]
        # inverse quadratic interpolation where Chandrupatla's test accepts
        # it, else the midpoint (always without x3); the values at x1 and x3
        # share a sign, the value at x2 has the other, and the interpolant is
        # the same at any scale
        dx = x2 - x1
        with np.errstate(all="ignore"):
            d21, d23 = y2 - y1, y2 - y3
            xi, phi = dx / (x2 - x3), d21 / d23
            q = y1 / d23 * (y3 / d21 - (x3 - x1) / dx * y2 / (y3 - y1))
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(q)
        # clip: at least epsilon from the nearer end toward the other end
        q_min = eps[go] / w
        xt = np.where(iqi, x1 + np.minimum(np.maximum(q, q_min), 1.0 - q_min) * dx, m)
        # project: keep it within r of the midpoint
        r = np.maximum(budget[go] - 0.5 * w, 0.0)
        d = m - xt
        x = np.where(np.abs(d) <= r, xt, m - np.sign(d) * r)
        # the row x1, stencil, x2 per bracket: the stencil runs from x1
        # toward x2 and is clipped into the bracket, so the row is sorted; a
        # point clipped onto an end takes that end's value
        stencil = x[col] + (eps[go] * np.sign(dx))[col] * _STENCIL
        np.maximum(stencil, a[col], out=stencil)
        np.minimum(stencil, b[col], out=stencil)
        ts = stencil.ravel()
        values = _evaluate(f, ts)[0][
            np.repeat(k[go], _STENCIL.size), np.arange(ts.size)
        ]
        # the new bracket (row[j - 1], row[j]) at the row's first point j
        # without x1's sign; its end nearer the estimate row[_CENTRE] becomes
        # x1, the next point beyond that end x3 (of x1's sign, unless
        # rounding noise flips a sign inside the stencil), and a zero at
        # row[j] closes the bracket on it
        row = np.concatenate([x1[col], stencil, x2[col]], axis=1)
        row_y = np.concatenate([y1[col], values.reshape(stencil.shape), y2[col]], axis=1)
        keep = ((row_y * np.sign(y1)[col] > 0) | (row == x1[col])) & (row != x2[col])
        j = np.argmin(keep, axis=1)
        brk = np.arange(j.size)
        up = j > _CENTRE
        idx = j + _NEXT[:, up.astype(np.intp)]
        np.copyto(idx[:2], j, where=row_y[brk, j] == 0)
        X[:, go], Y[:, go] = row[brk, idx], row_y[brk, idx]
        budget *= 0.5
    nearer = np.abs(Y[0]) <= np.abs(Y[1])
    t = np.where(nearer, X[0], X[1])
    with np.errstate(divide="ignore"):  # an exact root: -inf
        residual = np.log(np.abs(np.where(nearer, Y[0], Y[1])))
    width = np.where(w > 0, np.maximum(w, _WIDTH_FLOOR_ULPS * np.spacing(m)), 0.0)
    return [
        RootRecord(t=ti, residual_logmag=ri, bracket_width=wi, unresolved_doublet=di)
        for ti, ri, wi, di in zip(
            t.tolist(), residual.tolist(), width.tolist(), double.tolist()
        )
    ]


def _vertex(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the arrays x and y of shape (3, n), the abscissa and
    value of the vertex of the parabola through the three points, or the
    middle point where the three values are flat. x is taken relative to
    the middle point, which keeps the differences finite at any t."""
    u = x / x[1] - 1.0
    with np.errstate(all="ignore"):
        d_am, d_mb = (y[1] - y[0]) / -u[0], (y[2] - y[1]) / u[2]
        c = (d_mb - d_am) / (u[2] - u[0])
        uv = 0.5 * u[0] - 0.5 * d_am / c
        v = y[1] + uv * (d_am + c * (uv - u[0]))
    flat = ~(np.isfinite(uv) & np.isfinite(v))
    return x[1] * (1.0 + np.where(flat, 0.0, uv)), np.where(flat, y[1], v)


def _brackets_and_windows(ts: np.ndarray, scan: tuple) -> tuple[tuple, np.ndarray]:
    """The brackets of the ascending grid ts, the argument of
    _close_brackets, and its extremum windows.

    The brackets are, first, the exact roots, points where a factor is
    zero, each a bracket already closed on the first such factor, and then
    the sign-change brackets of each factor between neighbours. Each
    sign-change bracket is seeded with the grid point just below lo, where
    that point exists and has lo's sign of the factor, and otherwise with
    the grid point just above hi, where that point exists and has hi's sign;
    then hi is the closer's x1. An extremum window is three neighbouring
    grid points where a factor keeps its sign and is least in magnitude at
    the middle one, so close to zero that it may hide a pair of roots
    (_hides_pair), where no factor changes sign or vanishes: a factor
    touching zero at another factor's root, as U_(M-1) does at every band
    edge, has no roots of its own there. The windows are an array of shape
    (2, 3, m): each window's points and the factor's values there.
    """
    factors, counts = scan
    neg, pos, zero = factors < 0, factors > 0, factors == 0
    change = (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])
    quiet = ~change.any(axis=0)  # per grid interval
    # factor by factor in ascending i, as np.nonzero would give them; the
    # rows of around are lo, hi and the grid points below lo and above hi
    k, i = divmod(np.flatnonzero(change), ts.size - 1)
    around = np.array([i, i + 1, np.maximum(i - 1, 0), np.minimum(i + 2, ts.size - 1)])
    sign = np.sign(factors[k, around])
    below = (i > 0) & (sign[2] == sign[0])
    above = ~below & (i + 2 < ts.size) & (sign[3] == sign[1])
    rows = np.where(above, around[[1, 0, 3]], around[:3])
    X, Y = ts[rows], factors[k, rows]
    X[2, ~(below | above)] = np.nan
    if zero.any():
        # the exact roots go first, in ascending t
        at_zero = zero.any(axis=0)
        j = np.flatnonzero(at_zero)
        X = np.concatenate([np.tile(ts[j], (3, 1)), X], axis=1)
        Y = np.concatenate([np.zeros((3, j.size)), Y], axis=1)
        k = np.concatenate([np.argmax(zero[:, j], axis=0), k])
        quiet &= ~(at_zero[:-1] | at_zero[1:])
    brackets = X, Y, k, counts[k] == 2
    # the extremum windows: five points around each least |factor|, NaN
    # beyond the grid; of equal magnitudes the one at larger t is least
    mag = np.abs(factors)
    mid = mag[:, 1:-1]
    least = (mid < mag[:, :-2]) & (mid <= mag[:, 2:])
    kw, iw = np.nonzero(least & quiet[:-1] & quiet[1:])
    near = iw + np.arange(-1, 4)[:, None]
    inside = (near >= 0) & (near < ts.size)
    near = np.minimum(np.maximum(near, 0), ts.size - 1)
    y5 = np.where(inside, factors[kw, near], np.nan)
    # on a near-uniform grid the parabola's vertex lies at most S/4 beyond
    # the middle value and its cubic term is at most 4 S/3, S the largest
    # difference from the middle value over the five points: no pair hides
    # where |y| at the middle exceeds 5 S
    low = np.abs(y5[2]) < 5.0 * np.fmax.reduce(np.abs(y5 - y5[2]), axis=0)
    if not low.any():
        return brackets, np.empty((2, 3, 0))
    x5, y5 = np.where(inside, ts[near], np.nan)[:, low], y5[:, low]
    hides = _hides_pair(x5, y5)
    return brackets, np.stack([x5[1:4, hides], y5[1:4, hides]])


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
    check_coupling(Z)
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

    config is the t window, default_scan_config(Z, n_levels) when None; the
    master grid over it follows from the closer's reach (see _GRID_RATIO),
    with at least _LEAST_GRID_POINTS points. f maps a 1-D float array of t
    to a LogScaledValue with factors; it is called on the master grid, on
    each pass that refines it in the extremum windows, and on each lock-step
    closer step, and only its factors are read. Every extremum window where
    a pair of one factor's roots may hide is resolved on the grid first;
    then every sign change of a factor on the grid is closed on that factor,
    and the closer makes the record of each root, a grid point where a
    factor is zero included (_close_brackets). Returns every root found in
    the window, in descending t (ascending energy) order; callers slice the
    leading n_levels levels after doublet expansion. Warns with
    LevelShortfallWarning when the window yields fewer levels than
    requested, which for this operator family indicates levels lost to
    complex conjugate pairs rather than a scan failure. Raises ValueError on
    a value without factors, and before evaluating or allocating anything
    when the master grid would take more than _MAX_GRID_POINTS points.
    """
    cfg = config if config is not None else default_scan_config(Z, n_levels)
    s_lo = Z / (2.0 * cfg.t_max)
    s_hi = Z / (2.0 * cfg.t_min)
    # geometric in s up to _GRID_STEP / _GRID_RATIO, uniform above it
    s_mid = min(max(_GRID_STEP / _GRID_RATIO, s_lo), s_hi)
    n_geo = math.log(s_mid / s_lo) / math.log1p(_GRID_RATIO)
    n_lin = (s_hi - s_mid) / _GRID_STEP  # inf where s_hi overflows
    points = n_geo + n_lin + 1.0
    if points <= _MAX_GRID_POINTS:
        n_geo, n_lin = math.ceil(n_geo), math.ceil(n_lin)
        split = max(1, -(-(_LEAST_GRID_POINTS - 1) // (n_geo + n_lin)))
        n_geo, n_lin = split * n_geo, split * n_lin
        points = n_geo + n_lin + 1
    if not points <= _MAX_GRID_POINTS:
        raise ValueError(
            f"the master grid for t from {cfg.t_min:.6g} to {cfg.t_max:.6g} at "
            f"Z={Z!r} would take {points:.4g} points, more than the "
            f"{_MAX_GRID_POINTS} allowed; set a larger t_min (--t-min) or "
            f"request fewer levels (--levels)"
        )
    ratio = math.log(s_mid / s_lo) / max(n_geo, 1)
    s = np.concatenate(
        [s_lo * np.exp(ratio * np.arange(n_geo)), np.linspace(s_mid, s_hi, n_lin + 1)]
    )
    ts = Z / (2.0 * s[::-1])
    factors, counts = _evaluate(f, ts)
    brackets, windows = _brackets_and_windows(ts, (factors, counts))
    # refine the grid in each extremum window until none is left: a pass
    # adds the stencil around the vertex of the window's parabola, clipped
    # into the window, for at most bisection's step count over the widest
    # window, and stops early when it adds no point
    W = windows[0]
    passes = np.ceil(np.log2((W[2] - W[0]) / (_T_TOL * W[0]))) + _ITP_N0
    for _ in range(int(passes.max(initial=0))):
        W, YW = windows
        x = _vertex(W, YW)[0][:, None] + (0.5 * _T_TOL * W[0])[:, None] * _STENCIL
        new = np.setdiff1d(np.clip(x, W[0][:, None], W[2][:, None]), ts)
        if not new.size:
            break
        ts = np.concatenate([ts, new])
        order = np.argsort(ts)
        ts = ts[order]
        factors = np.concatenate([factors, _evaluate(f, new)[0]], axis=1)[:, order]
        brackets, windows = _brackets_and_windows(ts, (factors, counts))
        if not windows.size:
            break
    records = _merge_close(_close_brackets(f, brackets))
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

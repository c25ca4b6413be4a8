"""Root location for log-scaled secular functions of t.

The secular callable f takes a 1-D float array of t and returns a
LogScaledValue whose sign and logmag are arrays of the same length, with
its real factors and, where the closure has one, its analytic form. Root
finding reads only these, and rejects a value without factors, so a
closure that computes its sign and logmag on first read never computes
them here; scan_secular reads the value itself. Every stage evaluates
whole arrays: the master grid (in chunks
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
closer's reach (see _GRID_RATIO). A factor's sign has one rule, value < 0
or not, in the scan and in the closer alike: a computed 0 counts as
positive, so every root is the closing of a sign-change bracket, and a
factor that is 0 at a grid or stencil point is closed onto that point.
Where a factor keeps its sign across three grid points but its least
magnitude there lies within five times the factor's largest change over
its five neighbouring points, so near zero that a pair of its roots may
hide in between, the window scan (_windows) flags an extremum window;
each factor is read alone, whatever the others do there. find_roots
refines the grid before making any bracket: each pass adds the closer's
stencil around the vertex of each window's parabola (_vertex) and runs
the window scan on the merged grid again, until no window is left; a
pair it shows is two ordinary sign changes, and more than a pair per
window is rounding noise near an exceptional point, an error. The
brackets and their first estimates are then built once, on the final
grid (_brackets). Each bracket is closed on its own
factor to a relative width of _T_TOL by Chandrupatla's inverse quadratic
interpolation under ITP's projection, in at most one step more than
bisection would take; each step evaluates a geometric stencil around the estimate, so an
accurate estimate on either side of the root closes most of the bracket at
once. All brackets are closed in lock step. The first step starts from the
scan's first estimate of each root (estimate.first_estimates): t
interpolated as a polynomial in the factor's value through the _FIT_POINTS
grid points around the bracket, or, where the value carries an analytic
form, the root of that form's interpolant through the same points; a
bracket without either starts at its midpoint. On every M = 1 solve at Z
in [0.05, 4], at M = 8 and 32 at Z = 1, and on the twisted closure at 18
levels from Z = 0.0513 to 2.780 and at Z = 1 up to 100 levels, the
estimate lands within the stencil's innermost step of every root, so that
one step closes every bracket. Each root is one record, which stands for
as many levels as its factor's count, however near a root of another
factor lies; two neighbouring roots of one factor whose closed brackets
touch are rounding noise near an exceptional point, an error.

A level count below the requested one is a physical signal, not a
numerical fault: the missing levels have no real root in the window, as
happens when PT symmetry breaks spontaneously and levels merge into
complex conjugate pairs. find_roots emits a LevelShortfallWarning for it.
"""

import math
import warnings
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import LevelShortfallWarning, SecularEvaluationError
from .estimate import first_estimates
from .potential import _Frozen, _set, check_coupling

# Most points of a master grid, checked before it is allocated, and of a
# scan_secular table: the default window of up to about 80000 levels at any
# Z, or t_min down to about 6.5e-6 at Z = 1. Just below it, a solve peaked at
# 478 MB RSS (explicit, four factors, 2.2 s on one core; 287 MB at M = 1)
_MAX_GRID_POINTS = 2**22
# Least points of a master grid: a derived grid with fewer has each of its
# intervals split evenly until it has at least this many. Of the default
# windows it binds only on those of 1-3 levels at Z from about 0.5 to 44
# (186-253 derived points at Z = 1-17.9), whose printed roots rest on it.
# It also saves calls: without it the solves of tools/records_digest.py
# take 2182 calls instead of 2149, most of the difference from 1-3-level
# solves at M = 3, 8 and 32 and Z from 4 to 20, 3 calls instead of 2
_LEAST_GRID_POINTS = 256
# Most t values handed to the secular callable in one call, which bounds its
# temporaries: a few dozen doubles per point for the closed forms. 8192
# takes the whole master grid of a default window up to about 150 levels
# (about 1100 points at 18, 5400 at 100) in one call; against 1024 it raised
# the peak RSS of a solve by at most 0.3 MB (explicit, 100 levels, on a
# uniform master grid of step 5e-3), and the benchmark's peak_rss_mb by
# 0.3-0.9 MB (+0.5% to +1.4%). Smaller chunks do not cure the allocator's
# churn that secular_explicit's working set caused (see README,
# "Performance"): at 2048, before that set shrank, a 100-level solve still
# took 78 of its 172 minor page faults, the 50- and 100-level solves took 3
# and 4 calls instead of 2, and a ladder solve got slower (least time 1.007
# of 8192's, tools/solve_ab.py --interleave, 20 s).
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
# Indices in the row of the next step's x1, x2 and x3, per column j, the
# first point without x1's sign: j, j - 1 and j + 1 for a new bracket below
# the estimate (j <= _CENTRE), j - 1, j and j - 2 above it
_J = np.arange(_STENCIL.size + 2)
_NEXT = _J + np.where(_J <= _CENTRE, [[0], [-1], [1]], [[-1], [0], [-2]])
# Offsets from a sign change's lower grid index of its lo and hi
_AROUND = np.array([0, 1])[:, None]
# Reach of the stencil around a closer estimate, relative to t: an estimate
# off the root by less than this closes most of the bracket at once
_REACH = float(_STENCIL[-1]) * _T_TOL / 2
# Master grid in s. Through points h apart on a factor that varies on a
# length l, the secant errs by about h^2 / (8 l) and the quadratic by about
# h^3 / l^2, and the spacings are those at which each lands within _REACH of
# the root. Near the ground state, s ~ sqrt(Z/2), a factor varies on the
# scale of s itself (l = s), and the secant's bound sets a geometric grid of
# ratio 1 + _GRID_RATIO, 2% apart. Above s = _GRID_STEP / _GRID_RATIO (0.92)
# a factor varies on the scale of its roots, which lie no closer than about
# pi/2 in s (the free ring's level spacing at circumference 4), l = 1/2, and
# the quadratic sets the uniform step _GRID_STEP (0.018). The closer's first
# estimate, through _FIT_POINTS grid points, would land within reach on a
# wider grid too, but a wider grid moves the last bits of the roots, and
# with them the printed delta1 of doublet partners. Two roots of one factor
# that meet at an exceptional point lie closer than that; the extremum
# windows catch them.
_GRID_RATIO = math.sqrt(8.0 * _REACH)
_GRID_STEP = 0.5 * _REACH ** (1.0 / 3.0)
# Least bracket_width reported for a closed bracket, in ulps of its t: the
# sign of a computed value is rounding noise within a few ulps of its root
_WIDTH_FLOOR_ULPS = 8


class ScanConfig(_Frozen):
    """The t window of find_roots and scan_secular, t_min < t_max, both
    positive and t_max finite; each sizes its own grid over it."""

    __slots__ = ("t_min", "t_max")

    def __init__(self, t_min: float, t_max: float) -> None:
        if not t_min > 0:
            raise ValueError(
                f"t_min must be positive, got {t_min!r}; "
                f"set a positive t_min (--t-min)"
            )
        if not math.isfinite(t_max):
            raise ValueError(
                f"t_max must be finite, got {t_max!r}; "
                f"set a finite t_max (--t-max)"
            )
        if not t_min < t_max:
            raise ValueError(
                f"need t_min < t_max, got [{t_min!r}, {t_max!r}]; "
                f"set t_min (--t-min) below t_max (--t-max)"
            )
        _set(self, "t_min", t_min)
        _set(self, "t_max", t_max)


class RootRecord(NamedTuple):
    """One located root of one factor of the secular function.

    t is the end of the final bracket where |factor| is smaller, and
    residual_logmag is log|factor| there (-inf where the factor is 0 at t);
    bracket_width is the final bracket's width, which holds the root, and
    at least _WIDTH_FLOOR_ULPS ulps of t, never 0.
    unresolved_doublet=True means the record stands for two levels: its
    factor has count 2. factor is the index of that factor among the
    value's factors (see LogScaledValue).
    """

    t: float
    residual_logmag: float
    bracket_width: float
    unresolved_doublet: bool
    factor: int


def _chunks(f: Callable[[np.ndarray], object], ts: np.ndarray):
    """(i, n, f(ts[i : i + n])) for i = 0, _EVAL_CHUNK, ... over the 1-D
    array ts, n the chunk's size, at most _EVAL_CHUNK. An error raised by f
    is wrapped in SecularEvaluationError, carrying the cause's own t when it
    has one and the chunk's first t otherwise."""
    for i in range(0, ts.size, _EVAL_CHUNK):
        chunk = ts[i : i + _EVAL_CHUNK]
        try:
            v = f(chunk)
        except SecularEvaluationError:
            raise
        except Exception as e:
            t = getattr(e, "t", None)
            raise SecularEvaluationError(float(chunk[0]) if t is None else t, e) from e
        yield i, chunk.size, v


def _per_t(arrays: list, n: int) -> np.ndarray:
    """arrays, parts of a secular value on a chunk of n t, as the rows of one
    float array. Raises ValueError unless each is 1-D with one entry per t,
    as the secular callable's contract requires; a callable that returns
    one value per call, or one too few, is caught here."""
    if any(np.shape(a) != (n,) for a in arrays):
        raise ValueError(
            f"a secular callable must return sign, logmag and every factor with "
            f"one entry per t, {n} here, but gave shapes {list(map(np.shape, arrays))}"
        )
    return np.array(arrays, dtype=float)


def _evaluate(
    f: Callable[[np.ndarray], object], ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The factors of f over the 1-D array ts, chunk by chunk (_chunks), as
    one row per factor, then its analytic form as one more row where the
    value carries one, and the factors' counts; the sign and log-magnitude
    of the value are not read. Raises ValueError on a value without
    factors, with a factor of another length than its chunk (_per_t), or
    with a NaN factor value, which has no sign to bracket a root with.
    """
    rows = []
    for _, n, v in _chunks(f, ts):
        if not v.factors:
            raise ValueError(
                "root finding needs a secular value with factors; "
                "LogScaledValue.from_float(x) carries x as its one factor"
            )
        analytic = [] if v.analytic is None else [v.analytic]
        rows.append(_per_t([y for y, _ in v.factors] + analytic, n))
    factors = rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)
    if np.isnan(factors.min()):  # min propagates NaN
        k, i = np.argwhere(np.isnan(factors))[0]
        raise ValueError(f"secular factor {k} is NaN at t={ts[i]}, so it has no sign")
    return factors, np.array([c for _, c in v.factors])


def scan_secular(
    f: Callable[[np.ndarray], object], config: ScanConfig, samples: int = 256
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulate sign and log-magnitude of f itself at samples points evenly
    spaced in t over the window, both ends included, calling f chunk by
    chunk as root finding does (_chunks). Returns the arrays t (float),
    sign (int) and logmag (float), each of length samples. Raises
    ValueError before evaluating or allocating anything when samples is
    below 16 or above _MAX_GRID_POINTS, and on a chunk whose sign or
    logmag has another length than the chunk (_per_t)."""
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
    for i, n, v in _chunks(f, ts):
        signs[i : i + n], logmags[i : i + n] = _per_t([v.sign, v.logmag], n)
    return ts, signs, logmags


def _itp_project(xt, m, w, budget):
    """ITP's projection of the estimates xt of brackets of midpoints m and
    widths w: an estimate within r = max(budget - w/2, 0) of its midpoint as
    it is, any other moved to distance r from the midpoint toward it.

    Where budget >= w, r >= w/2, and an estimate of _close_brackets, which
    lies in its bracket at least epsilon = _T_TOL lo0 / 2 (some hundred
    ulps) from either end, is within r of the midpoint: the projection
    returns it unchanged, so the closer skips it on a step where every
    budget is at least its width.
    """
    r, d = np.maximum(budget - 0.5 * w, 0.0), m - xt
    return np.where(np.abs(d) <= r, xt, m - np.sign(d) * r)


def _vertex(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per column of x and y, three points in ascending x: the abscissa of
    the vertex of the parabola through them, the middle point where it is
    not finite, as on flat or straight values. x is taken relative to the
    middle point, which keeps the divided differences finite at any t."""
    u = x / x[1] - 1.0
    with np.errstate(all="ignore"):
        d1 = (y[1:] - y[:-1]) / (u[1:] - u[:-1])
        uv = 0.5 * u[0] - 0.5 * d1[0] / ((d1[1] - d1[0]) / (u[2] - u[0]))
    return x[1] * (1.0 + np.where(np.isfinite(uv), uv, 0.0))


def _close_brackets(
    f: Callable[[np.ndarray], object], brackets: tuple
) -> list[RootRecord]:
    """Close every bracket in lock step and make one record of each.

    brackets is what _brackets found on a grid: per bracket, as
    columns of (2, n) arrays, the ends x1 and x2 and the factor's values
    there, then the first estimate q, the index of the factor of f's value
    whose root it holds and whether that factor counts twice. Each bracket
    has ends x1 = lo < x2 = hi, where its factor's values are one negative
    and one not (a 0 counts as positive), and q its first estimate as a
    fraction of the way from x1 to x2, strictly between 0 and 1, or NaN for
    none. find_roots has resolved every extremum window on its grid before
    this, so a pair of roots it found is two ordinary brackets here.

    The first step's estimate x is the first estimate, or the midpoint
    where there is none. Each later step's is Chandrupatla's (Adv. Eng.
    Softw. 28 (1997) 145): inverse quadratic interpolation over the end
    nearer the last estimate, the other end and the next point beyond the
    nearer end of its sign, taken where his test accepts it and the
    midpoint otherwise. It is clipped to at least epsilon = _T_TOL lo0 / 2
    from the nearer end, so that a converged estimate steps across the
    root, and then projected as in ITP (Oliveira & Takahashi, ACM TOMS
    47(1), 2020) with n0 = 1 (_itp_project), except on a step where every
    open bracket's budget is at least its width, where the projection would
    keep every estimate: 86 of the 1347 steps of the 766 solves of
    tools/records_digest.py that the window admits project, and none of the
    M = 1 solves at Z in [0.05, 4]. The step evaluates the stencil
    x + epsilon {0, +-1, +-1e3, +-1e6, +-1e9}, clipped into the bracket,
    and takes its sign change as
    the new bracket, so an estimate off the root by e < 1e9 epsilon, on
    either side, leaves a bracket at most about 1e3 e wide (epsilon for
    e < epsilon), and a first estimate within epsilon of the root closes
    the bracket on the first step. The stencil only shrinks the bracket
    ITP's point alone would leave: at most ceil(log2((hi0 - lo0) / (_T_TOL
    lo0))) + 1 steps, one more than bisection needs to reach width _T_TOL
    lo0. Steps are taken while the width exceeds _T_TOL times the upper end
    and lo < mid < hi holds; a stencil point with value 0 counts as
    positive, as in the scan, so it ends a bracket and is never one alone.
    One step evaluates the stencils of all open brackets in one call.
    When all have closed, each record's t is its final end of smaller
    |factor|, whose log is the residual (-inf where that is 0), its width
    the final width but at least _WIDTH_FLOOR_ULPS ulps, and its factor the
    bracket's; where all close on one step and none before, the final ends
    are taken as they are, without a gather.

    The working arrays hold the open brackets only: a bracket leaves them
    once, when it closes, with its final ends, and each step writes its
    rows into buffers allocated once, so a step on which every bracket is
    open gathers and scatters nothing. That is the one step of each M = 1
    solve at Z in [0.05, 4] (24 of 24 over 24 couplings), of the M = 8
    and 32 solves at Z = 1, and of the explicit closure's at Z = 1 and 18,
    50 and 100 levels. On the 13 brackets of an M = 1 solve
    at Z = 0.3 the closer's own numpy work, its set-up and records
    included, is about 92 us for its one step, besides its secular call
    (one core of a shared 2-vCPU host, numpy 2.4, least of 300 runs).
    """
    # per open bracket: the rows of X are the end x1 nearer the last
    # estimate, the other end x2 and, after the first step, the next point
    # x3 beyond x1 of x1's sign, the rows of Y the factor's values there, q
    # the estimate as a fraction of the way from x1 to x2 (NaN for the
    # midpoint), a and b the lesser and greater end, k its factor and at its
    # column in brackets; closed holds each closed bracket's x1, x2, their
    # values, its width and its midpoint
    X, Y, q, k, double = brackets
    if not k.size:
        return []
    a, b = X
    # ITP's projection radius plus half the width for the first step,
    # (epsilon - ulp) 2^n_max for n_max = ceil(log2((b - a) / (2 epsilon)))
    # + _ITP_N0 steps: rounding of mid and x adds up to one ulp to a width
    # held at its budget, and an ulp less keeps n_max steps enough
    eps = 0.5 * _T_TOL * a
    n_max = np.ceil(np.log2((b - a) / (2.0 * eps))) + _ITP_N0
    budget = (eps - np.spacing(b)) * 2.0**n_max
    at = cols = np.arange(k.size)
    closed = np.empty((6, k.size))
    # the row x1, stencil, x2 of each open bracket and the values there
    rows = np.empty((2, k.size, _STENCIL.size + 2))
    col = (slice(None), None)  # a per-bracket array as a column
    first = True
    while True:
        w, m = b - a, 0.5 * (a + b)
        go = (w > _T_TOL * b) & (a < m) & (m < b)
        n = np.count_nonzero(go)  # open brackets
        if n < at.size:
            if n or at is not cols:  # else all close now, none before
                closed[:, at[~go]] = np.concatenate([X[:2], Y[:2], [w, m]])[:, ~go]
            if not n:
                break
            X, Y, q, k, eps, budget, at, a, b, w, m = (
                e[..., go] for e in (X, Y, q, k, eps, budget, at, a, b, w, m)
            )
        x1, x2, y1, y2 = X[0], X[1], Y[0], Y[1]
        dx = x2 - x1
        if first:  # the first estimate, where _brackets found one
            iqi, first = np.isfinite(q), False
        else:
            # inverse quadratic interpolation where Chandrupatla's test
            # accepts it, else the midpoint; the values at x1 and x3 share a
            # sign, the value at x2 has the other, and the interpolant is the
            # same at any scale
            x3, y3 = X[2], Y[2]
            with np.errstate(all="ignore"):
                d21, d23 = y2 - y1, y2 - y3
                xi, phi = dx / (x2 - x3), d21 / d23
                q = y1 / d23 * (y3 / d21 - (x3 - x1) / dx * y2 / (y3 - y1))
                iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(q)
        # clip: at least epsilon from the nearer end toward the other end
        q_min = eps / w
        xt = np.where(iqi, x1 + np.minimum(np.maximum(q, q_min), 1.0 - q_min) * dx, m)
        x = xt if (budget >= w).all() else _itp_project(xt, m, w, budget)
        # the row x1, stencil, x2 per bracket: the stencil runs from x1
        # toward x2 and is clipped into the bracket, so the row is sorted; a
        # point clipped onto an end takes that end's value
        brk, (xs, ys) = cols[:n], rows[:, :n]
        stencil = xs[:, 1:-1]
        np.add(x[col], np.copysign(eps, dx)[col] * _STENCIL, out=stencil)
        np.maximum(stencil, a[col], out=stencil)
        np.minimum(stencil, b[col], out=stencil)
        xs[:, 0], xs[:, -1] = x1, x2
        values = _evaluate(f, stencil.ravel())[0]
        ys[:, 1:-1] = values.reshape(values.shape[0], n, -1)[k, brk]
        ys[:, 0], ys[:, -1] = y1, y2
        # the new bracket (row[j - 1], row[j]) at the row's first point j
        # without x1's sign, a value of 0 counting as positive; its end
        # nearer the estimate row[_CENTRE] becomes x1, the next point beyond
        # that end x3 (of x1's sign, unless rounding noise flips a sign
        # inside the stencil)
        keep = ((ys < 0.0) == (y1 < 0.0)[col]) & (xs != x2[col])
        j = np.argmin(keep, axis=1)
        X, Y = rows[:, brk, _NEXT[:, j]]
        a, b = np.minimum(X[0], X[1]), np.maximum(X[0], X[1])
        budget *= 0.5
    x1, x2, y1, y2, w, m = (*X[:2], *Y[:2], w, m) if at is cols else closed
    nearer = np.abs(y1) <= np.abs(y2)
    t = np.where(nearer, x1, x2)
    with np.errstate(divide="ignore"):  # a computed 0 at t: -inf
        residual = np.log(np.abs(np.where(nearer, y1, y2)))
    width = np.maximum(w, _WIDTH_FLOOR_ULPS * np.spacing(m))
    # each record is built from its fields in C, not by RootRecord's
    # generated __new__, as levels are (see spectrum)
    fields = zip(
        t.tolist(), residual.tolist(), width.tolist(), double.tolist(),
        brackets[3].tolist(),
    )
    return list(map(tuple.__new__, [RootRecord] * t.size, fields))


def _windows(ts: np.ndarray, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sign changes of the factors on the ascending grid ts, and its
    extremum windows.

    factors holds one row per factor, its values on ts. A factor changes
    sign between neighbours where one value is negative and the other not
    (a 0 counts as positive); the sign changes are a boolean array with a
    row per factor and a column per grid interval. An extremum window is
    three neighbouring grid points where one factor keeps its sign and is
    least in magnitude at the middle one, below five times its largest
    difference from the middle value over the five points around it (the
    three and their outer neighbours, the end point in place of one beyond
    the grid), so close to zero that it may hide a pair of that factor's
    roots. Each factor is read alone: a least magnitude beside a sign
    change of its own is that root's, which a bracket holds, but one beside
    another factor's root may still hide a pair of its own. The windows are
    an array of shape (3, m): per window, its lower grid point, the vertex
    of the parabola through its three points (_vertex) and its upper grid
    point.
    """
    negative = factors < 0.0
    change = negative[:, :-1] != negative[:, 1:]
    # five points around each least |factor|, indices clamped into the grid;
    # of equal magnitudes the one at larger t is least
    mag = np.abs(factors)
    mid = mag[:, 1:-1]
    least = (mid < mag[:, :-2]) & (mid <= mag[:, 2:])
    kw, iw = divmod(np.flatnonzero(least), ts.size - 2)
    near = np.minimum(np.maximum(iw + np.arange(-1, 4)[:, None], 0), ts.size - 1)
    y5 = factors[kw, near]
    # S is the largest difference from the middle value over the five points,
    # which a repeated end point cannot move. On a near-uniform grid the
    # parabola through the middle three reaches at most S/4 beyond the middle
    # value, and its error, the cubic term, is at most 4 S/3: a pair may hide
    # only where |y| at the middle is below 5 S, which holds the parabola's
    # reach and three times its error
    low = np.abs(y5[2]) < 5.0 * np.abs(y5 - y5[2]).max(axis=0)
    low &= ~(change[kw, iw] | change[kw, iw + 1])  # its own sign kept
    if not low.any():
        return change, np.empty((3, 0))
    x3 = ts[near[1:4, low]]
    return change, np.stack([x3[0], _vertex(x3, y5[1:4, low]), x3[2]])


def _brackets(ts: np.ndarray, scan: tuple, change: np.ndarray, Z: float) -> tuple:
    """The brackets of the ascending grid ts, the argument of
    _close_brackets.

    scan is what _evaluate returns on ts: one row per factor, then the
    analytic form's row where the value carries one, and the factors'
    counts; change is its sign changes as _windows gives them, and Z the
    coupling of s = Z/(2t). Each sign change of a factor between
    neighbours is a bracket, and gets its first estimate from
    estimate.first_estimates, NaN for none.
    """
    factors, counts = scan
    factors, analytic = factors[: counts.size], factors[counts.size :]
    # factor by factor in ascending i, as np.nonzero would give them
    k, i = divmod(np.flatnonzero(change), ts.size - 1)
    lohi = i + _AROUND
    X, Y = ts[lohi], factors[k, lohi]
    q = first_estimates(ts, factors, analytic, Z, X, Y, k, i, 0.5 * _T_TOL)
    return X, Y, q, k, counts[k] == 2


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
        raise ValueError(f"levels must be at least 1, got {n_levels!r}")
    check_coupling(Z)
    e_max = 1.5 * (math.pi * (n_levels + 2) / 4.0) ** 2
    t_max_given = t_max is not None
    if t_max is None:
        t_max = 5.0 * max(1.0, math.sqrt(Z))
    if t_min is None:
        t_min = Z / (2.0 * math.sqrt(e_max))
        if t_max_given:  # a bad given t_max is named before the default floor
            if t_max <= t_min:
                raise ValueError(
                    f"need t_min < t_max, got [{t_min!r}, {t_max!r}], where "
                    f"t_min is the default for {n_levels} levels at Z={Z!r}; "
                    f"set a larger t_max (--t-max) or a smaller t_min (--t-min)"
                )
            ScanConfig(t_min=t_min, t_max=t_max)
        s = Z / (2.0 * t_min)
        e_top = s * s - t_min * t_min  # -inf, not OverflowError, at huge Z
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
    a pair of one factor's roots may hide is resolved on the grid first,
    each pass refining around the vertex its window scan fitted (_windows);
    then every sign change of a factor on the final grid is a bracket with
    its first estimate (_brackets), closed on that factor, and the closer
    makes the record of each root (_close_brackets). Returns every root
    found in the window, in descending t (ascending energy) order, and by
    ascending factor at equal t; callers slice the leading n_levels levels
    after doublet expansion. Warns with
    LevelShortfallWarning when the window yields fewer levels than
    requested, which for this operator family indicates levels lost to
    complex conjugate pairs rather than a scan failure. Raises
    ValueError on a value without factors or with a NaN factor value; when
    a refinement pass finds more than two sign changes per extremum window
    of the master grid, where a pair lies within rounding noise of an
    exceptional point and its factor's sign is noise; when two neighbouring
    roots of one factor touch, each within bracket_width of its t, which is
    rounding noise near an exceptional point too; and before
    evaluating or allocating anything when s = Z/(2 t_max) underflows to 0
    or the master grid would take more than _MAX_GRID_POINTS points.
    """
    cfg = config or default_scan_config(Z, n_levels)
    s_lo = Z / (2.0 * cfg.t_max)
    s_hi = Z / (2.0 * cfg.t_min)
    if s_lo == 0.0:
        raise ValueError(
            f"s = Z/(2 t_max) underflows to 0 at Z={Z!r} and t_max={cfg.t_max!r}; "
            f"set a smaller t_max (--t-max)"
        )
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
    # the uniform part as np.linspace(s_mid, s_hi, n_lin + 1) computes it,
    # arange * step + start with the last point set to stop, the same bits
    # without its Python-level set-up (n_lin = 0 only where s_mid = s_hi):
    # np.linspace took the find_roots stage 9.6 us more per pt-sweep solve
    # (331.0 -> 340.6 us) and 12.3 us per ladder solve (tools/solve_ab.py
    # --interleave, as for _cell_trace's unit width in secular.py)
    lin = np.arange(n_lin + 1.0) * ((s_hi - s_mid) / max(n_lin, 1)) + s_mid
    lin[-1] = s_hi
    s = np.concatenate([s_lo * np.exp(ratio * np.arange(n_geo)), lin])
    ts = Z / (2.0 * s[::-1])
    del s, lin  # the solve keeps only ts: its peak working set (see secular_explicit)
    factors, counts = _evaluate(f, ts)
    change, W = _windows(ts, factors[: counts.size])
    # refine the grid in each extremum window (lo, vertex, hi) until none is
    # left: a pass adds the stencil around the vertex, clipped into the
    # window, for at most bisection's step count over the widest window, and
    # stops early when it adds no point. Points added between two grid
    # points keep the parity of each factor's sign changes between them, so
    # a pass adds an even number of sign changes, and one pair of roots is
    # two: more than two per window of the master scan are sign flips of
    # rounding noise. The brackets are built once, on the final grid
    most = np.count_nonzero(change) + 2 * W.shape[1]
    passes = W.size and _ITP_N0 + int(
        np.ceil(np.log2((W[2] - W[0]) / (_T_TOL * W[0]))).max()
    )
    for _ in range(passes):
        lo, vertex, hi = W[:, :, None]
        new = np.setdiff1d(np.clip(vertex + 0.5 * _T_TOL * lo * _STENCIL, lo, hi), ts)
        if not new.size:
            break
        ts = np.concatenate([ts, new])
        order = np.argsort(ts)
        ts = ts[order]
        factors = np.concatenate([factors, _evaluate(f, new)[0]], axis=1)[:, order]
        change, W = _windows(ts, factors[: counts.size])
        if np.count_nonzero(change) > most:
            raise ValueError(
                f"at Z={Z!r} a pair lies within rounding noise of an exceptional point:"
                f" refining the grid found more sign changes than its windows hold"
            )
        if not W.size:
            break
    # the records come factor by factor, each factor's in ascending t; the
    # sort is stable, so records of one t keep their ascending factors
    records = _close_brackets(f, _brackets(ts, (factors, counts), change, Z))
    for (t0, _, w0, _, k0), (t1, _, w1, _, k1) in zip(records, records[1:]):
        if k0 == k1 and t1 - t0 <= w0 + w1:
            raise ValueError(
                f"at Z={Z!r} two roots of factor {k0} at t={t0!r} and {t1!r} touch,"
                f" rounding noise near an exceptional point"
            )
    records.sort(key=itemgetter(0), reverse=True)

    found = level_count(records)
    if found < n_levels:
        e_top = s_hi * s_hi - cfg.t_min * cfg.t_min
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

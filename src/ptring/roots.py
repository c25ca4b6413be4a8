"""Root location for log-scaled secular functions of t.

The secular callable f takes a 1-D float array of t and returns a
LogScaledValue whose sign and logmag are arrays of the same length, with
its real factors (a value without factors is its own single factor). Root
finding reads only the factors of a value that has them, so a closure that
computes its sign and logmag on first read never computes them here;
scan_secular reads the value itself. Every stage evaluates whole arrays:
the master grid (in chunks of at most _EVAL_CHUNK points, one chunk at 18
levels) and one step of every open bracket together. Each secular call
costs a fixed overhead far above its per-point cost, so a solve's time
follows its number of calls, and each closer step spends a few points per
bracket to save calls.

Every real root of the value is a simple root of exactly one factor, and
the roots of one factor lie far apart. So the spectrum is the set of sign
changes of the factors on a master grid that is uniform in s = Z/(2t) (so
the energy resolution is roughly uniform), with its first interval split
geometrically in t where it spans a ratio above 2. Each bracket is closed
on its own factor to a relative width of t_tol by Chandrupatla's inverse
quadratic interpolation under ITP's projection, in at most one step more
than bisection would take; each step evaluates a geometric stencil around
the estimate, so an accurate estimate on either side of the root closes
most of the bracket at once. All brackets are closed in lock step,
starting from the values the scan found at their ends and at the grid
point beyond each lower end, so that the first step already interpolates.
A root stands for as many levels as its factor's count; two roots whose
closed brackets overlap, so that the closer cannot order them, merge into
one record standing for two. For a value without factors, a pair of real
roots closer than the grid spacing is not found.

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
# Most t values handed to the secular callable in one call, which bounds its
# temporaries: a few dozen doubles per point for the closed forms, a few
# complex 2x2 matrices per point for the propagator product. 8192 takes the
# whole master grid of an 18-level solve (about 3800-5900 points) in one
# call; against 1024 it raised the peak RSS of a solve by at most 0.3 MB
# (explicit, 100 levels), and the benchmark's peak_rss_mb by 0.3-0.9 MB
# (+0.5% to +1.4%).
_EVAL_CHUNK = 8192
# Spare steps of ITP's projection over bisection's count
_ITP_N0 = 1
# Offsets of the points one closer step evaluates around its estimate, in
# units of epsilon = t_tol lo0 / 2, and the estimate's index in the row
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
    """Scan window, least sample count and closing tolerance for find_roots
    and scan_secular."""

    t_min: float
    t_max: float
    initial_samples: int = 256
    t_tol: float = 1e-13

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
        if not self.t_tol > 0:
            raise ValueError("t_tol must be positive")


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
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, np.ndarray]:
    """f over the 1-D array ts, chunk by chunk: its factors as one row per
    factor and their counts, as (None, None, factors, counts); a value
    without factors is its own single factor, (signs, logmags, None, [1]).
    The sign and log-magnitude of a value with factors are not read.

    An error raised by f is wrapped in SecularEvaluationError, carrying the
    cause's own t when it has one and the chunk's first t otherwise.
    """
    signs = logmags = factors = None
    counts = np.ones(1, dtype=int)
    for i in range(0, ts.size, _EVAL_CHUNK):
        chunk = ts[i : i + _EVAL_CHUNK]
        at = slice(i, i + chunk.size)
        v = _call(f, chunk)
        if v.factors:
            if factors is None:
                factors = np.empty((len(v.factors), ts.size))
                counts = np.array([c for _, c in v.factors])
            for row, (y, _) in zip(factors, v.factors):
                row[at] = y
        else:
            if signs is None:
                signs, logmags = np.empty(ts.size, dtype=int), np.empty(ts.size)
            signs[at] = v.sign
            logmags[at] = v.logmag
    return signs, logmags, factors, counts


def _call(f: Callable[[np.ndarray], object], ts: np.ndarray):
    """f(ts), an error it raises wrapped as _evaluate describes."""
    try:
        return f(ts)
    except SecularEvaluationError:
        raise
    except Exception as e:
        t = getattr(e, "t", None)
        raise SecularEvaluationError(float(ts[0]) if t is None else t, e) from e


def _pick(scan: tuple, k: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log-magnitude of factor k at point idx of an _evaluate
    result, k and idx broadcast together; the value's own for a value
    without factors."""
    signs, logmags, factors, _ = scan
    if factors is None:
        return signs[idx], logmags[idx]
    y = factors[k, idx]
    with np.errstate(divide="ignore"):  # an exact root: -inf
        return np.sign(y), np.log(np.abs(y))


def _bracket_ends(
    scan: tuple,
    i_lo: np.ndarray,
    i_hi: np.ndarray,
    k: np.ndarray,
    ts: np.ndarray | None = None,
):
    """The ends argument of _close_brackets for brackets between points
    i_lo and i_hi of an _evaluate result, each closed on its factor k.

    With the grid ts the result was evaluated on, each bracket is seeded
    with the grid point just beyond lo, where that point exists and has
    lo's sign of the factor; otherwise, and without ts, it has no seed, and
    lo stands in for the seed's log-magnitude.
    """
    seed, i_seed = np.full(k.size, np.nan), i_lo
    if ts is not None:
        beyond = 2 * i_lo - i_hi
        i_seed = np.minimum(np.maximum(beyond, 0), ts.size - 1)
    signs, logmags = _pick(scan, k, np.array([i_lo, i_hi, i_seed]))
    if ts is not None:
        found = (i_seed == beyond) & (signs[2] == signs[0])
        seed[found] = ts[i_seed[found]]
    return k, scan[3][k] == 2, signs[:2], seed, logmags


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
    f: Callable[[np.ndarray], object],
    brackets: Sequence[tuple[float, float]] | np.ndarray,
    t_tol: float,
    ends: tuple | None = None,
) -> list[RootRecord]:
    """Close every sign-change bracket in lock step, one record each.

    Each bracket is closed on one factor of f's value (see find_roots).
    brackets is a sequence of (lo, hi) pairs or an (n, 2) array of them.
    ends, when given, holds what the scan found per bracket: the index of
    its factor, whether that factor counts twice, the factor's signs at the
    bracket ends as an array of shape (2, n) with a lo row and a hi row, a
    seed point beyond lo of lo's sign (NaN for none), and the factor's
    log-magnitudes at lo, hi and the seed as an array of shape (3, n).
    Without it the ends are evaluated first, each bracket takes the first
    factor that is zero at an end or changes sign across it, and no bracket
    is seeded.

    Each step's estimate x is Chandrupatla's (Adv. Eng. Softw. 28 (1997)
    145): inverse quadratic interpolation over the end nearer the last
    estimate, the other end and the next point beyond the nearer end of its
    sign (the seed at first), taken where his test accepts it and the
    midpoint otherwise (as at the first step of an unseeded bracket). It is
    clipped to at least epsilon = t_tol lo0 / 2 from the nearer end, so
    that a converged estimate steps across the root, and then projected as
    in ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with n0 = 1. The
    step evaluates the stencil x + epsilon {0, +-1, +-1e3, +-1e6, +-1e9},
    clipped into the bracket, and takes its sign change as the new bracket,
    so an estimate off the root by e < 1e9 epsilon, on either side, leaves
    a bracket at most about 1e3 e wide (epsilon for e < epsilon). The
    stencil only shrinks the bracket ITP's point alone would leave: at most
    ceil(log2((hi0 - lo0) / (t_tol lo0))) + 1 steps, one more than
    bisection needs to reach width t_tol lo0. An endpoint with sign 0 is
    the root; otherwise steps are taken while the width exceeds t_tol times
    the upper end and lo < mid < hi holds, a point with sign 0 closes the
    bracket on it, and the record's t is the final end of smaller
    |factor|, whose log-magnitude is the residual. One step evaluates the
    stencils of all open brackets in one call. Raises ValueError unless
    0 < lo < hi and the end signs of the bracket's factor differ.
    """
    if not len(brackets):
        return []
    lo, hi = np.array(brackets, dtype=float).reshape(-1, 2).T
    bad = ~((0 < lo) & (lo < hi))
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"need 0 < lo < hi, got ({float(lo[i])!r}, {float(hi[i])!r})")
    n = lo.size
    if ends is None:
        scan = _evaluate(f, np.concatenate([lo, hi]))
        k = np.zeros(n, dtype=int)
        if scan[2] is not None:
            y_lo, y_hi = scan[2][:, :n], scan[2][:, n:]
            k = np.argmax(np.sign(y_lo) * np.sign(y_hi) <= 0, axis=0)
        ends = _bracket_ends(scan, np.arange(n), np.arange(n, 2 * n), k)
    factor, double, (sign_lo, sign_hi), seed, logmags = ends
    exact_lo = sign_lo == 0
    open_ = ~exact_lo & (sign_hi != 0)
    same = open_ & (sign_lo == sign_hi)
    if same.any():
        i = np.argmax(same)
        raise ValueError(
            f"no sign change across bracket {(float(lo[i]), float(hi[i]))!r}; "
            f"both ends have sign {int(sign_lo[i])}"
        )
    # an exact root is its own bracket, and its residual that end's value
    t = np.where(exact_lo, lo, hi)
    width = np.zeros(n)
    residual = np.where(exact_lo, logmags[0], logmags[1])
    # per open bracket i: the rows of X are the end x1 nearer the last
    # estimate (of sign s1), the other end x2 and the next point x3 beyond
    # x1 of x1's sign (NaN for none), the rows of L their log-magnitudes,
    # and k is its factor
    i = np.flatnonzero(open_)
    X, L = np.array([lo, hi, seed])[:, i], logmags[:, i]
    s1, k = sign_lo[i], factor[i]
    eps = 0.5 * t_tol * X[0]
    n_max = np.ceil(np.log2((X[1] - X[0]) / (2.0 * eps))) + _ITP_N0
    # ITP's projection radius plus half the width, (eps - ulp) 2^(n_max - j)
    # at step j: rounding of mid and x adds up to one ulp to a width held at
    # its budget, and an ulp less keeps n_max steps enough
    budget = (eps - np.spacing(X[1])) * 2.0**n_max
    while i.size:
        x1, x2, x3 = X
        a, b = np.minimum(x1, x2), np.maximum(x1, x2)
        w, m = b - a, 0.5 * (a + b)
        go = (w > t_tol * b) & (a < m) & (m < b)
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
        scan = _evaluate(f, stencil.ravel())
        points = np.arange(stencil.size).reshape(stencil.shape)
        signs, logmags = _pick(scan, k[col], points)
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
    f: Callable[[np.ndarray], object],
    bracket: tuple[float, float],
    t_tol: float = 1e-13,
) -> RootRecord:
    """Close a sign-change bracket down to relative width t_tol.

    The one-bracket case of the lock-step closer find_roots runs, with no
    grid point to seed it; it evaluates its own bracket ends and closes on
    the first factor that changes sign across the bracket or vanishes at an
    end (an exact root). Raises ValueError when there is none.
    """
    return _close_brackets(f, [bracket], t_tol)[0]


def _brackets_and_exacts(
    ts: np.ndarray, scan: tuple
) -> tuple[np.ndarray, tuple, list[RootRecord]]:
    """Sign-change brackets of each factor between neighbours of the grid ts
    as an (n, 2) array of (lo, hi) rows, their ends argument of
    _close_brackets, and exact roots: points where a factor is zero, each a
    root of the first such factor."""
    signs, _, factors, counts = scan
    y = signs[None, :] if factors is None else factors
    neg, pos, zero = y < 0, y > 0, y == 0
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
    brackets = np.stack([ts[i_lo], ts[i_hi]], axis=1)
    return brackets, _bracket_ends(scan, i_lo, i_hi, k, ts), exacts


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

    f maps a 1-D float array of t to a LogScaledValue of sign and logmag
    arrays, optionally with factors; it is called on the master grid and on
    each lock-step closer step, and the sign and logmag of a value with
    factors are not read. Every sign change of a factor on the grid is
    closed on that factor. Returns every root found
    in the window, in descending t (ascending energy) order; callers slice
    the leading n_levels levels after doublet expansion. Warns with
    LevelShortfallWarning when the window yields fewer levels than
    requested, which for this operator family indicates levels lost to
    complex conjugate pairs rather than a scan failure.
    """
    cfg = config if config is not None else default_scan_config(Z, n_levels)
    s_lo = Z / (2.0 * cfg.t_max)
    s_hi = Z / (2.0 * cfg.t_min)
    n = max(cfg.initial_samples, math.ceil((s_hi - s_lo) / _MASTER_DS) + 1)
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
    records += _close_brackets(f, brackets, cfg.t_tol, ends)

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

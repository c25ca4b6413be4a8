"""Root location for log-scaled secular functions of t.

The secular callable f takes a 1-D float array of t and returns a
LogScaledValue whose sign and logmag are arrays of the same length. Every
stage evaluates whole arrays: the master grid (in chunks of at most
_EVAL_CHUNK points, one chunk at 18 levels), all bump windows of one
refinement depth together, and one step of every open bracket together.
Each secular call costs a fixed overhead far above its per-point cost, so
a solve's time follows its number of calls.

Every stage works on the reduced value r = g / u, where g is f's value and
u its double_factor (u = 1 when the value carries none, so r = g). r has a
simple root at every root of u, where g has a double one; a root counts
twice exactly when u changes sign across its closed bracket or vanishes
there.

The spectrum is found on a master grid that is uniform in s = Z/(2t) (so the
energy resolution is roughly uniform), with two detection channels:

- sign changes of the secular value, closed to a relative width of t_tol
  by Chandrupatla's inverse quadratic interpolation under ITP's projection,
  in at most one step more than bisection would take; all brackets are
  closed in lock step, starting from the values the scans found at their
  ends;
- "bumps": deep dips of log|F| with no sign change, which arise either from
  a doublet of real roots closer than the grid spacing or from a complex
  conjugate pair of roots sitting just off the real t axis.

Bump windows are re-scanned at 16x resolution per refinement depth and must
re-qualify each time (the dip must stay at least bump_drop below its
flanking crests). Real doublets sharpen under magnification until they
split into two sign changes; complex-pair dips flatten and are discarded.
A dip still qualifying at the depth limit is reported once with
unresolved_doublet=True and counts as two levels.

A level count below the requested one after all this is a physical signal,
not a numerical fault: the missing levels have no real root in the window,
as happens when PT symmetry breaks spontaneously and levels merge into
complex conjugate pairs. find_roots emits a LevelShortfallWarning for it.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Master-scan resolution in s; chosen so that every doublet of the target
# family either straddles a grid point or dips well below bump_drop.
_MASTER_DS = 5e-3
_WINDOW_SAMPLES = 64
_MERGE_TOL = 1e-12
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
    """Scan window and refinement knobs for find_roots and scan_secular."""

    t_min: float
    t_max: float
    initial_samples: int = 256
    max_refine_depth: int = 4
    t_tol: float = 1e-13
    bump_drop: float = 3.0

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
        if self.max_refine_depth < 0:
            raise ValueError("max_refine_depth must be non-negative")
        if not self.t_tol > 0:
            raise ValueError("t_tol must be positive")
        if not self.bump_drop > 0:
            raise ValueError("bump_drop must be positive")


@dataclass(frozen=True, slots=True)
class ScanSample:
    """One point of a scan_secular table; slots keep a long table small."""

    t: float
    sign: int
    logmag: float


@dataclass(frozen=True)
class RootRecord:
    """One located root (or root pair) of the secular function.

    bracket_width is the final uncertainty interval; residual_logmag is
    log|r| at the reported t, r the reduced value (see find_roots).
    detection is "sign_change" or "bump". unresolved_doublet=True means
    the record stands for two levels: a bump that never split, two sign
    changes closer than bracket resolution, or an exact degeneracy (a root
    of the value's double factor).
    """

    t: float
    residual_logmag: float
    bracket_width: float
    detection: str
    unresolved_doublet: bool = False


@dataclass(frozen=True)
class BumpWindow:
    """A qualifying no-crossing dip: re-scan [t_lo, t_hi] to resolve it."""

    t_lo: float
    t_hi: float
    min_t: float
    min_logmag: float
    drop: float


def _evaluate(
    f: Callable[[np.ndarray], object], ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signs and log-magnitudes of f over the 1-D array ts, chunk by chunk,
    then those of its double factor (None when no chunk's value carries
    one; sign 1 and logmag 0 in a chunk without one).

    An error raised by f is wrapped in SecularEvaluationError, carrying the
    cause's own t when it has one and the chunk's first t otherwise.
    """
    signs = np.empty(ts.size, dtype=int)
    logmags = np.empty(ts.size)
    u_signs = u_logmags = None
    for i in range(0, ts.size, _EVAL_CHUNK):
        chunk = ts[i : i + _EVAL_CHUNK]
        try:
            v = f(chunk)
        except SecularEvaluationError:
            raise
        except Exception as e:
            t = getattr(e, "t", None)
            raise SecularEvaluationError(
                float(chunk[0]) if t is None else t, e
            ) from e
        signs[i : i + chunk.size] = v.sign
        logmags[i : i + chunk.size] = v.logmag
        u = v.double_factor
        if u is not None:
            if u_signs is None:
                u_signs, u_logmags = np.ones(ts.size, dtype=int), np.zeros(ts.size)
            u_signs[i : i + chunk.size] = u.sign
            u_logmags[i : i + chunk.size] = u.logmag
    return signs, logmags, u_signs, u_logmags


def _reduced(
    f: Callable[[np.ndarray], object], ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign and log-magnitude of r = g / u over ts, and the sign of u, for g
    the value of f and u its double factor (u = 1 without one, so r = g).

    r has a simple root at each root of u; an exact zero of u is one of r.
    """
    signs, logmags, u_signs, u_logmags = _evaluate(f, ts)
    if u_signs is None:
        return signs, logmags, np.ones(signs.size, dtype=int)
    r_logmags = np.full(ts.size, -np.inf)
    np.subtract(logmags, u_logmags, out=r_logmags, where=u_signs != 0)
    return signs * u_signs, r_logmags, u_signs


def scan_secular(
    f: Callable[[np.ndarray], object], config: ScanConfig
) -> list[ScanSample]:
    """Tabulate sign and log-magnitude of f itself on a uniform t grid over
    the window."""
    ts = np.linspace(config.t_min, config.t_max, config.initial_samples)
    signs, logmags, _, _ = _evaluate(f, ts)
    return list(map(ScanSample, ts.tolist(), signs.tolist(), logmags.tolist()))


def _close_brackets(
    f: Callable[[np.ndarray], object],
    brackets: Sequence[tuple[float, float]],
    t_tol: float,
    ends: np.ndarray | None = None,
) -> list[RootRecord]:
    """Close every sign-change bracket in lock step, one record each.

    ends, when given, holds the reduced values at the bracket ends, as an
    array of shape (3, 2, n): rows sign, logmag and sign of u, each with a
    lo row and a hi row; without it the ends are evaluated first.

    Each step point is Chandrupatla's (Adv. Eng. Softw. 28 (1997) 145):
    inverse quadratic interpolation over the newest point, the opposite
    bracket end and the point before them, taken where his test accepts it
    and the midpoint otherwise (the first step, with no point before, is
    the midpoint). It is clipped to at least epsilon = t_tol lo0 / 2 from
    the newest point, so that a converged estimate steps across the root
    and closes the bracket, and then projected as in ITP (Oliveira &
    Takahashi, ACM TOMS 47(1), 2020) with n0 = 1: at most
    ceil(log2((hi0 - lo0) / (t_tol lo0))) + 1 steps, one more than
    bisection needs to reach width t_tol lo0. An endpoint with sign 0 is
    the root; otherwise points are taken while the width exceeds t_tol
    times the upper end and lo < mid < hi holds, a point with sign 0
    closes the bracket on it, and the residual is evaluated at the final
    midpoint. One step evaluates one point of every open bracket in one
    call. Raises ValueError unless 0 < lo < hi and the end signs differ.
    """
    if not brackets:
        return []
    pairs = [(float(a), float(b)) for a, b in brackets]
    for a, b in pairs:
        if not 0 < a < b:
            raise ValueError(f"need 0 < lo < hi, got ({a!r}, {b!r})")
    lo, hi = np.array(pairs).T
    n = lo.size
    if ends is None:
        ends = np.reshape(_reduced(f, np.concatenate([lo, hi])), (3, 2, n))
    # sign, logmag and sign of u, each with a lo row and a hi row
    (sign_lo, sign_hi), (logmag_lo, logmag_hi), (u_lo, u_hi) = np.asarray(
        ends, dtype=float
    )
    exact_lo = sign_lo == 0
    exact_hi = ~exact_lo & (sign_hi == 0)
    same = ~exact_lo & ~exact_hi & (sign_lo == sign_hi)
    if same.any():
        i = int(np.flatnonzero(same)[0])
        raise ValueError(
            f"no sign change across bracket {pairs[i]!r}; "
            f"both ends have sign {int(sign_lo[i])}"
        )
    # an exact root is its own bracket, and its residual that end's value
    t = np.where(exact_lo, lo, hi)
    width = np.zeros(n)
    doublet = np.where(exact_lo, u_lo, u_hi) == 0
    residual = np.where(exact_lo, logmag_lo, logmag_hi)
    closed = np.flatnonzero(~exact_lo & ~exact_hi)
    # per open bracket i: the newest point x1 (of sign s1), the opposite
    # end x2, the point before them x3 (the one x1 replaced, of sign s1 too;
    # NaN before the first step), their log-magnitudes and u signs
    i = closed
    x1, x2, x3 = lo[i], hi[i], np.full(i.size, np.nan)
    l1, l2, l3 = logmag_lo[i], logmag_hi[i], logmag_lo[i]
    u1, u2, s1 = u_lo[i], u_hi[i], sign_lo[i]
    eps = 0.5 * t_tol * x1
    n_max = np.ceil(np.log2((x2 - x1) / (2.0 * eps))) + _ITP_N0
    # ITP's projection radius plus half the width, (eps - ulp) 2^(n_max - j)
    # at step j: rounding of mid and x adds up to one ulp to a width held at
    # its budget, and an ulp less keeps n_max steps enough
    budget = (eps - np.spacing(x2)) * 2.0**n_max
    while i.size:
        a, b = np.minimum(x1, x2), np.maximum(x1, x2)
        w, m = b - a, 0.5 * (a + b)
        go = (w > t_tol * b) & (a < m) & (m < b)
        if not go.all():
            # record the brackets that closed and drop them from the arrays
            k = ~go
            t[i[k]] = m[k]
            width[i[k]] = np.where(
                w[k] > 0, np.maximum(w[k], _WIDTH_FLOOR_ULPS * np.spacing(m[k])), 0.0
            )
            # a root of u (two levels) where u changes sign across the bracket
            doublet[i[k]] = u1[k] * u2[k] <= 0
            state = (i, x1, x2, x3, l1, l2, l3, u1, u2, s1, eps, budget, w, m)
            i, x1, x2, x3, l1, l2, l3, u1, u2, s1, eps, budget, w, m = (
                v[go] for v in state
            )
            if not i.size:
                break
        # inverse quadratic interpolation on the values normalized by the
        # largest of the three, where Chandrupatla's test accepts it; the
        # values carry the sign s1 (-s1 at x2), which changes neither
        top = np.maximum(np.maximum(l1, l2), l3)
        y1, y2, y3 = np.exp(l1 - top), -np.exp(l2 - top), np.exp(l3 - top)
        dx = x2 - x1
        with np.errstate(all="ignore"):
            d21, d23 = y2 - y1, y2 - y3
            xi, phi = dx / (x2 - x3), d21 / d23
            q = y1 / d23 * (y3 / d21 - (x3 - x1) / dx * y2 / (y3 - y1))
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(q)
        # clip: at least epsilon from the newest point toward the opposite end
        q_min = eps / w
        xt = np.where(iqi, x1 + np.clip(q, q_min, 1.0 - q_min) * dx, m)
        # project: keep it within r of the midpoint
        r = np.maximum(budget - 0.5 * w, 0.0)
        d = m - xt
        x = np.where(np.abs(d) <= r, xt, m - np.sign(d) * r)
        signs, logmags, us = _reduced(f, x)
        # x replaces the point of its sign, and becomes the newest; a root
        # (sign 0) closes its bracket on itself
        near = signs == s1
        x3, l3 = np.where(near, x1, x2), np.where(near, l1, l2)
        zero = signs == 0
        x2 = np.where(near, x2, np.where(zero, x, x1))
        l2 = np.where(near, l2, l1)
        u2 = np.where(near, u2, np.where(zero, us, u1))
        x1, l1, u1, s1 = x, logmags, us, signs
        budget *= 0.5
    residual[closed] = _reduced(f, t[closed])[1]
    return [
        RootRecord(
            t=ti,
            residual_logmag=ri,
            bracket_width=wi,
            detection="sign_change",
            unresolved_doublet=di,
        )
        for ti, ri, wi, di in zip(
            t.tolist(), residual.tolist(), width.tolist(), doublet.tolist()
        )
    ]


def bisect(
    f: Callable[[np.ndarray], object],
    bracket: tuple[float, float],
    t_tol: float = 1e-13,
) -> RootRecord:
    """Close a sign-change bracket down to relative width t_tol.

    The one-bracket case of the lock-step closer find_roots runs; it
    evaluates its own bracket ends.
    Raises ValueError unless the secular signs at the bracket ends differ
    (an endpoint with sign 0 is accepted as an exact root).
    """
    return _close_brackets(f, [bracket], t_tol)[0]


def detect_bumps(
    ts: np.ndarray, signs: np.ndarray, logmags: np.ndarray, config: ScanConfig
) -> list[BumpWindow]:
    """Find dips of log|F| that qualify for bump refinement.

    ts, signs and logmags are 1-D arrays of one scan. A sample is a dip when
    it is a local minimum of logmag lying at least bump_drop below both
    nearest flanking crests (grid ends count as crests), with a single sign
    throughout. The returned window spans two samples to each side of the
    minimum.
    """
    lm = logmags
    n = lm.size
    if n < 3:
        return []
    i = np.flatnonzero((lm[1:-1] < lm[:-2]) & (lm[1:-1] <= lm[2:])) + 1
    # each crest is the first sample, walking outward from the minimum,
    # whose outward neighbour is lower, or the grid end
    left = np.flatnonzero(np.r_[True, lm[:-1] < lm[1:]])
    right = np.flatnonzero(np.r_[lm[1:] < lm[:-1], True])
    crest_lo = left[np.searchsorted(left, i, side="right") - 1]
    crest_hi = right[np.searchsorted(right, i)]
    # a zero plateau reaching the grid end gives -inf - -inf; its sign-0
    # minimum fails the sign test below
    with np.errstate(invalid="ignore"):
        drop = np.minimum(lm[crest_lo], lm[crest_hi]) - lm[i]
    lo_i, hi_i = np.maximum(i - 2, 0), np.minimum(i + 2, n - 1)
    a, b = np.minimum(crest_lo, lo_i), np.maximum(crest_hi, hi_i)
    changes = np.r_[0, np.cumsum(signs[1:] != signs[:-1])]
    keep = ~(drop < config.bump_drop) & (changes[a] == changes[b]) & (signs[i] != 0)
    i, drop, lo_i, hi_i = i[keep], drop[keep], lo_i[keep], hi_i[keep]
    return [
        BumpWindow(t_lo=t_lo, t_hi=t_hi, min_t=t, min_logmag=m, drop=d)
        for t_lo, t_hi, t, m, d in zip(
            np.minimum(ts[lo_i], ts[hi_i]).tolist(),
            np.maximum(ts[lo_i], ts[hi_i]).tolist(),
            ts[i].tolist(),
            lm[i].tolist(),
            drop.tolist(),
        )
    ]


def _brackets_and_exacts(
    ts: np.ndarray, signs: np.ndarray, logmags: np.ndarray, u_signs: np.ndarray
) -> tuple[list[tuple[float, float]], np.ndarray, list[RootRecord]]:
    """Sign-change brackets between neighbours, the scan's values at their
    ends (the ends argument of _close_brackets), and exact (sign 0) roots;
    an exact root where u is zero too stands for two levels."""
    i = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    i_lo = np.where(ts[i] < ts[i + 1], i, i + 1)
    ends = np.array([i_lo, 2 * i + 1 - i_lo])
    zero = signs == 0
    exacts = [
        RootRecord(
            t=t,
            residual_logmag=lm,
            bracket_width=0.0,
            detection="sign_change",
            unresolved_doublet=u == 0,
        )
        for t, lm, u in zip(
            ts[zero].tolist(), logmags[zero].tolist(), u_signs[zero].tolist()
        )
    ]
    brackets = list(zip(ts[ends[0]].tolist(), ts[ends[1]].tolist()))
    return brackets, np.array([signs[ends], logmags[ends], u_signs[ends]]), exacts


def _refine_bumps(
    f: Callable[[np.ndarray], object],
    windows: list[BumpWindow],
    config: ScanConfig,
) -> tuple[list[tuple[float, float]], np.ndarray, list[RootRecord]]:
    """Re-scan bump windows a depth at a time; resolve, recurse, report, or discard.

    All windows of one depth are evaluated in one call. A window whose
    re-scan shows sign changes hands its brackets, with the re-scan's
    values at their ends, on to be closed. Otherwise its dip must
    re-qualify under detect_bumps: a dip that flattened out is a complex
    pair and is dropped; one that persists is re-scanned at the next depth,
    or reported as an unresolved doublet at the depth limit.
    """
    brackets: list[tuple[float, float]] = []
    ends = [np.empty((3, 2, 0))]
    records: list[RootRecord] = []
    depth = 1
    while windows:
        grids = [np.linspace(w.t_lo, w.t_hi, _WINDOW_SAMPLES) for w in windows]
        signs, logmags, us = _reduced(f, np.concatenate(grids))
        nested = []
        for j, grid in enumerate(grids):
            part = slice(j * _WINDOW_SAMPLES, (j + 1) * _WINDOW_SAMPLES)
            brs, brs_ends, exacts = _brackets_and_exacts(
                grid, signs[part], logmags[part], us[part]
            )
            if brs or exacts:
                brackets += brs
                ends.append(brs_ends)
                records += exacts
                continue
            for w in detect_bumps(grid, signs[part], logmags[part], config):
                if depth < config.max_refine_depth:
                    nested.append(w)
                    continue
                records.append(
                    RootRecord(
                        t=w.min_t,
                        residual_logmag=w.min_logmag,
                        bracket_width=w.t_hi - w.t_lo,
                        detection="bump",
                        unresolved_doublet=True,
                    )
                )
        windows = nested
        depth += 1
    return brackets, np.concatenate(ends, axis=2), records


def _merge_close(records: list[RootRecord]) -> list[RootRecord]:
    """Collapse root pairs closer than the float resolution of bracket closing.

    Two distinct records within _MERGE_TOL of each other are one doublet
    whose splitting is below achievable resolution; they merge into a
    single unresolved_doublet record.
    """
    records = sorted(records, key=lambda r: r.t)
    out: list[RootRecord] = []
    for r in records:
        if out and abs(r.t - out[-1].t) < _MERGE_TOL:
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
                    detection="sign_change",
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
    sits far above the ground state of any coupling up to Z.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be at least 1, got {n_levels!r}")
    if not Z > 0:
        raise ValueError(f"Z must be positive, got {Z!r}")
    e_max = 1.5 * (math.pi * (n_levels + 2) / 4.0) ** 2
    if t_max is None:
        t_max = 5.0 * max(1.0, math.sqrt(Z))
    if t_min is None:
        t_min = Z / (2.0 * math.sqrt(e_max))
    return ScanConfig(t_min=t_min, t_max=t_max)


def find_roots(
    f: Callable[[np.ndarray], object],
    Z: float,
    n_levels: int,
    config: ScanConfig | None = None,
) -> list[RootRecord]:
    """Locate the real secular roots covering the lowest n_levels levels.

    f maps a 1-D float array of t to a LogScaledValue of sign and logmag
    arrays, optionally with a double factor u; it is called on the master
    grid, on each refinement depth's windows, on each lock-step closer
    step and on the residuals, and every stage works on r = g / u. Returns
    every root found in the window, in descending t (ascending energy)
    order; callers slice the leading n_levels levels after doublet
    expansion. Warns with LevelShortfallWarning when the window yields
    fewer levels than requested, which for this operator family indicates
    levels lost to complex conjugate pairs rather than a scan failure.
    """
    cfg = config if config is not None else default_scan_config(Z, n_levels)
    s_lo = Z / (2.0 * cfg.t_max)
    s_hi = Z / (2.0 * cfg.t_min)
    n = max(cfg.initial_samples, math.ceil((s_hi - s_lo) / _MASTER_DS) + 1)
    ts = Z / (2.0 * np.linspace(s_lo, s_hi, n))
    signs, logmags, us = _reduced(f, ts)
    brackets, ends, records = _brackets_and_exacts(ts, signs, logmags, us)
    windows = detect_bumps(ts, signs, logmags, cfg)
    refined_brackets, refined_ends, refined = _refine_bumps(f, windows, cfg)
    # every bracket, from the master grid and from refinement, in one lock
    # step, starting from the values their scans found at their ends
    records += refined + _close_brackets(
        f,
        brackets + refined_brackets,
        cfg.t_tol,
        np.concatenate([ends, refined_ends], axis=2),
    )

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

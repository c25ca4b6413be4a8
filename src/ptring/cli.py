"""Command-line front end: spectra, secular scans, potential shapes, tables.

Exit codes: 0 success, 1 usage or domain error, 2 partial results (fewer
real levels found than requested). Each run solves one closure, chosen by
--backend; main reports every error a command raises as one "error:" line.
Every command solves square wells, whose secular functions are closed
forms; PT_CIRCLE_TOL, which acts on the propagator product of other
layouts only, has no effect here.
"""

import argparse
import math
import sys
import warnings

from .potential import build_square_well
from .roots import (
    LevelShortfallWarning,
    ScanConfig,
    SecularEvaluationError,
    default_scan_config,
    find_roots,
    scan_secular,
)
from .secular import (
    FREE_LIMIT_Z,
    SecularRealityError,
    secular_explicit,
    secular_monodromy,
)
from .serialize import (
    analysis_to_csv,
    parse_spectrum_json,
    potential_to_csv,
    potential_to_json,
    scan_to_csv,
    spectrum_to_csv,
    spectrum_to_json,
)
from .spectrum import analyze_series, energies_from_roots


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for partial results."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _check_backend_m(backend: str, M: int) -> None:
    if backend == "explicit" and M != 1:
        raise ValueError(f"{backend} backend requires M=1")


def _secular_fn(backend: str, pot, Z: float):
    if backend == "explicit":
        return lambda t: secular_explicit(Z, t)
    return lambda t: secular_monodromy(pot, Z, t)


def cmd_spectrum(args) -> int:
    _check_backend_m(args.backend, args.M)
    if args.levels < 1:
        raise ValueError(f"levels must be at least 1, got {args.levels!r}")
    pot = build_square_well(args.M, args.Z)
    cfg = default_scan_config(args.Z, args.levels, t_min=args.t_min, t_max=args.t_max)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = find_roots(
            _secular_fn(args.backend, pot, args.Z), args.Z, args.levels, cfg
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    if not records:
        raise ValueError("no roots found in the scan window")
    report = analyze_series(energies_from_roots(records, args.Z)[: args.levels])
    if args.format == "json":
        text = spectrum_to_json(
            report.levels, report.delta1, args.Z, args.M, args.backend
        )
    else:
        text = spectrum_to_csv(report.levels, report.delta1)
    _write_output(text, args.output)
    return 2 if len(report.levels) < args.levels else 0


def cmd_scan(args) -> int:
    _check_backend_m(args.backend, args.M)
    pot = build_square_well(args.M, args.Z)
    cfg = ScanConfig(t_min=args.t_min, t_max=args.t_max, initial_samples=args.samples)
    samples = scan_secular(_secular_fn(args.backend, pot, args.Z), cfg)
    _write_output(scan_to_csv(samples), args.output)
    return 0


def cmd_potential(args) -> int:
    pot = build_square_well(args.M, args.Z)
    if args.format == "json":
        text = potential_to_json(pot)
    else:
        text = potential_to_csv(pot, args.samples)
    _write_output(text, args.output)
    return 0


def cmd_analyze(args) -> int:
    if args.input is None or args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    doc = parse_spectrum_json(text)
    report = analyze_series(doc.levels)
    if len(doc.levels) < 10:
        print(
            f"notice: only {len(doc.levels)} levels; "
            f"higher-difference tables are truncated",
            file=sys.stderr,
        )
    _write_output(analysis_to_csv(report), args.output)
    return 0


def cmd_validate(args) -> int:
    """The free-particle limit: at Z <= FREE_LIMIT_Z the five lowest levels
    of the strictly periodic M=1 problem are {0, (pi/2)^2 x2, pi^2 x2}."""
    if args.Z > FREE_LIMIT_Z:
        raise ValueError(
            f"validate checks the free-particle limit, "
            f"which needs Z <= {FREE_LIMIT_Z:g}"
        )
    pot = build_square_well(1, args.Z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(_secular_fn("monodromy", pot, args.Z), args.Z, 5)
    levels = energies_from_roots(recs, args.Z)[:5]
    if len(levels) < 5:
        print(f"free-limit spectrum: FAIL (found {len(levels)} of 5 levels)")
        return 1
    quarter = math.pi * math.pi / 4.0
    expected = [0.0, quarter, quarter, 4.0 * quarter, 4.0 * quarter]
    worst = max(abs(l.E - e) for l, e in zip(levels, expected))
    verdict = "ok" if worst <= 1e-3 else "FAIL"
    print(f"free-limit spectrum: {verdict} (worst deviation {worst:.3e})")
    return 0 if worst <= 1e-3 else 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ptring",
        description=(
            "Real eigenvalue spectrum of a PT-symmetric, purely imaginary, "
            "piecewise-constant potential on a circle of circumference 4."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_backend(sp):
        sp.add_argument(
            "--backend",
            choices=("monodromy", "explicit"),
            default="monodromy",
            help="secular backend (explicit requires M=1)",
        )

    sp = sub.add_parser("spectrum", help="compute the lowest energy levels")
    sp.add_argument("--Z", type=float, required=True, help="imaginary well amplitude")
    sp.add_argument("--M", type=int, default=1, help="periods (4M segments)")
    sp.add_argument("--levels", type=int, default=18, help="level count to report")
    add_backend(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--t-min", type=float, default=None, dest="t_min")
    sp.add_argument("--t-max", type=float, default=None, dest="t_max")
    sp.add_argument("--output", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_spectrum)

    sc = sub.add_parser("scan", help="tabulate sign and log|F| over a t window")
    sc.add_argument("--Z", type=float, required=True)
    sc.add_argument("--M", type=int, default=1)
    sc.add_argument("--t-min", type=float, default=0.03, dest="t_min")
    sc.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    sc.add_argument("--samples", type=int, default=512)
    add_backend(sc)
    sc.add_argument("--output", default=None)
    sc.set_defaults(func=cmd_scan)

    po = sub.add_parser("potential", help="emit the potential shape")
    po.add_argument("--Z", type=float, required=True)
    po.add_argument("--M", type=int, default=1)
    po.add_argument("--samples", type=int, default=400)
    po.add_argument("--format", choices=("csv", "json"), default="csv")
    po.add_argument("--output", default=None)
    po.set_defaults(func=cmd_potential)

    an = sub.add_parser("analyze", help="difference tables from a spectrum JSON")
    an.add_argument("--input", default=None, help="spectrum JSON path (default stdin)")
    an.add_argument("--output", default=None)
    an.set_defaults(func=cmd_analyze)

    va = sub.add_parser("validate", help="free-particle limit check (Z <= 1e-3)")
    va.add_argument("--Z", type=float, required=True)
    va.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (OSError, ValueError, SecularRealityError, SecularEvaluationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload of the ptring benchmark and prints its measurements.

bench/run.py starts this in a fresh interpreter from the repository root,
with PYTHONPATH=src and BLAS/OpenMP threads pinned to 1:

    python bench/worker.py --workload ladder --seed 1 --seconds 15 --trace 0

Every solve and every CLI command is an operation whose output is checked.
The last line of stdout is one JSON object: the operations attempted and
failed, one finding per failed check, and the metrics of the run (the
end-to-end ones untraced and in nominal seconds, the per-layer ones with
--trace 1). The metric definitions are in bench/README.md.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import warnings
from collections import defaultdict
from dataclasses import dataclass, replace
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import numpy as np

import ptring.cli
import ptring.roots
import ptring.secular
from ptring import (
    LevelShortfallWarning,
    SpectralPoint,
    analysis_to_csv,
    analyze_series,
    build_square_well,
    energies_from_roots,
    find_roots,
    fmt_float,
    parse_spectrum_csv,
    parse_spectrum_json,
    secular_explicit,
    secular_monodromy,
    spectrum_to_csv,
    spectrum_to_json,
)

from speed import SpeedSampler, pin_to_one_core
from tracing import Tracer, subtree

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
with open(os.path.join(HERE, "reference.json")) as _fh:
    REF = json.load(_fh)

# E against a recorded table: relative, as the criterion-1 gate states it
E_RTOL = 1e-4
E0_PIN_ATOL = 5e-6
# 2st = Z and E = s^2 - t^2 on in-process levels, and on levels parsed back
# from 12-significant-digit output
IDENTITY_RTOL = 1e-12
PARSED_IDENTITY_RTOL = 1e-10
# a printed value against the library's own value for the same input
PRINTED_RTOL = 1e-9
CLI_TIMEOUT_S = 120.0
SETUP_PROBES = 7
REPRESENTATIVE_RUNS = 6
# cli_s on cli sums five per-command medians; fewer than five samples of
# each left its spread over ten runs near 0.09 of the median
CLI_MIN_ROUNDS = 5

WORKLOADS = ("ladder", "multicell", "pt-sweep", "cli")
# ladder: explicit backend, Z=1, M=1, at three level counts
LADDER_LEVELS = (18, 50, 100)
# multicell: monodromy backend, Z=1, 18 levels, at two cell counts
MULTICELL_M = (8, 32)
# pt-sweep: monodromy backend, M=1, 18 requested levels, Z drawn per seed.
# One coupling per equal stratum of the range keeps the mix of cheap (large
# Z) and dear (small Z) solves the same from seed to seed.
SWEEP_Z_RANGE = (0.05, 4.0)
SWEEP_STRATA = 16
SWEEP_EXPECTED_LEVELS = 13


def sweep_couplings(seed: int) -> list[float]:
    """One Z per equal stratum of SWEEP_Z_RANGE, drawn from the seed."""
    rng = random.Random(f"pt-sweep/{seed}")
    lo, hi = SWEEP_Z_RANGE
    width = (hi - lo) / SWEEP_STRATA
    return [lo + (k + rng.random()) * width for k in range(SWEEP_STRATA)]


class Ledger:
    """Operations attempted and failed, with one finding per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.findings.append(f"{label}: " + "; ".join(problems))


# ---------------------------------------------------------------- checks


def check_levels(levels, Z, table=None, count=None, pins=False, rtol=IDENTITY_RTOL):
    """Count, ascending E, the (s, t) identities, and E against a table."""
    want = len(table) if table is not None else count
    if len(levels) != want:
        return [f"{len(levels)} levels, want {want}"]
    problems = []
    es = [lvl.E for lvl in levels]
    if any(b < a for a, b in zip(es, es[1:])):
        problems.append("E not ascending")
    for lvl in levels:
        if abs(2.0 * lvl.s * lvl.t - Z) > rtol * Z:
            problems.append(f"2st != Z at n={lvl.n}")
        if abs(lvl.E - (lvl.s**2 - lvl.t**2)) > rtol * (lvl.s**2 + lvl.t**2):
            problems.append(f"E != s^2 - t^2 at n={lvl.n}")
    for tab in [table] + ([REF["criterion1_E"]] if pins else []):
        if tab is None:
            continue
        bad = [n for n, (e, r) in enumerate(zip(es, tab)) if abs(e - r) > E_RTOL * abs(r)]
        if bad:
            problems.append(f"E off the table at n={bad}")
    if pins and abs(es[0] - REF["criterion1_E"][0]) > E0_PIN_ATOL:
        problems.append(f"E_0 = {es[0]!r} misses its pin")
    return problems


def check_reemit(text: str) -> list[str]:
    """Every float cell of a CSV text must re-emit to the same bytes."""
    for line in text.splitlines():
        for cell in line.split(","):
            try:
                x = float(cell)
            except ValueError:
                continue
            if "e" in cell and fmt_float(x) != cell:
                return [f"cell {cell!r} does not re-emit identically"]
    return []


def spectrum_csv_check(Z, table=None, count=None, pins=False, shortfall=False):
    """Checker for `spectrum` CSV on stdout, compared by value.

    shortfall: the command must report its missing levels on stderr.
    """

    def check(stdout, stderr):
        doc = parse_spectrum_csv(stdout)
        problems = check_levels(doc.levels, Z, table, count, pins, PARSED_IDENTITY_RTOL)
        if spectrum_to_csv(doc.levels, doc.delta1) != stdout:
            problems.append("CSV does not re-emit byte-identically")
        if shortfall and "warning:" not in stderr:
            problems.append("no shortfall warning on stderr")
        return problems

    return check


def spectrum_json_check(path, table, pins):
    def check(stdout, stderr):
        with open(path) as fh:
            text = fh.read()
        doc = parse_spectrum_json(text)
        problems = check_levels(doc.levels, 1.0, table, None, pins, PARSED_IDENTITY_RTOL)
        if (doc.Z, doc.M, doc.backend) != (1.0, 1, "explicit"):
            problems.append(f"metadata {(doc.Z, doc.M, doc.backend)!r}")
        if spectrum_to_json(doc.levels, doc.delta1, doc.Z, doc.M, doc.backend) != text:
            problems.append("JSON does not re-emit byte-identically")
        if stdout:
            problems.append("unexpected stdout")
        return problems

    return check


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()]


def analyze_check(path):
    """`analyze` output against analyze_series of the same saved spectrum."""

    def check(stdout, stderr):
        with open(path) as fh:
            doc = parse_spectrum_json(fh.read())
        got = _csv_rows(stdout)
        want = _csv_rows(analysis_to_csv(analyze_series(doc.levels)))
        if len(got) != len(want) or got[:1] != want[:1]:
            return [f"{len(got)} rows, want {len(want)}"]
        for g, w in zip(got[1:], want[1:]):
            if g[:2] != w[:2] or not math.isclose(
                float(g[2]), float(w[2]), rel_tol=PRINTED_RTOL, abs_tol=PRINTED_RTOL
            ):
                return [f"row {g!r} != {w!r}"]
        return check_reemit(stdout)

    return check


def potential_check(M, Z, samples=400):
    """`potential` CSV against the layout the model defines, computed here."""

    def check(stdout, stderr):
        lines = stdout.splitlines()
        if len(lines) != samples + 2 or lines[1] != "s,im_V":
            return [f"{len(lines)} lines or bad header"]
        problems = []
        head = lines[0].split(",")
        edges = [float(x) for x in head[1:]]
        want_edges = [-2.0 + k / M for k in range(4 * M + 1)]
        if head[0] != "# boundaries" or len(edges) != len(want_edges) or any(
            abs(a - b) > 1e-12 for a, b in zip(edges, want_edges)
        ):
            problems.append("segment boundaries")
        for i, line in enumerate(lines[2:]):
            x, v = (float(c) for c in line.split(","))
            seg = int((x + 2.0) * M)
            want_v = Z if seg % 2 == 0 else -Z
            if abs(x - (-2.0 + (i + 0.5) * 4.0 / samples)) > 1e-12 or v != want_v:
                problems.append(f"row {i}: {line!r}")
                break
        return problems + check_reemit(stdout)

    return check


def scan_check(Z, samples, t_min=0.03, t_max=1.0):
    """`scan` rows against secular_monodromy at the same grid points."""

    def check(stdout, stderr):
        rows = _csv_rows(stdout)
        if rows[:1] != [["t", "sign", "logmag"]] or len(rows) != samples + 1:
            return [f"{len(rows)} rows or bad header"]
        pot = build_square_well(1, Z)
        signs = []
        for t, row in zip(np.linspace(t_min, t_max, samples), rows[1:]):
            v = secular_monodromy(pot, Z, float(t))
            ok = (
                math.isclose(float(row[0]), t, rel_tol=1e-11)
                and int(row[1]) == v.sign
                and math.isclose(float(row[2]), v.logmag, rel_tol=PRINTED_RTOL, abs_tol=PRINTED_RTOL)
            )
            if not ok:
                return [f"row at t={t!r}: {row!r}"]
            signs.append(v.sign)
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        problems = []
        if changes != REF["scan_sign_changes"]:
            problems.append(f"{changes} sign changes, want {REF['scan_sign_changes']}")
        return problems + check_reemit(stdout)

    return check


# ---------------------------------------------------------------- solves


@dataclass(frozen=True)
class Solve:
    """One spectrum request, as `ptring spectrum` would serve it."""

    label: str
    Z: float
    M: int
    levels: int
    backend: str
    secular: Callable
    table: list | None = None  # recorded E table; None: count only
    count: int | None = None
    shortfall: bool = False  # a LevelShortfallWarning is the right outcome
    pins: bool = False  # also hold the criterion-1 pins


def explicit_solve(n, pins=False):
    return Solve(
        f"explicit-{n}", 1.0, 1, n, "explicit",
        lambda t: secular_explicit(1.0, t),
        table=REF["ladder"][str(n)], pins=pins,
    )


def monodromy_solve(label, M, Z, table=None, count=None, shortfall=False):
    pot = build_square_well(M, Z)
    return Solve(
        label, Z, M, 18, "monodromy",
        lambda t: secular_monodromy(pot, Z, t),
        table=table, count=count, shortfall=shortfall,
    )


def library_solves(workload: str, seed: int) -> list[Solve]:
    if workload == "ladder":
        return [explicit_solve(n, pins=n == 18) for n in LADDER_LEVELS]
    if workload == "multicell":
        return [
            monodromy_solve(f"M{m}", m, 1.0, table=REF["multicell"][str(m)])
            for m in MULTICELL_M
        ]
    if workload == "pt-sweep":
        return [
            monodromy_solve(
                f"Z={z!r}", 1, z, count=SWEEP_EXPECTED_LEVELS, shortfall=True
            )
            for z in sweep_couplings(seed)
        ]
    if workload == "cli":
        # the two spectrum requests of the CLI sequence, in process
        return [
            explicit_solve(18, pins=True),
            monodromy_solve("periodic-18", 1, 1.0, table=REF["periodic_m1"], shortfall=True),
        ]
    raise ValueError(workload)


def plain_ops():
    return SimpleNamespace(
        find_roots=find_roots,
        energies_from_roots=energies_from_roots,
        analyze_series=analyze_series,
        spectrum_to_csv=spectrum_to_csv,
        spectrum_to_json=spectrum_to_json,
        parse_spectrum_json=parse_spectrum_json,
        parse_spectrum_csv=parse_spectrum_csv,
    )


def solve(ops, f, spec: Solve):
    """find_roots -> energies -> slice -> analyze -> CSV, as cmd_spectrum."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = ops.find_roots(f, spec.Z, spec.levels)
    levels = ops.energies_from_roots(records, spec.Z)[: spec.levels]
    levels = [
        replace(lvl, doublet_partner=None)
        if lvl.doublet_partner is not None and lvl.doublet_partner >= len(levels)
        else lvl
        for lvl in levels
    ]
    report = ops.analyze_series(levels)
    return report, ops.spectrum_to_csv(report.levels, report.delta1), caught


def check_solve(ops, spec: Solve, report, text, caught) -> list[str]:
    short = sum(issubclass(w.category, LevelShortfallWarning) for w in caught)
    problems = []
    if short != int(spec.shortfall) or len(caught) != short:
        problems.append(
            f"{short} shortfall warnings of {len(caught)}, want {int(spec.shortfall)}"
        )
    problems += check_levels(report.levels, spec.Z, spec.table, spec.count, spec.pins)
    doc = ops.parse_spectrum_csv(text)
    if ops.spectrum_to_csv(doc.levels, doc.delta1) != text:
        problems.append("CSV does not re-emit byte-identically")
    if any(
        not math.isclose(a.E, b.E, rel_tol=PRINTED_RTOL, abs_tol=1e-300)
        for a, b in zip(doc.levels, report.levels)
    ):
        problems.append("printed E differs from computed E")
    js = ops.spectrum_to_json(report.levels, report.delta1, spec.Z, spec.M, spec.backend)
    jd = ops.parse_spectrum_json(js)
    if ops.spectrum_to_json(jd.levels, jd.delta1, jd.Z, jd.M, jd.backend) != js:
        problems.append("JSON does not re-emit byte-identically")
    return problems


def library_rounds(workload: str, seed: int, ledger: Ledger):
    """round(tracer=None, between=None) -> ({label: (t0, t1)}, {label: levels}).

    A round runs each of the workload's solves once, in an order drawn from
    the seed, and checks it; between() runs after every solve, outside its
    timing. (t0, t1) is the perf_counter interval of the solve; a solve that
    raised is missing from both dicts.
    """
    solves = library_solves(workload, seed)
    order_rng = random.Random(f"order/{seed}")

    def one_round(tracer=None, between=None):
        ops = plain_ops()
        if tracer is not None:
            factories = wrapper_factories(tracer)
            ops = SimpleNamespace(**{k: factories[k](v) for k, v in vars(ops).items()})
        order = list(solves)
        order_rng.shuffle(order)
        times, levels = {}, {}
        for spec in order:
            f = spec.secular if tracer is None else tracer.counted(spec.secular)
            try:
                with tracer.span("solve") if tracer else contextlib.nullcontext():
                    t0 = perf_counter()
                    report, text, caught = solve(ops, f, spec)
                    t1 = perf_counter()
                problems = check_solve(ops, spec, report, text, caught)
            except Exception as e:  # a raising solve is a failed operation
                ledger.record(spec.label, [f"raised {type(e).__name__}: {e}"])
                continue
            times[spec.label] = (t0, t1)
            levels[spec.label] = len(report.levels)
            ledger.record(spec.label, problems)
            if between is not None:
                between()
        return times, levels

    return one_round


# ---------------------------------------------------------------- CLI


@dataclass(frozen=True)
class Command:
    label: str
    argv: list
    exit_code: int
    check: Callable[[str, str], list]


def cli_sequence(json_path: str) -> list[Command]:
    """The cli workload's fixed command sequence."""
    return [
        Command(
            "spectrum-json",
            ["spectrum", "--Z", "1", "--backend", "explicit", "--format", "json",
             "--output", json_path],
            0, spectrum_json_check(json_path, REF["ladder"]["18"], pins=True),
        ),
        Command("analyze", ["analyze", "--input", json_path], 0, analyze_check(json_path)),
        Command(
            "spectrum-periodic", ["spectrum", "--Z", "1", "--levels", "18"], 2,
            spectrum_csv_check(1.0, table=REF["periodic_m1"],
                               shortfall=True),
        ),
        Command("potential-m8", ["potential", "--M", "8", "--Z", "1"], 0, potential_check(8, 1.0)),
        Command("scan", ["scan", "--Z", "1", "--samples", "512"], 0, scan_check(1.0, 512)),
    ]


def representative_command(workload: str, seed: int) -> Command:
    """The `ptring spectrum` call behind a library workload's cheapest solve."""
    if workload == "ladder":
        return Command(
            "spectrum-explicit-18",
            ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "18"], 0,
            spectrum_csv_check(1.0, table=REF["ladder"]["18"], pins=True),
        )
    if workload == "multicell":
        return Command(
            "spectrum-m8", ["spectrum", "--Z", "1", "--M", "8", "--levels", "18"], 0,
            spectrum_csv_check(1.0, table=REF["multicell"]["8"]),
        )
    z = sweep_couplings(seed)[0]
    return Command(
        "spectrum-sweep", ["spectrum", "--Z", repr(z), "--levels", "18"], 2,
        spectrum_csv_check(z, count=SWEEP_EXPECTED_LEVELS,
                           shortfall=True),
    )


def run_subprocess(cmd: Command, ledger: Ledger) -> tuple[float, float]:
    """`python -m ptring.cli ...` in a fresh process; returns its interval."""
    argv = [sys.executable, "-m", "ptring.cli", *cmd.argv]
    t0 = perf_counter()
    try:
        p = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        ledger.record(cmd.label, [f"could not run: {e}"])
        return t0, perf_counter()
    t1 = perf_counter()
    ledger.record(cmd.label, _check_exit(cmd, p.returncode, p.stdout, p.stderr))
    return t0, t1


def run_in_process(cmd: Command, ledger: Ledger, tracer=None) -> tuple[float, float]:
    """ptring.cli.main(argv) with stdout and stderr captured; returns its interval."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with (
            tracer.span("cli.main") if tracer else contextlib.nullcontext(),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            code = ptring.cli.main(list(cmd.argv))
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a raising command is a failed operation
        ledger.record(cmd.label, [f"raised {type(e).__name__}: {e}"])
        return t0, perf_counter()
    t1 = perf_counter()
    ledger.record(cmd.label, _check_exit(cmd, code, out.getvalue(), err.getvalue()))
    return t0, t1


def _check_exit(cmd, code, stdout, stderr):
    if code != cmd.exit_code:
        return [f"exit code {code!r}, want {cmd.exit_code}: {stderr.strip()[-200:]}"]
    try:
        return cmd.check(stdout, stderr)
    except (OSError, ValueError, IndexError) as e:
        return [f"output missing or malformed: {e}"]


# ---------------------------------------------------------------- tracing


def traced_find_roots(tracer: Tracer, fn):
    """find_roots in a span noting its unresolved doublets and shortfall warnings."""

    @functools.wraps(fn)
    def wrapper(f, Z, n_levels, *rest, **kwargs):
        with tracer.span("find_roots") as s:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                records = fn(f, Z, n_levels, *rest, **kwargs)
            s.notes = {
                "unresolved_t": [r.t for r in records if getattr(r, "unresolved_doublet", False)],
                "shortfalls": sum(issubclass(w.category, LevelShortfallWarning) for w in caught),
            }
        for w in caught:  # hand the warnings on to the caller unchanged
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return records

    return wrapper


def _note_windows(span, windows):
    span.notes["windows"] = [[w.t_lo, w.t_hi] for w in windows]


def _note_root(span, record):
    span.notes["t"] = record.t


def _note_bytes(span, text):
    span.notes["bytes"] = len(text)


EMITTERS = ("spectrum_to_csv", "spectrum_to_json", "analysis_to_csv",
            "potential_to_csv", "scan_to_csv")


def wrapper_factories(tracer: Tracer) -> dict:
    """name -> (original -> traced) for every function the trace spans."""
    out = {name: functools.partial(tracer.wrap, name) for name in (
        "energies_from_roots", "analyze_series", "parse_spectrum_json",
        "parse_spectrum_csv", "scan_secular", "build_square_well",
    )}
    out.update({name: functools.partial(tracer.wrap, name, note=_note_bytes) for name in EMITTERS})
    out["find_roots"] = functools.partial(traced_find_roots, tracer)
    out["detect_bumps"] = functools.partial(tracer.wrap, "detect_bumps", note=_note_windows)
    out["bisect"] = functools.partial(tracer.wrap, "bisect", note=_note_root)
    out["secular_explicit"] = out["secular_monodromy"] = tracer.counted
    return out


def round_layers(tracer: Tracer, round_span, op_name: str):
    """Per-layer counts and times of one traced round."""
    spans = subtree(tracer.spans, round_span)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    counts = {
        "secular.evals": sum(s.evals for s in spans),
        "secular.reality_errors": sum(s.errors["SecularRealityError"] for s in spans),
        "roots.bisect_calls": len(by["bisect"]),
        "roots.bisect_evals": sum(s.evals for s in by["bisect"]),
        "roots.master_evals": 0,
        "roots.refine_evals": 0,
        "roots.bump_windows": 0,
        "roots.bump_windows_nested": 0,
        "roots.unresolved_doublets": 0,
        "roots.shortfall_warnings": 0,
        "serialize.bytes": sum(s.notes.get("bytes", 0) for s in spans),
    }
    windows_hit = 0
    fr_s = fr_busy = 0.0
    for fr in by["find_roots"]:
        sub = subtree(tracer.spans, fr)
        fr_s += fr.duration
        fr_busy += sum(s.eval_s for s in sub)
        master = fr.evals if fr.evals_before_child is None else fr.evals_before_child
        counts["roots.master_evals"] += master
        counts["roots.refine_evals"] += fr.evals - master
        counts["roots.unresolved_doublets"] += len(fr.notes["unresolved_t"])
        counts["roots.shortfall_warnings"] += fr.notes["shortfalls"]
        bumps = [s for s in sub if s.name == "detect_bumps"]
        if bumps:
            first = bumps[0]
            counts["roots.bump_windows"] += len(first.notes["windows"])
            counts["roots.bump_windows_nested"] += sum(len(b.notes["windows"]) for b in bumps[1:])
            # roots the refinement returned: bisections after the master
            # detect_bumps, and doublets left unresolved
            refined = fr.notes["unresolved_t"] + [
                s.notes["t"] for s in sub if s.name == "bisect" and s.id > first.id
            ]
            windows_hit += sum(
                any(lo <= t <= hi for t in refined) for lo, hi in first.notes["windows"]
            )
    counts["roots.bump_yield"] = windows_hit / counts["roots.bump_windows"] if counts["roots.bump_windows"] else 0.0
    counts["roots.evals_per_bracket"] = (
        counts["roots.bisect_evals"] / counts["roots.bisect_calls"] if counts["roots.bisect_calls"] else 0.0
    )

    def mean_us(name):
        return statistics.fmean(s.duration for s in by[name]) * 1e6 if by[name] else 0.0

    ops = by[op_name]
    op_s = sum(s.duration for s in ops)
    op_self = sum(
        s.duration - s.eval_s - sum(c.duration for c in spans if c.parent == s.id) for s in ops
    )
    busy = sum(s.eval_s for s in spans)
    times = {
        "secular.busy_s": busy,
        "secular.share": busy / op_s,
        "roots.find_roots_s": fr_s,
        "roots.self_s": fr_s - fr_busy,
        "spectrum.energies_us": mean_us("energies_from_roots"),
        "spectrum.analyze_us": mean_us("analyze_series"),
        "serialize.csv_us": mean_us("spectrum_to_csv"),
        "serialize.json_us": mean_us("spectrum_to_json"),
        "serialize.parse_json_us": mean_us("parse_spectrum_json"),
        "trace.unaccounted_frac": op_self / op_s,
    }
    return counts, times


def per_call_us(fn, arglist, batches=5, min_batch_s=0.02):
    """Median over batches of the mean time per call, in microseconds."""
    t0 = perf_counter()
    for a in arglist:
        fn(*a)
    reps = max(1, math.ceil(min_batch_s / (perf_counter() - t0)))
    calls = list(arglist) * reps
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for a in calls:
            fn(*a)
        samples.append((perf_counter() - t0) / len(calls))
    return statistics.median(samples) * 1e6


def micro_benchmarks() -> dict:
    """Per-call cost of the potential and secular layers at fixed inputs."""
    ts = [float(t) for t in np.geomspace(0.045, 0.9, 64)]
    out = {}
    for m in (1, 8, 32):
        out[f"potential.build_us.M{m}"] = per_call_us(build_square_well, [(m, 1.0)])
    out["secular.explicit_us"] = per_call_us(secular_explicit, [(1.0, t) for t in ts])
    build_q = getattr(ptring.secular, "build_Q", None)
    out["secular.build_Q_us"] = per_call_us(build_q, [(1.0, t) for t in ts]) if build_q else 0.0
    for m in (1, 8, 32):
        pot = build_square_well(m, 1.0)
        out[f"secular.monodromy_us.M{m}"] = per_call_us(
            secular_monodromy, [(pot, 1.0, t) for t in ts]
        )
    prop = getattr(ptring.secular, "segment_propagator", None)
    out["secular.segment_propagator_us"] = (
        per_call_us(prop, [(0.25, SpectralPoint.from_zt(1.0, t).kappa) for t in ts]) if prop else 0.0
    )
    return out


# ---------------------------------------------------------------- runs


def cli_rounds(json_path: str, ledger: Ledger):
    """round(tracer=None) -> ({label: (t0, t1)}, {}): the cli sequence in process."""
    seq = cli_sequence(json_path)

    def one_round(tracer=None):
        return {cmd.label: run_in_process(cmd, ledger, tracer) for cmd in seq}, {}

    return one_round


def wall(interval) -> float:
    t0, t1 = interval
    return t1 - t0


def by_label(rounds, timer=wall) -> dict:
    """label -> timer(interval) of each of its operations over the rounds."""
    out = defaultdict(list)
    for times, _ in rounds:
        for label, interval in times.items():
            out[label].append(timer(interval))
    return out


def per_op(rounds) -> float:
    """Median over rounds of the mean wall time of an operation in a round."""
    return statistics.median(statistics.fmean(map(wall, t.values())) for t, _ in rounds if t)


def setup_probe_code(workload: str, seed: int) -> str:
    """Python source that imports ptring, builds the potentials, says ready."""
    if workload == "cli":
        modules, pots = "ptring, ptring.cli", [(1, 1.0), (8, 1.0)]
    else:
        pots = sorted({(s.M, s.Z) for s in library_solves(workload, seed)})
        modules = "ptring"
    return (
        f"import {modules}\n"
        f"for M, Z in {pots!r}:\n"
        f"    ptring.build_square_well(M, Z)\n"
        f"print('ready', flush=True)\n"
    )


def setup_probe(code: str, ledger: Ledger) -> tuple[float, float] | None:
    """The interval from spawning a fresh interpreter to its 'ready' line."""
    t0 = perf_counter()
    try:
        p = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    except OSError as e:
        ledger.record("setup", [f"could not run: {e}"])
        return None
    timer = threading.Timer(CLI_TIMEOUT_S, p.kill)
    timer.start()
    try:
        line = p.stdout.readline()
        t1 = perf_counter()
        p.stdout.close()
        code = p.wait()
    finally:
        timer.cancel()
    ok = line == "ready\n" and code == 0
    ledger.record("setup", [] if ok else [f"exit code {code}, first line {line!r}"])
    return (t0, t1) if ok else None


def plain_run(args, ledger, json_path) -> dict:
    """Rounds of solves for --seconds, untraced, timed against the machine's speed.

    The set-up probes and the CLI runs of a library workload are spread
    between the solves, in step with the share of --seconds used so far.
    Their time does not count against --seconds. Every interval is timed in
    nominal seconds (speed.py), and each metric is made of medians over the
    run's samples of one operation. "wall" holds the same metrics in wall
    seconds, and the machine's mean slowdown over the run.
    """
    wl = args.workload
    one_round = library_rounds(wl, args.seed, ledger)
    probe = setup_probe_code(wl, args.seed)
    rep = None if wl == "cli" else representative_command(wl, args.seed)
    setups, cli_times, rounds = [], defaultdict(list), []

    with SpeedSampler() as sampler:
        start, aside = perf_counter(), 0.0

        def spread(frac=None):
            nonlocal aside
            t0 = perf_counter()
            if frac is None:
                frac = min(1.0, (t0 - start - aside) / args.seconds)
            while len(setups) < SETUP_PROBES * frac:
                setups.append(setup_probe(probe, ledger))
            while rep is not None and len(cli_times[rep.label]) < REPRESENTATIVE_RUNS * frac:
                cli_times[rep.label].append(run_subprocess(rep, ledger))
            aside += perf_counter() - t0

        min_rounds = CLI_MIN_ROUNDS if wl == "cli" else 1
        while len(rounds) < min_rounds or perf_counter() - start - aside < args.seconds:
            if wl == "cli":
                for c in cli_sequence(json_path):
                    cli_times[c.label].append(run_subprocess(c, ledger))
            rounds.append(one_round(between=spread))
        spread(1.0)

    usage = resource.RUSAGE_CHILDREN if wl == "cli" else resource.RUSAGE_SELF
    levels = {label: n for _, ns in rounds for label, n in ns.items()}

    def timings(timer):
        solves = {k: statistics.median(v) for k, v in by_label(rounds, timer).items()}
        return {
            "setup_s": statistics.median(timer(iv) for iv in setups if iv),
            "solve_s": statistics.fmean(solves.values()),
            "levels_per_s": sum(levels[k] for k in solves) / sum(solves.values()),
            "cli_s": sum(statistics.median(map(timer, v)) for v in cli_times.values()),
        }

    units = {"setup_s": "s", "solve_s": "s", "levels_per_s": "levels/s", "cli_s": "s"}
    metrics = {k: (v, units[k]) for k, v in timings(sampler.nominal).items()}
    metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024.0, "MB")
    metrics["rounds"] = len(rounds)
    metrics["wall"] = dict(timings(wall), slowdown=sampler.slowdown())
    return metrics


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    stem = name.split(".")[1]
    if stem.endswith("_us"):
        return "us"
    if stem.endswith("_s"):
        return "s"
    if stem in ("share", "bump_yield", "unaccounted_frac"):
        return "ratio"
    return "B" if stem == "bytes" else "count"


def traced_run(args, ledger, json_path) -> dict:
    metrics = micro_benchmarks()
    # an op is one solve, or for cli one in-process ptring.cli.main call
    if args.workload == "cli":
        one_round, op_name = cli_rounds(json_path, ledger), "cli.main"
    else:
        one_round, op_name = library_rounds(args.workload, args.seed, ledger), "solve"

    plain = []
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds / 2:
        plain.append(one_round())

    tracer = Tracer()
    factories = wrapper_factories(tracer)
    traced, counts, times = [], [], defaultdict(list)
    in_roots = {k: factories[k] for k in ("bisect", "detect_bumps")}
    with tracer.patched(ptring.roots, in_roots), tracer.patched(ptring.cli, factories):
        for _ in range(max(2, len(plain))):
            with tracer.span("round") as rs:
                traced.append(one_round(tracer))
            c, t = round_layers(tracer, rs, op_name)
            counts.append(c)
            for k, v in t.items():
                times[k].append(v)
    if any(c != counts[0] for c in counts[1:]):
        ledger.record("count repeat", [f"traced rounds disagree: {counts}"])
    metrics.update(counts[0])
    metrics.update({k: statistics.median(v) for k, v in times.items()})
    untraced_op, traced_op = per_op(plain), per_op(traced)
    metrics["trace.solve_s"] = traced_op
    metrics["trace.untraced_solve_s"] = untraced_op
    metrics["trace.overhead_s"] = traced_op - untraced_op

    if args.workload == "cli":
        main_s = statistics.median(sum(map(wall, t.values())) for t, _ in plain)
        process_s = sum(wall(run_subprocess(c, ledger)) for c in cli_sequence(json_path))
    else:
        cmd = representative_command(args.workload, args.seed)
        main_s = wall(run_in_process(cmd, ledger))
        process_s = wall(run_subprocess(cmd, ledger))
    metrics["cli.main_s"] = main_s
    metrics["cli.process_s"] = process_s
    metrics["cli.overhead_s"] = process_s - main_s

    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "traced_rounds": len(traced)})
    metrics = {k: (v, layer_unit(k)) for k, v in metrics.items()}
    metrics["rounds"] = len(traced)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pin_to_one_core()
    ledger = Ledger()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        json_path = os.path.join(tmp, "spectrum.json")
        run = traced_run if args.trace else plain_run
        metrics = run(args, ledger, json_path)
    rounds = metrics.pop("rounds")
    print(json.dumps({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "findings": ledger.findings,
        "rounds": rounds,
        "wall": metrics.pop("wall", None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

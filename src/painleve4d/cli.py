"""Command-line front end.

Subcommands cover the catalog (``list``, ``show``, ``apply``), the
verification suites (``verify``), the degeneration runner (``degenerate``),
the numeric integrator (``integrate``), the first-integral search
(``search-integrals``) and the chart probe (``probe-assumption-a``).

Exit codes: 0 when every asserted check passes, 1 when at least one fails,
2 on bad input: a usage error, a malformed number or window, an unknown
family, a ``verify --family`` that no row declares or with no row in the
selected suites, a ``probe-assumption-a`` family that is not
four-dimensional, an ``apply`` point on a pole of the word, ``apply
--params`` without ``--point``, ``degenerate --dump-field`` without
``--format json``, a benchmark file that is not one JSON object, an
``integrate`` start on a pole of the field, ``integrate`` parameters that
fold to a field coefficient that is not finite, an ``integrate`` path with
no segment stepped across with at least five samples, whose defect cannot
be measured, or an output file that cannot be written (checked before any
work starts).
Reports are deterministic for a fixed (suite, mode, seed, samples)
configuration except for the elapsed-time fields.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .algebra import (AlgebraError, DenominatorZeroAtPoint, ExponentOverflow,
                      RationalExpression, rational, variable)
from .degeneration import (substitute_confluence, verify_confluence_field,
                           verify_group_convergence)
from .holomorphy import (CHART_INDICES, CHART_SETS, CLAIMED_CHART_SETS,
                         polynomiality_random_check, verify_chart_hamiltonians,
                         verify_chart_polynomiality)
from .numerics import (BenchmarkFileError, ConstraintViolation, SingularStart,
                       StepFailure, Unmeasurable, load_benchmark, solve,
                       verify_backlund_numeric)
from .reports import FAIL, INCONCLUSIVE, VerificationReport, verdict
from .systems import (DISPLAYED_FAMILIES, FAMILIES, PAIRS_4D,
                      HamiltonianSystem, UnknownFamily, WindowEmpty,
                      check_field_matches_display, first_integral_search,
                      make_hamiltonian, span_equal, toy_system)
from .transforms import (DEFAULT_SAMPLES, UnknownGenerator, apply_word_point,
                         equivalence_map, generator, generator_labels,
                         verify_equivalence, verify_symmetry,
                         verify_symplectic)
from .weyl import (REFLECTIONS, automorphisms, verify_cartan_table,
                   verify_coxeter_relations, verify_extended_relations,
                   verify_translation_composition, verify_translation_shifts)

SUITES = ("fields", "symmetry", "coxeter", "extended", "translations",
          "holomorphy", "equivalence", "confluence", "numeric", "integrals")

Thunk = Callable[[], list[VerificationReport]]
# a row group: its suite, its declared family, the thunk making its reports
Row = tuple[str, str, Thunk]


class UsageError(Exception):
    """Bad argument combinations detected after argparse."""


# ---------------------------------------------------------------------------
# suite assembly


def _with_family(family: str, result) -> list[VerificationReport]:
    """The report or reports a check returned, under the row's family."""
    reports = [result] if isinstance(result, VerificationReport) else list(result)
    for rep in reports:
        rep.family = family
    return reports


def _observed(rep: VerificationReport, note: str) -> VerificationReport:
    """A report that is observed, not asserted: a failure is downgraded to
    inconclusive, with the note before its witness, so it cannot flip the
    exit code."""
    if rep.status == FAIL:
        rep.status = INCONCLUSIVE
        rep.witness = f"{note}; " + (rep.witness or "")
    return rep


def _observational_symmetry(label: str) -> list[VerificationReport]:
    # the alternative d4 reflection set acts on d4's phase space but is
    # reported under its own name, like its coxeter and cartan rows; exact
    # in both modes, since the observed witness is the exact residual
    rep = verify_symmetry(generator("d4alt", label), mode="exact")
    rep.check = f"symmetry/d4alt/{label}"
    return [_observed(rep, "observational, not asserted")]


def _check_integrals(name: str, system: HamiltonianSystem, degree: int,
                     window: tuple[int, int],
                     expected: Sequence[RationalExpression]) -> VerificationReport:
    def decide():
        found = first_integral_search(system, degree_bound=degree, window=window)
        if span_equal(found, expected):
            return None
        return (f"found {len(found)} independent integrals in window {window}, "
                f"expected span dimension {len(expected)}")

    return verdict(name, "exact", decide)


def _rows(mode: str, seed: int, samples: int) -> list[Row]:
    """Every verify row, listed in SUITES order, each under its suite and
    the family it declares.  The row's thunk sets that family on every
    report it returns, and ``verify`` selects rows by the two names alone."""
    rows: list[Row] = []

    def add(suite, family, fn, *args, **kwargs):
        rows.append((suite, family,
                     lambda: _with_family(family, fn(*args, **kwargs))))

    for fam in DISPLAYED_FAMILIES:
        add("fields", fam, check_field_matches_display, fam)
    for fam in REFLECTIONS:
        for lab in generator_labels(fam):
            if fam == "d4alt":
                add("symmetry", fam, _observational_symmetry, lab)
            else:
                add("symmetry", fam, verify_symmetry, generator(fam, lab),
                    mode=mode, seed=seed, samples=samples)
    for fam in REFLECTIONS:
        add("coxeter", fam, verify_cartan_table, fam)
        add("coxeter", fam, verify_coxeter_relations, fam,
            mode=mode, seed=seed, samples=samples)
    for fam in REFLECTIONS:
        if automorphisms(fam):
            add("extended", fam, verify_extended_relations, fam)
    add("translations", "d4", verify_translation_shifts)
    if mode == "exact":
        # exact mode only: the random report's rows are pinned without it
        add("translations", "d4", verify_translation_composition)
    for fam in CLAIMED_CHART_SETS:
        system = make_hamiltonian(fam)
        add("holomorphy", fam, verify_chart_polynomiality, system, fam)
        add("holomorphy", fam, verify_chart_hamiltonians, system, fam)
        if mode == "random":
            add("holomorphy", fam, polynomiality_random_check, system, fam,
                seed=seed, samples=samples)
    for lab in generator_labels("maps"):
        m = equivalence_map(lab)
        add("equivalence", m.family, verify_equivalence, m,
            mode=mode, seed=seed, samples=samples)
        add("equivalence", m.family, verify_symplectic, m)
    add("confluence", "d51", verify_confluence_field)
    add("confluence", "d51", verify_group_convergence)
    for lab in generator_labels("d4"):
        add("numeric", "d4", verify_backlund_numeric, generator("d4", lab))
    q, p, t = variable("q"), variable("p"), variable("t")
    add("integrals", "d4", _check_integrals, "integrals/d4/deg2",
        make_hamiltonian("d4"), 2, (-2, 2), [rational(1)])
    add("integrals", "toy", _check_integrals, "integrals/toy/deg1",
        toy_system(), 1, (-1, 1), [rational(1), p, q - t])
    return rows


def _emit(doc: dict, fmt: str, output: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        for entry in doc["checks"]:
            line = f"{entry['status'].upper():12s} {entry['check']}"
            if entry.get("witness"):
                line += f"  [{entry['witness']}]"
            lines.append(line)
        statuses = [entry["status"] for entry in doc["checks"]]
        lines.append(f"{len(statuses)} checks: "
                     f"{statuses.count('pass')} pass, "
                     f"{statuses.count('fail')} fail, "
                     f"{statuses.count('inconclusive')} inconclusive")
        text = "\n".join(lines) + "\n"
    if output and output != "-":
        _write(output, [text])
    else:
        sys.stdout.write(text)


def _report(args, config: dict, reports: Iterable[VerificationReport],
            **extra) -> int:
    """Sort the rows by check, emit the ``{version, config, checks}``
    document with any extra entries in ``args.format``, and return the exit
    code: 1 when a row failed, else 0.  An observed row is never failed."""
    reports = sorted(reports, key=lambda rep: rep.check)
    doc = {"version": __version__, "config": config,
           "checks": [rep.to_obj() for rep in reports], **extra}
    _emit(doc, args.format, args.output)
    return 1 if any(rep.status == FAIL for rep in reports) else 0


def _write(path: str, chunks: Iterable[str], mode: str = "w") -> None:
    """Write the chunks in turn, each as it comes, so a generator's output
    is never held whole."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: str) -> None:
    # fail before the work, not after it; the output is written once, at the end
    existed = os.path.lexists(path)
    _write(path, (), mode="a")
    if not existed:
        os.remove(path)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_list(args) -> int:
    doc = {
        "families": list(FAMILIES),
        "generators": {fam: list(generator_labels(fam)) for fam in REFLECTIONS},
        "equivalence_maps": list(generator_labels("maps")),
        "chart_sets": {cs: list(CHART_INDICES) for cs in CHART_SETS},
        "suites": list(SUITES),
    }
    _emit(doc, "json", args.output)
    return 0


def _cmd_show(args) -> int:
    system = make_hamiltonian(args.family)
    _emit(system.to_obj(), "json", args.output)
    return 0


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",") if part]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a comma-separated list of fractions: {text!r}") from exc


def _cmd_apply(args) -> int:
    labels = args.word
    letters = [generator(args.family, lab) for lab in labels]
    for inner, outer in zip(letters, letters[1:]):
        if outer.family != inner.family_out:
            raise UsageError(f"cannot apply {outer.label} after {inner.label}: "
                             f"it acts on {outer.family}, not {inner.family_out}")
    # the point lives on the phase space of the first letter's source
    system = make_hamiltonian(letters[0].family)
    phase = list(system.phase_vars()) + ["t"]
    if args.point is None:
        if args.params is not None:
            raise UsageError("--params needs --point")
        # symbolic composition: emit each letter's images in order
        doc = {"family": args.family, "word": labels,
               "letters": [letter.to_obj() for letter in letters]}
        _emit(doc, "json", args.output)
        return 0
    values = _parse_fractions(args.point)
    params = _parse_fractions(args.params) if args.params else []
    names = phase + list(system.params.symbols)
    if len(values) + len(params) != len(names):
        raise UsageError(
            f"expected {len(phase)} point coordinates and "
            f"{len(system.params.symbols)} parameters, got "
            f"{len(values)}+{len(params)}")
    point = dict(zip(names, values + params))
    try:
        image = apply_word_point(args.family, labels, point)
    except DenominatorZeroAtPoint as exc:
        raise UsageError(f"point on a pole of {' '.join(labels)}: {exc}") from exc
    doc = {"family": args.family, "word": labels,
           "input": {k: str(v) for k, v in point.items()},
           "output": {k: str(v) for k, v in image.items()}}
    _emit(doc, "json", args.output)
    return 0


def _cmd_verify(args) -> int:
    requested = []
    for item in args.suite or ["all"]:
        requested.extend(part for part in item.split(",") if part)
    if not requested:
        raise UsageError("no suite selected")
    unknown = [s for s in requested if s not in SUITES + ("all",)]
    if unknown:
        raise UsageError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(SUITES)} or 'all'")
    selected = [s for s in SUITES if s in requested or "all" in requested]
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    rows = _rows(args.mode, args.seed, args.samples)
    families = args.family or None
    # the accepted names are the families that rows declare, in any suite
    known = sorted({fam for _, fam, _ in rows})
    unknown = [f for f in families or () if f not in known]
    if unknown:
        raise UsageError(f"unknown family(ies): {', '.join(unknown)}; "
                         f"choose from {', '.join(known)}")
    thunks = [thunk for suite, fam, thunk in rows
              if suite in selected and (not families or fam in families)]
    if not thunks:
        raise UsageError(f"suite(s) {', '.join(selected)} have no checks for "
                         f"family(ies) {', '.join(families or ())}")
    config = {"suites": selected, "mode": args.mode, "seed": args.seed,
              "samples": args.samples,
              "families": list(families) if families else "all"}
    return _report(args, config, (rep for thunk in thunks for rep in thunk()))


def _cmd_degenerate(args) -> int:
    if args.dump_field and args.format != "json":
        # the human report prints only the checks
        raise UsageError("--dump-field needs --format json")
    reports = [rep for suite, _, thunk in _rows("exact", 0, DEFAULT_SAMPLES)
               if suite == "confluence" for rep in thunk()]
    extra = {}
    if args.dump_field:
        extra["epsilon_field"] = {
            "time": "t",
            "components": {v: rhs.to_obj()
                           for v, rhs in substitute_confluence().items()}}
    return _report(args, {"suites": ["confluence"], "mode": "exact"}, reports,
                   **extra)


def _cmd_integrate(args) -> int:
    if args.output == "-":
        # standard output carries the summary; the trajectory needs a file
        raise UsageError("integrate cannot write the trajectory to standard "
                         "output (-o -); give a file name")
    problem, threshold = load_benchmark(args.benchmark or {})
    try:
        trajectory, defect = solve(problem)
    except StepFailure as exc:
        sys.stderr.write(f"integration aborted: {exc}\n")
        if args.output:
            _write(args.output, (row + "\n" for row in exc.trajectory.rows()))
        return 1
    summary = {"family": problem.family, "path": problem.path,
               "samples": len(trajectory.times), "defect": defect,
               "defect_threshold": threshold, "stats": trajectory.stats}
    if args.output:
        _write(args.output, (row + "\n" for row in trajectory.rows()))
        summary["trajectory_file"] = args.output
    _emit(summary, "json", None)
    return 0 if defect <= threshold else 1


def _cmd_search_integrals(args) -> int:
    try:
        lo, hi = (int(part) for part in args.twin.split(","))
    except ValueError as exc:
        raise UsageError(f"--twin takes two integers LO,HI, "
                         f"got {args.twin!r}") from exc
    if args.deg < 0:
        raise UsageError(f"--deg must be at least 0, got {args.deg}")
    if args.family == "toy":
        system = toy_system()
    else:
        system = make_hamiltonian(args.family)
    try:
        found = first_integral_search(system, degree_bound=args.deg,
                                      window=(lo, hi))
    except ExponentOverflow as exc:
        raise UsageError(f"--deg {args.deg} with --twin={lo},{hi} is beyond "
                         f"the kernel: {exc}") from exc
    doc = {"family": args.family, "degree_bound": args.deg,
           "window": [lo, hi], "count": len(found),
           "basis": [str(expr) for expr in found]}
    _emit(doc, "json", args.output)
    return 0


def _cmd_probe(args) -> int:
    system = make_hamiltonian(args.family)
    if system.pairs != PAIRS_4D:
        four_d = [f for f in FAMILIES if make_hamiltonian(f).pairs == PAIRS_4D]
        raise UsageError(f"the chart probe needs a four-dimensional family, "
                         f"not {args.family}; choose from {', '.join(four_d)}")
    # d4alt's derived atlas; whether any system fits all five charts is
    # open, so the probe observes: failures are findings, not errors
    reports = _with_family(args.family,
                           verify_chart_polynomiality(system, "open-probe"))
    config = {"suites": ["probe-assumption-a"], "family": args.family,
              "mode": "exact"}
    return _report(args, config,
                   (_observed(rep, "probe finding") for rep in reports))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve4d",
        description="verification suites and numeric lab for the coupled "
                    "Painleve III Hamiltonian systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def out_opt(p):
        p.add_argument("--output", "-o", default=None,
                       help="write to this file instead of stdout")

    def report_opts(p):
        p.add_argument("--format", choices=("human", "json"), default="human")
        out_opt(p)

    def command(name, summary):
        return sub.add_parser(name, help=summary, description=summary)

    p = command("list", "catalog of families, generators, charts")
    out_opt(p)
    p.set_defaults(handler=_cmd_list)

    p = command("show", "dump one system as JSON")
    p.add_argument("family", choices=FAMILIES)
    out_opt(p)
    p.set_defaults(handler=_cmd_show)

    p = command("apply", "apply a generator word to a point")
    p.add_argument("family")
    p.add_argument("word", nargs="+", help="generator labels, applied "
                   "leftmost first")
    p.add_argument("--point", default=None,
                   help="comma-separated phase values and time, as fractions")
    p.add_argument("--params", default=None,
                   help="comma-separated parameter values, as fractions")
    out_opt(p)
    p.set_defaults(handler=_cmd_apply)

    p = command("verify", "run verification suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name, repeatable or comma-separated; "
                        "'all' selects every suite")
    p.add_argument("--family", action="append", default=None,
                   help="run only the checks of this family, repeatable")
    p.add_argument("--mode", choices=("exact", "random"), default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="sample points per random check, at least 1")
    report_opts(p)
    p.set_defaults(handler=_cmd_verify)

    p = command("degenerate", "confluence field limit and subgroup convergence")
    p.add_argument("--dump-field", action="store_true",
                   help="include the substituted field before the limit")
    report_opts(p)
    p.set_defaults(handler=_cmd_degenerate)

    p = command("integrate", "run a numeric benchmark")
    p.add_argument("benchmark", nargs="?", default=None,
                   help="JSON benchmark file (defaults to the built-in one)")
    p.add_argument("--output", "-o", default=None,
                   help="write the trajectory as JSON lines")
    p.set_defaults(handler=_cmd_integrate)

    p = command("search-integrals", "polynomial first integrals up to a degree")
    p.add_argument("family")
    p.add_argument("--deg", type=int, required=True,
                   help="total phase degree bound")
    p.add_argument("--twin", required=True, metavar="LO,HI",
                   help="window of time exponents; negative bounds need "
                        "the --twin=-2,2 form")
    out_opt(p)
    p.set_defaults(handler=_cmd_search_integrals)

    p = command("probe-assumption-a", "observational polynomiality probe "
                "over d4alt's atlas, the open-probe chart set")
    p.add_argument("family", help="a family on the phase space x, y, z, w")
    report_opts(p)
    p.set_defaults(handler=_cmd_probe)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; pass both on
        return int(exc.code or 0)
    try:
        if args.output and args.output != "-":
            _check_writable(args.output)
        return args.handler(args)
    except (UsageError, BenchmarkFileError, SingularStart, ConstraintViolation,
            Unmeasurable, WindowEmpty) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (UnknownFamily, UnknownGenerator) as exc:
        sys.stderr.write(f"error: unknown name: {exc}\n")
        return 2
    except (AlgebraError, StepFailure, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

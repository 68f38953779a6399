"""Run one painleve4d command in this process, with spans around the calls
into each layer, and write the per-layer aggregates to a JSON file.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json <painleve4d args>

The package is not instrumented: this script imports it, replaces each
traced function by a timing wrapper at every place the name is looked up
(the defining module's globals, every other module that imported the name
with ``from .x import f``, and every class attribute bound to the same
function, such as ``Polynomial.__rmul__``), then calls ``cli.run``.

Spans are aggregated in memory per name (calls, total and self time) and
written once, after ``cli.run`` returns.  Raw span records are not kept: the
algebra kernel opens millions of spans in one verify run.  Self time is a
span's duration minus the time its direct child spans cover; total time
counts only the outermost activation of a name, so recursion is not counted
twice.  The exit code is the command's.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

PACKAGE = "painleve4d"

# (span name, module, attribute path): the functions whose spans the
# benchmark reports.  Two targets may share a span name.
TARGETS = (
    ("algebra.exact_div", "algebra", "Polynomial.exact_div"),
    ("algebra.poly_mul", "algebra", "Polynomial.__mul__"),
    ("algebra.substitute", "algebra", "Polynomial.substitute"),
    ("algebra.substitute", "algebra", "RationalExpression.substitute"),
    ("algebra.eval_exact", "algebra", "Polynomial.eval_exact"),
    ("algebra.eval_exact", "algebra", "RationalExpression.eval_exact"),
    ("algebra.normalise", "algebra", "RationalExpression.__init__"),
    ("systems.vector_field", "systems", "HamiltonianSystem.vector_field"),
    ("systems.first_integral_search", "systems", "first_integral_search"),
    ("transforms.compose", "transforms", "compose"),
    ("transforms.pushforward_field", "transforms", "pushforward_field"),
    ("transforms.verify_symmetry", "transforms", "verify_symmetry"),
    ("transforms.verify_equivalence", "transforms", "verify_equivalence"),
    ("weyl.verify_coxeter_relations", "weyl", "verify_coxeter_relations"),
    ("weyl.verify_extended_relations", "weyl", "verify_extended_relations"),
    ("weyl.verify_translation_composition", "weyl",
     "verify_translation_composition"),
    ("holomorphy.chart_field", "holomorphy", "chart_field"),
    ("holomorphy.verify_chart_polynomiality", "holomorphy",
     "verify_chart_polynomiality"),
    ("holomorphy.verify_chart_hamiltonians", "holomorphy",
     "verify_chart_hamiltonians"),
    ("holomorphy.polynomiality_random_check", "holomorphy",
     "polynomiality_random_check"),
    ("degeneration.verify_confluence_field", "degeneration",
     "verify_confluence_field"),
    ("degeneration.verify_group_convergence", "degeneration",
     "verify_group_convergence"),
    ("numerics.integrate", "numerics", "integrate"),
    ("numerics.compile_field", "numerics", "compile_field"),
    ("numerics.residual", "numerics", "residual"),
    ("numerics.verify_backlund_numeric", "numerics", "verify_backlund_numeric"),
    ("cli.run", "cli", "run"),
)

# Modules whose functions, when ``cli`` calls them directly, get a span of
# their own, so that ``cli.run``'s self time is parsing, report assembly and
# output writing only.  Algebra and report helpers called from ``cli`` are
# cheap and left unwrapped.
CHECK_MODULES = ("systems", "transforms", "weyl", "holomorphy",
                 "degeneration", "numerics")


class Tracer:
    """Aggregated spans: name -> {calls, total_s, self_s, ...}."""

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}

    def wrap(self, name, fn, observe=None):
        stats = self.spans.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        self._depth.setdefault(name, 0)
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += elapsed - children[0]
                if not depth[name]:
                    stats["total_s"] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(stats, args, result)
            return result

        return traced

    def open_spans(self) -> int:
        return len(self._stack)


def _observe_exact_div(stats, args, quotient):
    stats["useful"] = stats.get("useful", 0) + (quotient is not None)
    stats["max_terms"] = max(stats.get("max_terms", 0), len(args[0].terms))


def _observe_integrate(stats, args, trajectory):
    for key, value in trajectory.stats.items():
        stats[key] = stats.get(key, 0) + value


OBSERVERS = {"algebra.exact_div": _observe_exact_div,
             "numerics.integrate": _observe_integrate}


def _replace_everywhere(owners, original, wrapper) -> None:
    """Rebind every module global or class attribute that is `original`."""
    for obj in owners:
        for key, value in list(vars(obj).items()):
            if value is original:
                setattr(obj, key, wrapper)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the targets that could not be found."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    modules = [m for n, m in sorted(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    missing = []
    for name, module, path in TARGETS:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner).get(attr)
        if original is None:
            missing.append(f"{module}.{path}")
            continue
        wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
        _replace_everywhere(modules if inspect.ismodule(owner) else [owner],
                            original, wrapper)
    for key, value in list(vars(cli).items()):
        if not inspect.isfunction(value):
            continue
        module = value.__module__.rpartition(".")[2]
        if module in CHECK_MODULES:
            setattr(cli, key, tracer.wrap(f"{module}.{key}", value))
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write("usage: tracer.py TRACE.json <painleve4d args>\n")
        return 2
    out_path, command = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    code = cli.run(command)
    doc = {"missing_targets": missing,
           "open_spans": tracer.open_spans(),
           "spans": tracer.spans}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

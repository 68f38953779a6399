"""Floating-point integration of the cataloged systems along complex time
paths, and numerical cross-validation of the symmetry maps as
solution-to-solution transforms.

Every numeric evaluator is generated from the exact rational expressions:
parameters fold into numeric literals, the sparse numerator and denominator
are nested Horner-style in the remaining variables, and the result is
compiled into a plain Python function.  Nothing is hand-transcribed.
A problem with no imaginary part anywhere (path, initial state, parameters)
runs in float arithmetic, with float literals; the values are the real
parts of the complex run, bit for bit.

The stepper is the embedded Runge-Kutta 5(4) pair of Dormand and Prince
with FSAL, parametrized by arclength along each polyline segment.  Its step
is generated code as well, from the same field source as the evaluator,
and a solve compiles the two as one program: straight-line stage
arithmetic on locals with the field's Horner code inlined at each of the
six stages, each distinct denominator computed and guarded once per
stage.  It performs the tableau's float operations in the order of the
textbook loop, so it returns bit-identical results.  A step whose error
estimate is not finite is rejected.  The defect check sums its
finite-difference stencils one state component at a time, again in the
textbook order, for a block of samples at a time, and then evaluates the
field the integrator stepped on one sample at a time.  There is one
stencil, the five-point one, and a segment carries a defect only where it
fits: the integrator stepped across it (it is longer than the minimum
step) and it holds at least five samples.  A trajectory with no such
segment is refused (Unmeasurable), so no run reads a vacuous defect of 0.
A step is clipped to land on every SAMPLES_PER_STEP-th sample (and on a
segment's last one), which takes the step's own state; the samples inside
a step come from the 4th-order continuous extension of Hairer, Norsett and
Wanner, whose coefficients the generated step returns with the new state.
Movable singularities are handled by a denominator-magnitude guard plus
step rejection; when the step size underflows (an accepted step not
clipped to a sample counts too), the partial trajectory comes back
attached to the error, with every sample emitted before it.  A
trajectory serializes a block of samples at a time (`Trajectory.rows`,
one `%` format of a row template per block), so writing it costs memory
for one block, not for the file; the bytes are those of one `json.dumps`
per row.

A numeric problem is one frozen value, `Problem`.  `load_benchmark` reads
and checks one, `push` carries one through a birational map, and `solve`
integrates one and measures its defect, once per problem (uncached for
the pushed problem of a Backlund check).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .algebra import RationalExpression
from .reports import VerificationReport, verdict
from .systems import HamiltonianSystem, make_hamiltonian
from .transforms import BirationalMap

DENOMINATOR_GUARD = 1e-8
DEFAULT_TOL = (1e-10, 1e-10)
DEFAULT_SAMPLES = 2001
DEFECT_THRESHOLD = 1e-8
# a step may span this many sample intervals; the samples inside it are
# interpolated.  At 4 the defect stays near that of one step per sample,
# while a step free of the grid lets the defect on the loop
# [1, 3, [3, 2], [1, 2], 1] at 8001 samples reach 7.3e-8
SAMPLES_PER_STEP = 4


@dataclass(frozen=True)
class Problem:
    """One numeric problem.  `params` are the values of the family's
    parameters in symbol order; a state entry or a path node is a number or
    an (re, im) pair, so the path of a file echoes as it was written."""
    family: str
    params: tuple
    initial_state: tuple
    path: tuple
    tol: tuple[float, float] = DEFAULT_TOL
    samples: int = DEFAULT_SAMPLES


BENCHMARK = Problem("d4", params=(0.125, 0.125, 0.125, 0.25, 0.25),
                    initial_state=(0.5, 1 / 3, 0.2, 1 / 7), path=(1.0, 2.0))


class GuardTrip(ArithmeticError):
    """A denominator magnitude fell under the guard during evaluation;
    `stage` is the Runge-Kutta stage of the evaluation, 0 outside a step."""

    def __init__(self, denominator: int, stage: int = 0):
        super().__init__(f"denominator {denominator}")
        self.stage = stage


class SingularStart(ValueError):
    """The field cannot be evaluated at the requested starting point."""


class ConstraintViolation(ValueError):
    """The parameters do not fit the system: their number is wrong, or a
    coefficient they fold to is not finite."""


class Unmeasurable(ValueError):
    """No segment was stepped across with at least five samples."""


class StepFailure(RuntimeError):
    """Step size underflow; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


# samples that `Trajectory.rows` formats at once: writing the built-in
# problem's 2001 rows peaks at 30 KiB under tracemalloc (27 KiB one row at a
# time), at 44 KiB with blocks of 64 and at 82 KiB with blocks of 128, so
# measure memory again before raising it
_ROW_BLOCK = 32


@dataclass
class Trajectory:
    """Samples of one solution, integrated on the field `evaluator`; times
    and states are floats when the problem has no imaginary part, complex
    otherwise.  `segments` holds the first and last sample of each path
    segment whose defect is measured: stepped across, with at least five
    samples.  `rows` yields the JSON lines of one block of samples at a
    time, so a file is written as it is serialized and no string of the
    whole file is built."""
    times: list[float] | list[complex]
    states: list[tuple[float, ...]] | list[tuple[complex, ...]]
    segments: list[tuple[int, int]]
    evaluator: Callable
    stats: dict = field(default_factory=dict)

    def rows(self) -> Iterator[str]:
        """The JSON lines of `_ROW_BLOCK` samples at a time, newlines
        included, made as they are asked for: `"".join(traj.rows())` is
        the file.  Each line is the `json.dumps` of
        `{"t_re", "t_im", "state": [[re, im], ...]}` plus a newline.  A
        block is one `%` format of a repeated row template, whose `%r` of a
        finite float is the `float.__repr__` that `json.dumps` writes; a
        block that holds a NaN or an infinity is formatted with `%s` and
        the `json.dumps` of each value, so those are written as
        `json.dumps` writes them."""
        width = len(self.states[0]) if self.states else 0
        row = ('{"t_re": %r, "t_im": %r, "state": ['
               + ", ".join(["[%r, %r]"] * width) + "]}\n")
        for lo in range(0, len(self.times), _ROW_BLOCK):
            times = self.times[lo:lo + _ROW_BLOCK]
            flat = []
            for t, s in zip(times, self.states[lo:lo + _ROW_BLOCK]):
                flat += (t.real, t.imag)
                for c in s:
                    flat += (c.real, c.imag)
            template = row * len(times)
            if all(map(math.isfinite, flat)):
                yield template % tuple(flat)
            else:
                yield (template.replace("%r", "%s")
                       % tuple(map(json.dumps, flat)))


def _tuple_src(items: Sequence[str]) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _power_src(name: str, k: int) -> str:
    """name**k; a square is a product, which for a float is the real part of
    the complex square (CPython's integer power multiplies), where C pow
    may differ in the last bit."""
    if k == 1:
        return name
    return f"({name}*{name})" if k == 2 else f"{name}**{k}"


def _horner_src(terms: dict, names: Mapping[str, str], real: bool) -> str:
    """Nested-Horner Python expression for a sparse polynomial with complex
    coefficients, written as complex literals, or as float literals of
    their real parts when `real`."""
    if not terms:
        return "0.0" if real else "0j"
    present = {v for m in terms for v, _ in m}
    if not present:
        ((_, c),) = terms.items()
        return repr(c.real if real else c)
    # ties go to the first name in sorted order, so the source does not
    # depend on the iteration order of a set
    pivot = max(sorted(present),
                key=lambda u: max(dict(m).get(u, 0) for m in terms))
    groups: dict[int, dict] = {}
    for m, c in terms.items():
        md = dict(m)
        e = md.pop(pivot, 0)
        groups.setdefault(e, {})[tuple(sorted(md.items()))] = c
    name = names[pivot]
    expr = None
    prev = 0
    for e in sorted(groups, reverse=True):
        sub = _horner_src(groups[e], names, real)
        if expr is None:
            expr = sub
        else:
            expr = f"({expr})*{_power_src(name, prev - e)}+({sub})"
        prev = e
    if prev:
        expr = f"({expr})*{_power_src(name, prev)}"
    return expr


def _fold_constants(expr_part, constants: Mapping[str, complex],
                    kept: set) -> dict:
    folded: dict = {}
    for mono, coeff in expr_part.items():
        value = complex(coeff)
        rest = []
        for v, e in mono:
            if v in kept:
                rest.append((v, e))
            else:
                value *= complex(constants[v]) ** e
        key = tuple(rest)
        value = folded.get(key, 0j) + value
        if value:
            folded[key] = value
        else:
            folded.pop(key, None)
    for value in folded.values():
        # an infinite or NaN literal would be a bare name in the source
        if not cmath.isfinite(value):
            raise ConstraintViolation(
                f"params: a coefficient folds to {value}, which is not finite")
    return folded


def _field_parts(exprs: Sequence[RationalExpression], order: Sequence[str],
                 constants: Mapping[str, complex]) -> list[tuple[str, str]]:
    """(denominator, numerator) Horner sources of each expression over the
    state locals _s0, _s1, ... and the time local _t.  The constants are
    folded in complex arithmetic; the literals are floats (the real parts
    of the folded values) when every constant is a float."""
    kept = set(order) | {"t"}
    names = {v: f"_s{i}" for i, v in enumerate(order)}
    names["t"] = "_t"
    missing = set()
    for e in exprs:
        missing |= e.variables() - kept - set(constants)
    if missing:
        raise ValueError(f"no value bound for {sorted(missing)}")
    real = all(isinstance(c, float) for c in constants.values())
    return [(_horner_src(_fold_constants(e.den, constants, kept), names, real),
             _horner_src(_fold_constants(e.num, constants, kept), names, real))
            for e in exprs]


def _field_lines(parts: Sequence[tuple[str, str]],
                 stage: int) -> tuple[list[str], list[str]]:
    """Straight-line evaluation of the parts: the body lines and the source
    of each value.  Per expression the order is denominator, guard,
    numerator; a denominator equal to an earlier one is neither recomputed
    nor guarded again, so a trip names the first expression with that
    denominator.  The raised GuardTrip carries `stage`."""
    lines = []
    dens: dict[str, str] = {}
    values = []
    for i, (den, num) in enumerate(parts):
        if den not in dens:
            dens[den] = f"_d{i}"
            lines.append(f"    _d{i} = {den}")
            lines.append(f"    if abs(_d{i}) < _guard: raise _trip({i}, {stage})")
        lines.append(f"    _n{i} = {num}")
        values.append(f"_n{i}/{dens[den]}")
    return lines, values


def _compiled(lines: Sequence[str], filename: str) -> dict:
    """The namespace the source lines define, with DENOMINATOR_GUARD bound
    as the global _guard."""
    namespace = {"_trip": GuardTrip, "_guard": DENOMINATOR_GUARD}
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace


def _function_lines(name: str, parts: Sequence[tuple[str, str]],
                    order: Sequence[str]) -> list[str]:
    """Source of `name`(t, state) -> one value per part, over the state
    variables `order`, with a magnitude guard on every denominator."""
    body, values = _field_lines(parts, 0)
    lines = [f"def {name}(_t, _state):"]
    if order:
        lines.append(f"    {_tuple_src([f'_s{i}' for i in range(len(order))])}"
                     " = _state")
    return lines + body + [f"    return {_tuple_src(values)}"]


def compile_field(f: Mapping[str, RationalExpression],
                  constants: Mapping[str, complex]) -> tuple[Callable, Callable]:
    """The field's evaluator (see _function_lines) and its Dormand-Prince
    step, compiled as one program.  The step is (t_a, unit, s, state, h,
    k0, rtol, atol) -> (new state, its derivative, weighted error,
    continuous extension), where k0 is the derivative at the start of the
    step and the extension holds the coefficients `_extension` reads, per
    component.  A guard trip in the step raises GuardTrip whose `stage`
    (1 to 6) is the number of field evaluations the step made."""
    parts = _field_parts(list(f.values()), tuple(f), constants)
    namespace = _compiled(_function_lines("_rhs", parts, tuple(f))
                          + _dopri_source(parts), "<compiled-field>")
    # popped from the evaluator's globals: a cached trajectory keeps those
    return namespace["_rhs"], namespace.pop("_step")


# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))
# weights of the 4th-order continuous extension (Hairer, Norsett & Wanner,
# Solving ODEs I, II.6; CONTD5 in dopri5.f)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def _numbers(*groups: Sequence) -> list[list]:
    """Each group of numbers or (re, im) pairs as complex values, or all of
    them as floats when none has an imaginary part."""
    values = [[_as_complex(v) for v in g] for g in groups]
    if any(z.imag for g in values for z in g):
        return values
    return [[z.real for z in g] for g in values]


def _segment_sample_counts(nodes: Sequence[complex], samples: int) -> list[int]:
    """Points per segment.  Adjacent segments share their end point, so the
    samples - 1 intervals are split by segment length with largest
    remainder, and a segment left without an interval takes one from the
    segment holding most: the path gets exactly `samples` points."""
    lengths = [abs(b - a) for a, b in zip(nodes, nodes[1:])]
    total = sum(lengths)
    quotas = [(samples - 1) * (ln / total if total else 1 / len(lengths))
              for ln in lengths]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(counts)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[:samples - 1 - sum(counts)]:
        counts[i] += 1
    for i in range(len(counts)):
        if counts[i] == 0:
            counts[counts.index(max(counts))] -= 1
            counts[i] = 1
    return [c + 1 for c in counts]


def integrate_field(f: Mapping[str, RationalExpression],
                    constants: Mapping[str, complex],
                    initial_state: Sequence[complex], path: Sequence,
                    tol: tuple[float, float] = DEFAULT_TOL,
                    samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Adaptive RK5(4) along the polyline.  A step spans at most
    SAMPLES_PER_STEP sample intervals; the sample it lands on takes its
    state, and the samples inside it its continuous extension.  A node or
    a state entry is a number or an (re, im) pair.  When no node, state
    entry or constant has an imaginary part, all of them become floats and
    the whole run is in float arithmetic."""
    if len(path) < 2:
        raise ValueError("path needs at least two nodes")
    if samples < len(path):
        raise ValueError("samples must be at least the number of path nodes")
    nodes, state, values = _numbers(path, initial_state, constants.values())
    state = tuple(state)
    constants = dict(zip(constants, values))
    rhs, dopri_step = compile_field(f, constants)
    rtol, atol = float(tol[0]), float(tol[1])
    # field evaluations: one at the start, six per attempted step, and as
    # many as the stage that tripped the guard
    stats = {"steps": 0, "rejections": 0, "guard_rejections": 0, "evals": 1}
    traj = Trajectory(times=[nodes[0]], states=[state], segments=[],
                      evaluator=rhs, stats=stats)
    try:
        k_last = rhs(nodes[0], state)
    except GuardTrip as exc:
        raise SingularStart(f"field singular at start: {exc}") from None
    counts = _segment_sample_counts(nodes, samples)
    for seg, n_samples in enumerate(counts):
        t_a, t_b = nodes[seg], nodes[seg + 1]
        length = abs(t_b - t_a)
        # a zero-length segment has unit 0 of the nodes' type
        unit = (t_b - t_a) / length if length else t_b - t_a
        seg_start = len(traj.times) - 1
        s = 0.0
        last = n_samples - 1
        h = length / last
        h_min = max(length, 1.0) * 1e-13
        i = 1  # the next sample to emit
        for landing in [*range(SAMPLES_PER_STEP, last, SAMPLES_PER_STEP), last]:
            target = length * landing / last
            while target - s > h_min:
                h_try = min(h, target - s)
                try:
                    trial, k_new, err, dense = dopri_step(
                        t_a, unit, s, state, h_try, k_last, rtol, atol)
                except GuardTrip as exc:
                    stats["evals"] += exc.stage
                    stats["guard_rejections"] += 1
                    h = h_try * 0.5
                    if h < h_min:
                        raise StepFailure("step underflow at denominator guard",
                                          traj) from None
                    continue
                stats["evals"] += 6
                if err <= 1.0:
                    while i < landing and (inner := length * i / last) < s + h_try:
                        traj.times.append(t_a + inner * unit)
                        traj.states.append(_extension(dense, (inner - s) / h_try))
                        i += 1
                    s += h_try
                    state, k_last = trial, k_new
                    stats["steps"] += 1
                    grow = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                    # a step clipped to land on its sample may be short
                    clipped = h_try < h
                    h = h_try * grow
                    if h < h_min and not clipped:
                        raise StepFailure("step underflow near singularity", traj)
                else:
                    stats["rejections"] += 1
                    h = h_try * max(0.2, 0.9 * err ** -0.2)
                    if h < h_min:
                        raise StepFailure("step underflow near singularity", traj)
            # the landing sample takes the state, and so does any sample
            # before it that no step passed: all of a zero-length segment's
            while i <= landing:
                traj.times.append(t_a + length * i / last * unit)
                traj.states.append(state)
                i += 1
            s = target
        # a segment carries a defect if it was stepped across and holds the
        # five-point stencil
        if length > h_min and n_samples >= 5:
            traj.segments.append((seg_start, len(traj.times) - 1))
    return traj


def _dopri_source(parts: Sequence[tuple[str, str]]) -> list[str]:
    """Straight-line source of one Dormand-Prince step of the field whose
    (denominator, numerator) sources are `parts`.

    Each stage binds its argument to the field's locals _s0, ... and _t and
    runs the field's own lines (see _field_lines) on them, so no call,
    tuple or repeated denominator is left between the stages.  The float
    operations and their order are those of the textbook loop: stage
    arguments sum y_i + (step*a)*k_i left to right over the nonzero tableau
    entries, the error estimate starts from its first term, and the weighted
    error is folded component by component, keeping the larger value as
    max() would, or NaN once one is NaN.
    Each product step*a is computed once.  The last stage argument is the
    new state (first same as last: _A[6] is _B5 without its zero), so it is
    not summed twice.  Last come the continuous extension's coefficients
    of each component, as CONTD5 forms them: y0, yd = y1 - y0,
    r3 = step*k0 - yd, r4 = yd - step*k6 - r3 and r5 = step*(sum d_j k_j)."""
    n = len(parts)
    lines = ["def _step(t_a, unit, s, state, h, k0, rtol, atol):",
             f"    {_tuple_src([f'y{i}' for i in range(n)])} = state",
             f"    {_tuple_src([f'k0_{i}' for i in range(n)])} = k0",
             "    step = h * unit"]
    products: dict[str, str] = {}

    def combination(i: int, weights: Sequence[float], row: str) -> str:
        terms = [f"y{i}"]
        for j, w in enumerate(weights):
            if w:
                src = f"step * {w!r}"
                if src not in products:
                    products[src] = f"{row}_{j}"
                    lines.append(f"    {row}_{j} = {src}")
                terms.append(f"{products[src]} * k{j}_{i}")
        return " + ".join(terms)

    for stage in range(1, 7):
        args = [combination(i, _A[stage], f"a{stage}") for i in range(n)]
        lines += [f"    _s{i} = {arg}" for i, arg in enumerate(args)]
        lines.append(f"    _t = t_a + (s + {_C[stage]!r} * h) * unit")
        body, values = _field_lines(parts, stage)
        lines += body
        lines += [f"    k{stage}_{i} = {v}" for i, v in enumerate(values)]
    lines.append("    err = 0.0")
    for i in range(n):
        error = " + ".join(f"{d!r} * k{j}_{i}" for j, d in enumerate(_E) if d)
        lines += [f"    e = {error}",
                  f"    a = abs(y{i})",
                  f"    b = abs(_s{i})",
                  "    sc = atol + rtol * (b if b > a else a)",
                  "    q = abs(e) * h / sc",
                  "    err = q if q > err or q != q else err"]
    for i in range(n):
        weighted = " + ".join(f"{d!r} * k{j}_{i}" for j, d in enumerate(_D) if d)
        lines += [f"    yd{i} = _s{i} - y{i}",
                  f"    r3_{i} = step * k0_{i} - yd{i}",
                  f"    r4_{i} = yd{i} - step * k6_{i} - r3_{i}",
                  f"    r5_{i} = step * ({weighted})"]
    dense = [f"(y{i}, yd{i}, r3_{i}, r4_{i}, r5_{i})" for i in range(n)]
    lines.append(f"    return {_tuple_src([f'_s{i}' for i in range(n)])}, "
                 f"{_tuple_src([f'k6_{i}' for i in range(n)])}, err, "
                 f"{_tuple_src(dense)}")
    return lines


def _extension(dense: Sequence[tuple], theta: float) -> tuple:
    """The state at the fraction theta of a step, from the coefficients
    (y0, yd, r3, r4, r5) of each component's continuous extension; theta
    is a float, so a float run stays the real part of the complex one."""
    eta = 1.0 - theta
    return tuple([y0 + theta * (yd + eta * (r3 + theta * (r4 + eta * r5)))
                  for y0, yd, r3, r4, r5 in dense])


def integrate(system: HamiltonianSystem, params: Sequence,
              initial_state: Sequence, path: Sequence,
              tol: tuple[float, float] = DEFAULT_TOL,
              samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Integrate the system at the parameter values, given in symbol order;
    ConstraintViolation when their number is wrong."""
    symbols = system.params.symbols
    if len(params) != len(symbols):
        raise ConstraintViolation(f"expected {len(symbols)} parameters")
    return integrate_field(system.vector_field(), dict(zip(symbols, params)),
                           initial_state, path, tol=tol, samples=samples)


_FD_INTERIOR = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))
_FD_LEFT0 = ((0, -25 / 12), (1, 48 / 12), (2, -36 / 12), (3, 16 / 12), (4, -3 / 12))
_FD_LEFT1 = ((-1, -3 / 12), (0, -10 / 12), (1, 18 / 12), (2, -6 / 12), (3, 1 / 12))


def _stencil(i: int, lo: int, hi: int):
    """The five-point stencil at sample i of the segment lo..hi."""
    if i - lo >= 2 and hi - i >= 2:
        return _FD_INTERIOR
    if i == lo:
        return _FD_LEFT0
    if i == lo + 1:
        return _FD_LEFT1
    if i == hi:
        return tuple((-o, -c) for o, c in _FD_LEFT0)
    return tuple((-o, -c) for o, c in _FD_LEFT1)


def _stencil_sums(column: Sequence[complex], start: int,
                  stop: int) -> list[complex]:
    """The unscaled finite-difference sums at samples start to stop - 1 of
    one segment's column of states.  Each sum starts from its first term
    and adds coeff * sample in stencil order, so a float column gives float
    sums; the interior samples, which share a stencil, are summed together."""
    last = len(column) - 1
    sums: list[complex] = []
    for lo, hi in ((0, 1), (1, 2), (2, last - 1), (last - 1, last),
                   (last, last + 1)):
        lo, hi = max(lo, start), min(hi, stop)
        if lo >= hi:
            continue
        (offset, coeff), *rest = _stencil(lo, 0, last)
        acc = [coeff * y for y in column[lo + offset:hi + offset]]
        for offset, coeff in rest:
            acc = [a + coeff * y for a, y in
                   zip(acc, column[lo + offset:hi + offset])]
        sums += acc
    return sums


# samples whose differences `residual` holds at once: the differences of a
# whole 8001-sample sweep were about 1 MB at integrate's peak, a block's
# are about 30 kB, and blocking costs a few per cent of its time at most
_RESIDUAL_BLOCK = 256


def residual(traj: Trajectory) -> float:
    """Defect proxy: max |finite-difference derivative - exact field|, on
    the field the trajectory was integrated on.  The differences are
    summed one state component at a time, for a block of samples at a
    time; the field is then evaluated one sample at a time, so no list of
    field values is held, nor of differences beyond one block.
    Unmeasurable when no segment carries a defect."""
    if not traj.segments:
        raise Unmeasurable("no path segment was stepped across with at least "
                           "five samples, so the defect cannot be measured")
    rhs = traj.evaluator
    worst = 0.0
    for lo, hi in traj.segments:
        step = (traj.times[hi] - traj.times[lo]) / (hi - lo)
        states = traj.states[lo:hi + 1]
        columns = [[y[i] for y in states] for i in range(len(states[0]))]
        for start in range(0, len(states), _RESIDUAL_BLOCK):
            stop = start + _RESIDUAL_BLOCK
            sums = [_stencil_sums(column, start, stop) for column in columns]
            for t, y, fds in zip(traj.times[lo + start:lo + stop],
                                 states[start:stop], zip(*sums)):
                for fd, value in zip(fds, rhs(t, y)):
                    gap = abs(fd / step - value)
                    if gap > worst or gap != gap:  # NaN stays
                        worst = gap
    return worst


def push(problem: Problem, m: BirationalMap) -> tuple[Problem, Callable]:
    """The problem carried through the map: parameters by its affine
    action, the first state by the phase images, each path node by the
    time image.  Also returns the map's point map (t, state) -> state' at
    the problem's parameters, which carries the problem's trajectory sample
    by sample.  The point map and the time image are one compiled source.
    GuardTrip when the first state is on a pole of the map."""
    if problem.family != m.family:
        raise ValueError(f"{m.label} acts on {m.family}, not {problem.family}")
    path, state, values = _numbers(problem.path, problem.initial_state,
                                   problem.params)
    system = make_hamiltonian(m.family)
    constants = dict(zip(system.params.symbols, values))
    phase = system.phase_vars()
    namespace = _compiled(
        _function_lines("_point", _field_parts(list(m.var_images.values()),
                                               phase, constants), phase)
        + _function_lines("_time", _field_parts([m.time_image], (), constants),
                          ()), "<point-map>")
    point, time_image = namespace["_point"], namespace["_time"]
    pushed = replace(
        problem, family=m.family_out, initial_state=point(path[0], state),
        params=tuple(sum((c * v for c, v in zip(row, values)), offset)
                     for row, offset in zip(m.param_matrix, m.param_offset)),
        path=tuple(time_image(t, ())[0] for t in path))
    return pushed, point


def _solve(problem: Problem) -> tuple[Trajectory, float]:
    """The problem's trajectory and its defect."""
    trajectory = integrate(make_hamiltonian(problem.family), problem.params,
                           problem.initial_state, problem.path,
                           tol=problem.tol, samples=problem.samples)
    return trajectory, residual(trajectory)


# `_solve` once per problem; callers must not modify the trajectory
solve = cache(_solve)


# the bound on the Backlund check's pointwise gap and on both defects
BACKLUND_THRESHOLD = 1e-6


def verify_backlund_numeric(m: BirationalMap, problem: Problem = BENCHMARK,
                            mutate: Optional[tuple[str, float]] = None
                            ) -> VerificationReport:
    """Solve the problem, push its trajectory through the map pointwise,
    and compare with an independent integration of the pushed problem.

    Passes when the pointwise gap and both trajectory defects stay under
    BACKLUND_THRESHOLD.  `mutate` perturbs one target parameter after the
    map, which breaks the solution correspondence and must flip the
    verdict.  A trajectory whose defect cannot be measured (Unmeasurable)
    fails the row with the refusal as witness."""
    def decide():
        source, defect_src = solve(problem)
        try:
            pushed, point = push(problem, m)
        except GuardTrip as exc:
            return f"initial point singular under the map: {exc}"
        if mutate:
            sym, delta = mutate
            params = list(pushed.params)
            params[make_hamiltonian(m.family_out).params.symbols.index(sym)] += delta
            pushed = replace(pushed, params=tuple(params))
        target, defect_tgt = _solve(pushed)  # read once: not cached
        gap = 0.0
        for t, state, image in zip(source.times, source.states, target.states,
                                   strict=True):
            for a, b in zip(point(t, state), image):
                d = abs(a - b)
                if d > gap or d != d:  # NaN stays
                    gap = d
        # three comparisons, not max(): a NaN fails each one
        if (gap <= BACKLUND_THRESHOLD and defect_src <= BACKLUND_THRESHOLD
                and defect_tgt <= BACKLUND_THRESHOLD):
            return None
        return (f"pointwise gap {gap:.3e}, defects "
                f"{defect_src:.3e}/{defect_tgt:.3e}")

    return verdict(f"numeric/{m.family}/{m.label}" + ("/mutated" if mutate else ""),
                   "numeric", decide, Unmeasurable)


class BenchmarkFileError(ValueError):
    """A benchmark file cannot be read, is not valid JSON (or is nested
    too deeply to decode), does not hold a JSON object, or holds a
    malformed field."""


def _is_number(v) -> bool:
    """A finite JSON number; true and false are not numbers."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _is_complex(v) -> bool:
    """A number or an [re, im] pair of numbers, as _as_complex reads it."""
    return _is_number(v) or (isinstance(v, (list, tuple)) and len(v) == 2
                             and all(map(_is_number, v)))


def _malformed(cfg: Mapping) -> Optional[str]:
    """What is wrong with a benchmark configuration, or None.  An unknown
    family raises UnknownFamily."""
    if not isinstance(cfg["family"], str):
        return "family must be a family name"
    system = make_hamiltonian(cfg["family"])
    n = len(system.phase_vars())
    for key, ok, shape in (
            ("initial_state", lambda v: len(v) == n and all(map(_is_complex, v)),
             f"a list of {n} numbers or [re, im] pairs"),
            ("path", lambda v: len(v) >= 2 and all(map(_is_complex, v)),
             "a list of at least two numbers or [re, im] pairs"),
            ("tol", lambda v: len(v) == 2 and all(_is_number(e) and e > 0 for e in v),
             "a list of two positive numbers [rtol, atol]"),
            ("params", lambda v: all(map(_is_number, v)), "a list of numbers")):
        if not (isinstance(cfg[key], (list, tuple)) and ok(cfg[key])):
            return f"{key} must be {shape}"
    nodes = [_as_complex(v) for v in cfg["path"]]
    try:  # abs() raises past the largest float; b - a may already be inf
        lengths = [abs(b - a) for a, b in zip(nodes, nodes[1:])]
    except OverflowError:
        lengths = [math.inf]
    if not all(map(math.isfinite, lengths)):
        return "path: a segment is too long, its length is not a finite float"
    least = len(cfg["path"])
    if not (type(cfg["samples"]) is int and cfg["samples"] >= least):
        return f"samples must be an integer of at least {least}, one per path node"
    threshold = cfg["defect_threshold"]
    if not (_is_number(threshold) and threshold >= 0):
        return "defect_threshold must be a non-negative number"
    symbols = system.params.symbols
    if len(cfg["params"]) != len(symbols):
        return f"params: expected {len(symbols)} parameters"
    miss = abs(system.params.constraint_residual(
        {s: complex(v) for s, v in zip(symbols, cfg["params"])}))
    if not miss <= 1e-12:  # NaN fails too
        return f"params: normalization violated by {miss:.3e}"
    return None


def _frozen(v):
    """Lists as tuples, at every depth."""
    return tuple(map(_frozen, v)) if isinstance(v, (list, tuple)) else v


def load_benchmark(source) -> tuple[Problem, float]:
    """The problem and defect threshold of a mapping or of a JSON file
    holding one object, whose keys override BENCHMARK's fields and
    DEFECT_THRESHOLD.  Raises BenchmarkFileError when a field is malformed
    or the parameters miss their normalization by more than 1e-12."""
    where = "benchmark"
    if isinstance(source, Mapping):
        cfg = dict(source)
    else:
        where = f"benchmark file {source}"
        try:
            with open(source, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise BenchmarkFileError(
                f"{where}: cannot be read ({exc.strerror or exc})") from None
        # bad JSON, bad UTF-8, or arrays nested too deeply to decode
        except (ValueError, RecursionError) as exc:
            raise BenchmarkFileError(f"{where}: not valid JSON ({exc})") from None
        if not isinstance(cfg, dict):
            raise BenchmarkFileError(
                f"{where}: expected a JSON object, got {type(cfg).__name__}")
    merged = {**asdict(BENCHMARK), "defect_threshold": DEFECT_THRESHOLD}
    unknown = sorted(set(cfg) - set(merged))
    if unknown:
        raise BenchmarkFileError(
            f"{where}: unknown key {', '.join(map(repr, unknown))}")
    merged.update(cfg)
    fault = _malformed(merged)
    if fault:
        raise BenchmarkFileError(f"{where}: {fault}")
    threshold = float(merged.pop("defect_threshold"))
    return Problem(**{k: _frozen(v) for k, v in merged.items()}), threshold

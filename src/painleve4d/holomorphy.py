"""Canonical coordinate charts in which the cataloged systems stay
polynomial, plus the machinery that certifies this: transport of a system
into a chart, an exact polynomiality decision, reconstruction of the chart
Hamiltonian from the transported field, and a random cross-check.

A chart holds the images of the chart coordinates in the source ones
(forward) and an explicit inverse, the source coordinates in the chart
ones; each inverse is triangular in one canonical pair.  Chart coordinates
keep the names of the source coordinates, and substitution is
simultaneous, so each direction is one substitution.  Charts are validated
at construction: transforms.bracket_defects must find no broken canonical
bracket among the images, and inverse[v].substitute(forward) must be v for
every phase variable.  The transported field is the chain rule followed by
one substitution of the inverse, total_derivative(forward[v],
field).substitute(inverse), so no Hamiltonian transformation law is
assumed; when the transported field is polynomial, the chart Hamiltonian
is recovered by integrating the field and checking the mixed-partial
conditions.

The chart catalog is built once per process, and each (system, chart)
pair is transported at most once (chart_field is cached), so the
polynomiality row, the K row and the random cross-check of a chart all
read one transported field.  Systems and charts compare and hash by
identity, so a modified system of a cataloged family gets a transport of
its own, and an EliminationFails is raised again on every call.

The random cross-check specializes every name but one phase variable of a
component with a phase denominator at a seeded point (transforms.sample_point,
names in sorted order) and asks the kernel's exact division whether the
univariate denominator divides the numerator.  No cataloged chart field has
a phase denominator, so on the catalog it samples nothing and only reads
the transported fields.

The t-shear charts are transcribed with denominator z in the linear term
(w - 2*a4/z + t/z^2).  The printed source once shows w in that denominator,
which cannot be a canonical transformation: the bracket {z4, w4} would pick
up a 2*a4/w^2 term.  The construction-time bracket check enforces the
consistent reading.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Optional, Sequence

from .algebra import (Polynomial, RationalExpression, format_point, rational,
                      variable)
from .reports import VerificationReport, clip_witness, report
from .systems import (FieldComponents, HamiltonianSystem, make_hamiltonian,
                      total_derivative)
from .transforms import (DEFAULT_SAMPLES, bracket_defects, sample_point,
                         sampled)

PAIRS_4D = (("x", "y"), ("z", "w"))


class UnknownChart(KeyError):
    pass


class ChartConstructionError(ValueError):
    """The chart failed its bracket or inversion self-check."""


class EliminationFails(ValueError):
    """The chart inverse does not eliminate the source coordinates."""


class NotHamiltonian(ValueError):
    """A mixed-partial compatibility condition has nonzero residual."""


@dataclass(frozen=True, eq=False)
class ChartTransform:
    """A canonical chart: images of the new coordinates in the source ones,
    and the inverse, the source coordinates in the new ones.  Both are keyed
    by the phase variables, and new coordinates share the source names.
    Compares and hashes by identity."""

    chart_set: str
    index: str
    forward: Mapping[str, RationalExpression]
    inverse: Mapping[str, RationalExpression]
    pairs: tuple[tuple[str, str], ...] = PAIRS_4D

    def phase_vars(self) -> tuple[str, ...]:
        return tuple(v for pair in self.pairs for v in pair)

    def __post_init__(self):
        defects = bracket_defects(self.forward, self.pairs)
        if defects:
            raise ChartConstructionError(
                f"{self.chart_set}/{self.index}: bracket {defects[0]}")
        for v in self.phase_vars():
            if not self.inverse[v].substitute(self.forward).equals(variable(v)):
                raise ChartConstructionError(
                    f"{self.chart_set}/{self.index}: inverse fails on {v}")


def _chart(chart_set: str, index: str, forward: dict[str, RationalExpression],
           inverse: dict[str, RationalExpression],
           pairs: tuple[tuple[str, str], ...] = PAIRS_4D) -> ChartTransform:
    phase = tuple(v for pair in pairs for v in pair)
    return ChartTransform(
        chart_set=chart_set, index=index,
        forward={v: forward.get(v, variable(v)) for v in phase},
        inverse={v: inverse.get(v, variable(v)) for v in phase}, pairs=pairs)


def compose_charts(outer: ChartTransform, inner: ChartTransform) -> ChartTransform:
    """The chart obtained by applying inner first, then outer on its output."""
    phase = inner.phase_vars()
    return ChartTransform(
        chart_set=outer.chart_set, index=outer.index,
        forward={v: outer.forward[v].substitute(inner.forward) for v in phase},
        inverse={v: inner.inverse[v].substitute(outer.inverse) for v in phase},
        pairs=inner.pairs)


def _build_charts() -> dict[str, dict[str, ChartTransform]]:
    x, y, z, w, t = (variable(v) for v in "xyzwt")
    a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))

    def x_flip(chart_set, index, offset_param, unit_shift):
        # x' = 1/x, y' = -((y - shift)x + a)x with triangular inverse
        shift = rational(1) if unit_shift else rational(0)
        return _chart(
            chart_set, index,
            {"x": 1 / x, "y": -((y - shift) * x + offset_param) * x},
            {"x": 1 / x, "y": shift - (x * y + offset_param) * x})

    def z_flip(chart_set, index, offset_param, time_shift):
        shift = t if time_shift else rational(0)
        return _chart(
            chart_set, index,
            {"z": 1 / z, "w": -z * ((w - shift) * z + offset_param)},
            {"z": 1 / z, "w": shift - (z * w + offset_param) * z})

    def y_shear(chart_set, index):
        return _chart(
            chart_set, index,
            {"y": y - 2 * a0 / x + 1 / x ** 2},
            {"y": y + 2 * a0 / x - 1 / x ** 2})

    def w_shear(chart_set, index):
        return _chart(
            chart_set, index,
            {"w": w - 2 * a4 / z + t / z ** 2},
            {"w": w + 2 * a4 / z - t / z ** 2})

    def gap_fold(chart_set, index):
        # x' = -((x - z)y - a2)y, y' = 1/y, w' = w + y
        return _chart(
            chart_set, index,
            {"x": -((x - z) * y - a2) * y, "y": 1 / y, "w": w + y},
            {"x": z + (a2 - x * y) * y, "y": 1 / y, "w": w - 1 / y})

    d4_r1 = x_flip("d4", "r1", a1, unit_shift=False)
    d52_r1 = x_flip("d52", "r1", a1, unit_shift=False)
    return {
        "d4": {
            "r0": x_flip("d4", "r0", a0, unit_shift=True),
            "r1": d4_r1,
            "r2": compose_charts(gap_fold("d4", "r2"), d4_r1),
            "r3": z_flip("d4", "r3", a3, time_shift=False),
            "r4": z_flip("d4", "r4", a4, time_shift=True),
        },
        "b4f": {
            "r0": y_shear("b4f", "r0"),
            "r1": x_flip("b4f", "r1", a1, unit_shift=False),
            "r2": gap_fold("b4f", "r2"),
            "r3": z_flip("b4f", "r3", a3, time_shift=False),
            "r4": z_flip("b4f", "r4", a4, time_shift=True),
        },
        "b4s": {
            "r0": x_flip("b4s", "r0", a0, unit_shift=True),
            "r1": x_flip("b4s", "r1", a1, unit_shift=False),
            "r2": gap_fold("b4s", "r2"),
            "r3": z_flip("b4s", "r3", a3, time_shift=False),
            "r4": w_shear("b4s", "r4"),
        },
        "d52": {
            "r0": y_shear("d52", "r0"),
            "r1": d52_r1,
            "r2": compose_charts(gap_fold("d52", "r2"), d52_r1),
            "r3": z_flip("d52", "r3", a3, time_shift=False),
            "r4": w_shear("d52", "r4"),
        },
        "open-probe": {
            "r0": x_flip("open-probe", "r0", a0, unit_shift=True),
            "r1": x_flip("open-probe", "r1", a1, unit_shift=False),
            "r2": gap_fold("open-probe", "r2"),
            "r3": z_flip("open-probe", "r3", a3, time_shift=False),
            "r4": z_flip("open-probe", "r4", a4, time_shift=True),
        },
    }


_charts = cache(_build_charts)


CHART_SETS = ("d4", "b4f", "b4s", "d52", "open-probe")
CHART_INDICES = ("r0", "r1", "r2", "r3", "r4")


def chart(chart_set: str, index: str) -> ChartTransform:
    try:
        return _charts()[chart_set][index]
    except KeyError:
        raise UnknownChart(f"{chart_set}/{index}") from None


def to_chart(system: HamiltonianSystem, c: ChartTransform) -> FieldComponents:
    """The system's field in chart coordinates: chain rule, then elimination
    of the source coordinates through the chart inverse."""
    field_src = system.vector_field()
    phase = c.phase_vars()
    if field_src.order != phase:
        raise EliminationFails(
            f"chart variables {phase} do not match system {field_src.order}")
    comps = {v: total_derivative(c.forward[v], field_src).substitute(c.inverse)
             for v in phase}
    return FieldComponents(order=phase, components=comps, time=field_src.time)


def time_only_denominator(expr: RationalExpression,
                          phase: Sequence[str]) -> Optional[RationalExpression]:
    """Rewrite with denominator free of the phase variables when possible.

    Splits off the denominator's monomial content, cancels any phase part of
    it against the numerator, and clears the remaining factor by exact
    division; denominators in t (or the parameters) alone are acceptable as
    is.  Returns None when the expression is not a polynomial in the phase
    variables over the coefficient field."""
    phase_set = set(phase)
    den = expr.den
    if not (den.variables() & phase_set):
        return expr
    mono_exps = den.min_exponents()
    stripped = den.strip_monomial(mono_exps)
    phase_mono = {v: e for v, e in mono_exps.items() if v in phase_set}
    free_mono = {v: e for v, e in mono_exps.items() if v not in phase_set}
    num = expr.num
    if phase_mono:
        num_exps = num.min_exponents()
        if any(num_exps.get(v, 0) < e for v, e in phase_mono.items()):
            return None
        num = num.strip_monomial(phase_mono)
    if stripped.variables() & phase_set:
        quotient = num.exact_div(stripped)
        if quotient is None:
            return None
        num = quotient
        stripped = Polynomial.constant(1)
    tail = Polynomial.constant(1)
    for v, e in sorted(free_mono.items()):
        tail = tail * Polynomial({((v, e),): Fraction(1)})
    return RationalExpression(num, stripped * tail)


@cache
def chart_field(system: HamiltonianSystem, c: ChartTransform) -> FieldComponents:
    """The system's field in chart c with the first parameter eliminated."""
    pushed = to_chart(system, c)
    comps = {v: system.params.normalize(pushed[v]) for v in pushed.order}
    return FieldComponents(order=pushed.order, components=comps, time=pushed.time)


def verify_chart_polynomiality(system: HamiltonianSystem,
                               chart_set: str) -> list[VerificationReport]:
    """One report per chart of the set: every transported component must be
    polynomial in the chart phase variables over C(t)."""
    out = []
    for index in CHART_INDICES:
        c = chart(chart_set, index)
        start = time.monotonic()
        name = f"holomorphy/{chart_set}/{index}/{system.family}"
        try:
            transported = chart_field(system, c)
        except EliminationFails as exc:
            out.append(report(name, False, "exact", family=system.family,
                              witness=str(exc), started=start))
            continue
        bad = []
        for v in transported.order:
            if time_only_denominator(transported[v], transported.order) is None:
                bad.append(f"d{v}/dt has phase denominator "
                           f"{clip_witness(repr(transported[v].den))}")
        out.append(report(name, not bad, "exact", family=system.family,
                          witness="; ".join(bad) or None, started=start))
    return out


def reconstruct_hamiltonian(field: FieldComponents,
                            pairs: tuple[tuple[str, str], ...]) -> RationalExpression:
    """Recover K with dU/dt = dK/dV, dV/dt = -dK/dU from a polynomial field.

    Raises NotHamiltonian when a mixed-partial compatibility condition fails.
    The result carries no phase-free terms."""
    phase = [v for pair in pairs for v in pair]
    gradient = {}
    for u, v in pairs:
        gradient[v] = field[u]
        gradient[u] = -field[v]
    for v, g in list(gradient.items()):
        cleaned = time_only_denominator(g, phase)
        if cleaned is None:
            raise NotHamiltonian(
                f"dK/d{v} is not polynomial in the phase variables: "
                f"{clip_witness(repr(g.den))}")
        gradient[v] = cleaned
    for i, a in enumerate(phase):
        for b in phase[i + 1:]:
            residual = gradient[a].diff(b) - gradient[b].diff(a)
            if not residual.is_zero():
                raise NotHamiltonian(
                    f"d^2K/d{a}d{b} mismatch: {clip_witness(repr(residual))}")
    total = rational(0)
    for v in phase:
        residual = gradient[v] - total.diff(v)
        total = total + _integrate_poly(residual, v)
    total = _drop_phase_free(total, phase)
    for v in phase:
        if not total.diff(v).equals(gradient[v]):
            raise NotHamiltonian(f"integration failed to match d/d{v}")
    return total


def _integrate_poly(expr: RationalExpression, var: str) -> RationalExpression:
    bump = Polynomial({((var, 1),): Fraction(1)})
    num = Polynomial.zero()
    for mono, coeff in expr.num.items():
        e = dict(mono).get(var, 0)
        num = num + Polynomial({mono: Fraction(coeff, e + 1)}) * bump
    return RationalExpression(num, expr.den)


def _drop_phase_free(expr: RationalExpression, phase: Sequence[str]) -> RationalExpression:
    keep = {m: c for m, c in expr.num.items()
            if any(v in dict(m) for v in phase)}
    return RationalExpression(Polynomial(keep), expr.den)


def verify_chart_hamiltonians(system: HamiltonianSystem,
                              chart_set: str) -> list[VerificationReport]:
    """Reconstruction succeeds in every chart of the set and the recovered
    K is polynomial in the chart phase variables."""
    out = []
    for index in CHART_INDICES:
        c = chart(chart_set, index)
        start = time.monotonic()
        name = f"holomorphy/K/{chart_set}/{index}/{system.family}"
        try:
            transported = chart_field(system, c)
            k = reconstruct_hamiltonian(transported, c.pairs)
        except (EliminationFails, NotHamiltonian) as exc:
            out.append(report(name, False, "exact", family=system.family,
                              witness=clip_witness(str(exc)), started=start))
            continue
        ok = not (k.den.variables() & set(transported.order))
        out.append(report(name, ok, "exact", family=system.family,
                          witness=None if ok else f"K denominator {k.den!r}",
                          started=start))
    return out


def polynomiality_random_check(system: HamiltonianSystem, chart_set: str,
                               seed: int = 0,
                               samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    """Independent probabilistic route: specialize all but one phase variable
    at random and demand the univariate denominator divide the numerator."""
    start = time.monotonic()
    name = f"holomorphy/random/{chart_set}/{system.family}"
    rng = random.Random(seed)
    for index in CHART_INDICES:
        transported = chart_field(system, chart(chart_set, index))
        phase = set(transported.order)
        for v in transported.order:
            expr = transported[v]
            for kept in sorted(expr.den.variables() & phase):
                names = sorted((expr.variables() | {"t"}) - {kept})

                def trial(point):
                    special = expr.substitute({u: rational(c) for u, c in point.items()})
                    if special.num.exact_div(special.den) is None:
                        return f"d{v}/dt remainder in {kept} at {format_point(point)}"
                    return None

                ok, witness = sampled(rng, samples,
                                      lambda r: sample_point(r, names), trial)
                if not ok:
                    return report(name, False, "random", family=system.family,
                                  witness=f"{index}: {witness}", seed=seed,
                                  samples=samples, started=start)
    return report(name, True, "random", family=system.family,
                  seed=seed, samples=samples, started=start)


def probe_assumption_a(system: Optional[HamiltonianSystem] = None) -> list[VerificationReport]:
    """Run the open chart list against a Hamiltonian and report outcomes.
    Nothing is asserted: whether any system fits all five charts is open."""
    if system is None:
        system = make_hamiltonian("d4")
    return verify_chart_polynomiality(system, "open-probe")

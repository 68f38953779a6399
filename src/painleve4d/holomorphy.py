"""Canonical coordinate charts in which the cataloged systems stay
polynomial, plus the machinery that certifies this: transport of a system
into a chart, an exact polynomiality decision, reconstruction of the chart
Hamiltonian from the transported field, and a random cross-check.

The charts are derived from the reflections in the generator catalog:
chart r_i resolves the pole divisor of the family's i-th reflection
(weyl.REFLECTIONS; Matano, Matumiya & Takano 1999), and the open-probe
set is the atlas of d4alt.

A chart is a transforms.Change keyed by the phase variables: the images
of the chart coordinates in the source ones (forward) and an explicit
inverse, the source coordinates in the chart ones, each inverse triangular
in one canonical pair.  Chart coordinates keep the names of the source
coordinates.  Charts are validated at construction:
transforms.bracket_defects must find no broken canonical bracket among the
images, and the Change checks that each direction undoes the other.  The
transported field is Change.transport, the chain rule followed by one
substitution of the inverse, so no Hamiltonian transformation law is
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
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .algebra import (Polynomial, RationalExpression, format_point, rational,
                      variable)
from .reports import VerificationReport, clip_witness, report
from .systems import FieldComponents, HamiltonianSystem, make_hamiltonian
from .transforms import (DEFAULT_SAMPLES, BirationalMap, BrokenChange, Change,
                         bracket_defects, generator, sample_point, sampled)
from .weyl import REFLECTIONS

PAIRS_4D = (("x", "y"), ("z", "w"))


class UnknownChart(KeyError):
    pass


class EliminationFails(ValueError):
    """The chart's phase variables are not the system's."""


class NotHamiltonian(ValueError):
    """A mixed-partial compatibility condition has nonzero residual."""


@dataclass(frozen=True, eq=False)
class ChartTransform(Change):
    """A canonical chart: a Change keyed by the phase variables whose
    forward images keep the canonical brackets.  Compares and hashes by
    identity."""

    chart_set: str
    index: str
    pairs: tuple[tuple[str, str], ...] = PAIRS_4D

    def phase_vars(self) -> tuple[str, ...]:
        return tuple(v for pair in self.pairs for v in pair)

    def __post_init__(self):
        name = f"{self.chart_set}/{self.index}"
        defects = bracket_defects(self.forward, self.pairs)
        if defects:
            raise BrokenChange(f"{name}: bracket {defects[0]}")
        try:
            super().__post_init__()
        except BrokenChange as exc:
            raise BrokenChange(f"{name}: {exc}") from None


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


class NoChartRule(ValueError):
    """A reflection of no shape the chart rule knows."""


def _pole(shift: RationalExpression, v: str, phase: set[str]):
    """(alpha, c) when shift is alpha/(v - c), alpha free of the phase
    variables and c free of v, read off its numerator and denominator."""
    k = shift.den.diff(v)
    rest = shift.den - k * Polynomial.variable(v)
    if (k.variables() or k.is_zero() or v in rest.variables()
            or shift.num.variables() & phase):
        return None
    return RationalExpression(shift.num, k), RationalExpression(-rest, k)


def reflection_chart(chart_set: str, index: str, m: BirationalMap) -> ChartTransform:
    """The chart resolving the divisor where the reflection m has its pole.
    Every phase image is negated first when m sends x to -x.  Then
    q -> q + alpha/(p - c) on a pair (q, p) gives (1/q, -((p - c)q + alpha)q);
    y -> y - alpha/(x - z), w -> w + alpha/(x - z) gives the gap fold
    (-((x - z)y - alpha)y, 1/y, w + y); and a shear p -> p + f(q), f with a
    pole in q but not alpha/(q - c), is its own chart.  Any other shape, the
    mirrored p -> p + alpha/(q - c) among them, raises NoChartRule."""
    pairs = make_hamiltonian(m.family).pairs
    phase = set(m.var_images)
    first = variable(pairs[0][0])
    sign = -1 if m.var_images[pairs[0][0]].equals(-first) else 1
    shift = {v: sign * img - variable(v) for v, img in m.var_images.items()}
    shift = {v: f for v, f in shift.items() if not f.is_zero()}
    for q, p in pairs:
        qv, pv = variable(q), variable(p)
        pole = _pole(shift[q], p, phase) if list(shift) == [q] else None
        if pole and not pole[1].variables() & phase:
            alpha, c = pole
            return _chart(chart_set, index,
                          {q: 1 / qv, p: -((pv - c) * qv + alpha) * qv},
                          {q: 1 / qv, p: c - (qv * pv + alpha) * qv}, pairs)
        f = shift[p] if list(shift) == [p] else None
        if (f and f.variables() & phase == {q} and q in f.den.variables()
                and not _pole(f, q, phase)):
            return _chart(chart_set, index, {p: pv + f}, {p: pv - f}, pairs)
    if len(pairs) == 2 and list(shift) == [pairs[0][1], pairs[1][1]]:
        (q1, p1), (q2, p2) = pairs
        pole = _pole(shift[p1], q1, phase)
        if (pole and pole[1].equals(variable(q2))
                and shift[p2].equals(-shift[p1])):
            alpha = -pole[0]
            x, y, z, w = (variable(v) for v in (q1, p1, q2, p2))
            return _chart(chart_set, index,
                          {q1: -((x - z) * y - alpha) * y, p1: 1 / y, p2: w + y},
                          {q1: z + (alpha - x * y) * y, p1: 1 / y,
                           p2: w - 1 / y}, pairs)
    raise NoChartRule(f"{chart_set}/{index}: no chart rule for the shape of "
                      f"{m.family}/{m.label}")


# the chart sets the paper claims, one per family; open-probe, the atlas
# of d4alt, is observational
CLAIMED_CHART_SETS = ("d4", "b4f", "b4s", "d52")
CHART_SETS = CLAIMED_CHART_SETS + ("open-probe",)
CHART_INDICES = ("r0", "r1", "r2", "r3", "r4")


def _build_charts() -> dict[str, dict[str, ChartTransform]]:
    sets = {}
    for chart_set in CHART_SETS:
        family = "d4alt" if chart_set == "open-probe" else chart_set
        charts = sets[chart_set] = {}
        for index, label in zip(CHART_INDICES, REFLECTIONS[family]):
            # d4 and d52 reach the divisor xz - 1 of s2 only through r1:
            # their r2 is the chart of d4alt's w2 composed after r1
            composite = chart_set in ("d4", "d52") and index == "r2"
            fam, lab = ("d4alt", "w2") if composite else (family, label)
            charts[index] = reflection_chart(chart_set, index, generator(fam, lab))
            if composite:
                charts[index] = compose_charts(charts[index], charts["r1"])
    return sets


_charts = cache(_build_charts)


def chart(chart_set: str, index: str) -> ChartTransform:
    try:
        return _charts()[chart_set][index]
    except KeyError:
        raise UnknownChart(f"{chart_set}/{index}") from None


def to_chart(system: HamiltonianSystem, c: ChartTransform) -> FieldComponents:
    """The system's field in chart coordinates."""
    field = system.vector_field()
    if field.order != c.phase_vars():
        raise EliminationFails(f"chart variables {c.phase_vars()} do not "
                               f"match system {field.order}")
    return c.transport(field)


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
    """Run d4alt's derived atlas, the open-probe set, against a Hamiltonian
    and report outcomes.  Nothing is asserted: whether any system fits all
    five charts is open."""
    if system is None:
        system = make_hamiltonian("d4")
    return verify_chart_polynomiality(system, "open-probe")

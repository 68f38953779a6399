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
is recovered by integrating the field and checking that its gradient
gives back the field.

Each chart set is built once per process, when a row first reads it
(chart_set_charts is cached per set), and each (system, chart)
pair is transported at most once (chart_field is cached), so the
polynomiality row, the K row and the random cross-check of a chart all
read one transported field.  Systems and charts compare and hash by
identity, so a modified system of a cataloged family gets a transport of
its own, and an EliminationFails is raised again on every call.

The random cross-check specializes every name but one phase variable of a
component with a phase denominator at a seeded point of F_p
(transforms.sample_residues, names in sorted order) and asks the kernel's
exact division whether the univariate denominator divides the numerator.
No cataloged chart field has a phase denominator, so on the catalog it
samples nothing and only reads the transported fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Optional, Sequence

from .algebra import (Polynomial, RationalExpression, format_point, rational,
                      variable)
from .reports import VerificationReport, verdict
from .systems import PAIRS_4D, HamiltonianSystem, make_hamiltonian, phase_vars
from .transforms import (DEFAULT_SAMPLES, BirationalMap, BrokenChange, Change,
                         bracket_defects, generator, sample_residues, sampled)
from .weyl import REFLECTIONS


class UnknownChart(KeyError):
    pass


class EliminationFails(ValueError):
    """The chart's phase variables are not the system's."""


class NotHamiltonian(ValueError):
    """A transported field is not the Hamiltonian field of any K."""


@dataclass(frozen=True, eq=False)
class ChartTransform(Change):
    """A canonical chart: a Change keyed by the phase variables whose
    forward images keep the canonical brackets.  Compares and hashes by
    identity."""

    chart_set: str
    index: str
    pairs: tuple[tuple[str, str], ...] = PAIRS_4D

    def phase_vars(self) -> tuple[str, ...]:
        return phase_vars(self.pairs)

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
    phase = phase_vars(pairs)
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


@cache
def chart_set_charts(chart_set: str) -> dict[str, ChartTransform]:
    """The set's five charts, keyed by CHART_INDICES, built on first read."""
    if chart_set not in CHART_SETS:
        raise UnknownChart(chart_set)
    family = "d4alt" if chart_set == "open-probe" else chart_set
    charts = {}
    for index, label in zip(CHART_INDICES, REFLECTIONS[family]):
        # d4 and d52 reach the divisor xz - 1 of s2 only through r1:
        # their r2 is the chart of d4alt's w2 composed after r1
        composite = chart_set in ("d4", "d52") and index == "r2"
        fam, lab = ("d4alt", "w2") if composite else (family, label)
        charts[index] = reflection_chart(chart_set, index, generator(fam, lab))
        if composite:
            charts[index] = compose_charts(charts[index], charts["r1"])
    return charts


def chart(chart_set: str, index: str) -> ChartTransform:
    try:
        return chart_set_charts(chart_set)[index]
    except KeyError:
        raise UnknownChart(f"{chart_set}/{index}") from None


def to_chart(system: HamiltonianSystem,
             c: ChartTransform) -> dict[str, RationalExpression]:
    """The system's field in chart coordinates."""
    field = system.vector_field()
    if tuple(field) != c.phase_vars():
        raise EliminationFails(f"chart variables {c.phase_vars()} do not "
                               f"match system {tuple(field)}")
    return c.transport(field)


def time_only_denominator(expr: RationalExpression,
                          phase: Sequence[str]) -> Optional[RationalExpression]:
    """Rewrite with denominator free of the phase variables when possible.

    Splits off the denominator's monomial content and clears the remaining
    factor by exact division; denominators in t (or the parameters) alone
    are acceptable as is.  Returns None when the expression is not a
    polynomial in the phase variables over the coefficient field."""
    phase_set = set(phase)
    den = expr.den
    if not (den.variables() & phase_set):
        return expr
    mono_exps = den.min_exponents()
    # the constructor cancels the monomial factors that the numerator and
    # denominator share, so a phase monomial left here divides nothing
    if mono_exps.keys() & phase_set:
        return None
    quotient = expr.num.exact_div(den.strip_monomial(mono_exps))
    if quotient is None:
        return None
    tail = Polynomial.constant(1)
    for v, e in sorted(mono_exps.items()):
        tail = tail * Polynomial({((v, e),): Fraction(1)})
    return RationalExpression(quotient, tail)


@cache
def chart_field(system: HamiltonianSystem,
                c: ChartTransform) -> dict[str, RationalExpression]:
    """The system's field in chart c with the first parameter eliminated;
    shared through the cache, so callers do not modify it."""
    return {v: system.params.normalize(rhs)
            for v, rhs in to_chart(system, c).items()}


def verify_chart_polynomiality(system: HamiltonianSystem,
                               chart_set: str) -> list[VerificationReport]:
    """One report per chart of the set: every transported component must be
    polynomial in the chart phase variables over C(t)."""
    def decide(index):
        transported = chart_field(system, chart(chart_set, index))
        phase = tuple(transported)
        return "; ".join(f"d{v}/dt has phase denominator {rhs.den!r}"
                         for v, rhs in transported.items()
                         if time_only_denominator(rhs, phase) is None) or None

    return [verdict(f"holomorphy/{chart_set}/{index}/{system.family}", "exact",
                    lambda: decide(index), EliminationFails)
            for index in CHART_INDICES]


def reconstruct_hamiltonian(field: Mapping[str, RationalExpression],
                            pairs: tuple[tuple[str, str], ...]) -> RationalExpression:
    """Recover K with dU/dt = dK/dV, dV/dt = -dK/dU from a polynomial field.

    The gradient is integrated one phase variable at a time, and one check
    decides: dK/dv must equal the gradient's v-component for every v, which
    fails whenever the gradient is not closed.  Raises NotHamiltonian when
    a component is not polynomial in the phase variables or the check
    fails.  Every integrated term carries its variable of integration, so
    K has no phase-free terms."""
    phase = phase_vars(pairs)
    gradient = {}
    for u, v in pairs:
        gradient[v] = field[u]
        gradient[u] = -field[v]
    for v, g in list(gradient.items()):
        cleaned = time_only_denominator(g, phase)
        if cleaned is None:
            raise NotHamiltonian(
                f"dK/d{v} is not polynomial in the phase variables: {g.den!r}")
        gradient[v] = cleaned
    total = rational(0)
    for v in phase:
        residual = gradient[v] - total.diff(v)
        total = total + _integrate_poly(residual, v)
    for v in phase:
        residual = total.diff(v) - gradient[v]
        if not residual.is_zero():
            raise NotHamiltonian(f"dK/d{v} mismatch: {residual!r}")
    return total


def _integrate_poly(expr: RationalExpression, var: str) -> RationalExpression:
    bump = Polynomial({((var, 1),): Fraction(1)})
    num = Polynomial.zero()
    for mono, coeff in expr.num.items():
        e = dict(mono).get(var, 0)
        num = num + Polynomial({mono: Fraction(coeff, e + 1)}) * bump
    return RationalExpression(num, expr.den)


def verify_chart_hamiltonians(system: HamiltonianSystem,
                              chart_set: str) -> list[VerificationReport]:
    """Reconstruction succeeds in every chart of the set.  K's denominator
    is then free of the chart phase variables, since every gradient
    component's is, so K is polynomial in them."""
    def decide(index):
        c = chart(chart_set, index)
        reconstruct_hamiltonian(chart_field(system, c), c.pairs)

    return [verdict(f"holomorphy/K/{chart_set}/{index}/{system.family}", "exact",
                    lambda: decide(index), EliminationFails, NotHamiltonian)
            for index in CHART_INDICES]


def polynomiality_random_check(system: HamiltonianSystem, chart_set: str,
                               seed: int = 0,
                               samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    """Independent probabilistic route: specialize all but one phase variable
    at random and demand the univariate denominator divide the numerator."""
    def decide():
        rng = random.Random(seed)
        for index in CHART_INDICES:
            transported = chart_field(system, chart(chart_set, index))
            phase = set(transported)
            for v, expr in transported.items():
                for kept in sorted(expr.den.variables() & phase):
                    names = sorted((expr.variables() | {"t"}) - {kept})

                    def trial(point):
                        special = expr.substitute(
                            {u: rational(c) for u, c in point.items()})
                        if special.num.exact_div(special.den) is None:
                            return f"d{v}/dt remainder in {kept} at {format_point(point)}"
                        return None

                    witness = sampled(rng, samples,
                                      lambda r: sample_residues(r, names), trial)
                    if witness is not None:
                        return f"{index}: {witness}"
        return None

    return verdict(f"holomorphy/random/{chart_set}/{system.family}", "random",
                   decide, seed=seed, samples=samples)

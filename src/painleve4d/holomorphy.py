"""Canonical coordinate charts in which the cataloged systems stay
polynomial, plus the machinery that certifies this: transport of a system
into a chart, an exact polynomiality decision, reconstruction of the chart
Hamiltonian from the transported field, and a random cross-check.

The charts are derived from the generator catalog: chart r_i resolves the
pole divisor of the family's i-th reflection (weyl.REFLECTIONS; Matano,
Matumiya & Takano 1999), read from the reflection's root (alpha, f) and
never from its images; a generator without a root gives a chart only when
it is a shear.  The open-probe set is the atlas of d4alt.

A chart is a transforms.BirationalMap of one family onto itself that fixes
t and the parameters and carries its inverse: the images of the chart
coordinates in the source ones, and the source coordinates in the chart
ones, each inverse triangular in one canonical pair.  Chart coordinates
keep the names of the source coordinates.  Construction validates a chart
as it does every map with an inverse: no canonical bracket among the
images may break, and each direction must undo the other.  A chart reached
through another is one transforms.compose of the two.  The transported
field is BirationalMap.transport, the chain rule followed by one
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
from fractions import Fraction
from functools import cache
from typing import Mapping, Optional, Sequence

from .algebra import (Polynomial, RationalExpression, format_point, rational,
                      variable)
from .reports import VerificationReport, verdict
from .systems import HamiltonianSystem, make_hamiltonian, phase_vars
from .transforms import (DEFAULT_SAMPLES, BirationalMap, BrokenChange, compose,
                         generator, sample_residues, sampled)
from .weyl import REFLECTIONS


class UnknownChart(KeyError):
    pass


class EliminationFails(ValueError):
    """The chart's phase variables are not the system's."""


class NotHamiltonian(ValueError):
    """A transported field is not the Hamiltonian field of any K."""


def _chart(chart_set: str, index: str, images: dict[str, RationalExpression],
           inverse: dict[str, RationalExpression], family: str) -> BirationalMap:
    """The chart chart_set/index of the family's phase space: a map of the
    family onto itself that fixes t and the parameters, its images and
    inverse filled with the identity on every phase variable they leave
    out.  A broken bracket or inverse names the chart."""
    name = f"{chart_set}/{index}"
    system = make_hamiltonian(family)
    phase = {v: variable(v) for v in system.phase_vars()}
    fixed = {k: variable(k) for k in ("t", *system.params.symbols)}
    try:
        return BirationalMap(label=name, family=family, family_out=family,
                             images={**phase, **images, **fixed},
                             inverse={**phase, **inverse})
    except BrokenChange as exc:
        raise BrokenChange(f"{name}: {exc}") from None


class NoChartRule(ValueError):
    """A generator the chart rule does not resolve: a divisor with no phase
    variable v where df/dv = 1 and v - f is free of v and its partner (such
    as xz - 1), or a map without a root that is no shear with a pole."""


def reflection_chart(chart_set: str, index: str, m: BirationalMap,
                     family: Optional[str] = None) -> BirationalMap:
    """The chart of family (m's own by default) resolving the divisor where
    the generator m has its pole (Matano, Matumiya & Takano 1999).  A
    reflection with root (alpha, f) needs a phase variable v with df/dv = 1
    and c = v - f free of v and of its partner u; sigma is 1 when v is a
    momentum and -1 when it is a position.  The other pairs are sheared so that f is canonical with u,
    p2 + sigma*u*df/dq2 and q2 - sigma*u*df/dp2 (the inverse reads these
    partials as constants; where they are not, validation fails), and (u, f)
    goes to (1/u, -(f*u + sigma*alpha)*u).  A map without a root has its phase
    images negated first when it sends x to -x; a shear p -> p + g(q), g
    with a pole in q, is then its own chart.  Anything else raises
    NoChartRule."""
    family = family or m.family
    pairs = make_hamiltonian(family).pairs
    if m.root is not None:
        alpha, f = m.root
        for q, p in pairs:
            for v, u, sigma in ((p, q, 1), (q, p, -1)):
                c = variable(v) - f
                if f.diff(v).equals(rational(1)) and not c.variables() & {u, v}:
                    uv, vv = variable(u), variable(v)
                    forward = {u: 1 / uv, v: -(f * uv + sigma * alpha) * uv}
                    inverse = {u: 1 / uv}
                    for q2, p2 in pairs:
                        if q2 != q:
                            forward[p2] = variable(p2) + sigma * uv * f.diff(q2)
                            forward[q2] = variable(q2) - sigma * uv * f.diff(p2)
                            inverse[p2] = variable(p2) - sigma / uv * f.diff(q2)
                            inverse[q2] = variable(q2) + sigma / uv * f.diff(p2)
                    inverse[v] = (c.substitute(inverse)
                                  - (vv * uv + sigma * alpha) * uv)
                    return _chart(chart_set, index, forward, inverse, family)
    else:
        first = variable(pairs[0][0])
        sign = -1 if m.var_images[pairs[0][0]].equals(-first) else 1
        shift = {v: sign * img - variable(v) for v, img in m.var_images.items()}
        shift = {v: g for v, g in shift.items() if not g.is_zero()}
        for q, p in pairs:
            g = shift[p] if list(shift) == [p] else None
            if g and g.variables() & set(m.var_images) == {q} and q in g.den.variables():
                return _chart(chart_set, index, {p: variable(p) + g},
                              {p: variable(p) - g}, family)
    raise NoChartRule(f"{chart_set}/{index}: no chart rule for the shape of "
                      f"{m.family}/{m.label}")


# the chart sets the paper claims, one per family; open-probe, the atlas
# of d4alt, is observational
CLAIMED_CHART_SETS = ("d4", "b4f", "b4s", "d52")
CHART_SETS = CLAIMED_CHART_SETS + ("open-probe",)
CHART_INDICES = ("r0", "r1", "r2", "r3", "r4")


@cache
def chart_set_charts(chart_set: str) -> dict[str, BirationalMap]:
    """The set's five charts, keyed by CHART_INDICES, built on first read."""
    if chart_set not in CHART_SETS:
        raise UnknownChart(chart_set)
    family = "d4alt" if chart_set == "open-probe" else chart_set
    charts = {}
    for index, label in zip(CHART_INDICES, REFLECTIONS[family]):
        if chart_set in ("d4", "d52") and index == "r2":
            # d4 and d52 reach the divisor xz - 1 of s2 only through r1:
            # their r2 is the chart of d4alt's w2, on the set's own
            # family, composed after r1
            fold = reflection_chart(chart_set, index, generator("d4alt", "w2"),
                                    family=chart_set)
            charts[index] = compose(fold, charts["r1"])
        else:
            charts[index] = reflection_chart(chart_set, index,
                                             generator(family, label))
    return charts


def chart(chart_set: str, index: str) -> BirationalMap:
    try:
        return chart_set_charts(chart_set)[index]
    except KeyError:
        raise UnknownChart(f"{chart_set}/{index}") from None


def to_chart(system: HamiltonianSystem,
             c: BirationalMap) -> dict[str, RationalExpression]:
    """The system's field in chart coordinates."""
    field = system.vector_field()
    phase = tuple(c.var_images)
    if tuple(field) != phase:
        raise EliminationFails(f"chart variables {phase} do not "
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
                c: BirationalMap) -> dict[str, RationalExpression]:
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
        reconstruct_hamiltonian(chart_field(system, c),
                                make_hamiltonian(c.family).pairs)

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

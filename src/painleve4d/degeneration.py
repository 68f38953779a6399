"""The parameter-and-variable substitution that carries the six-parameter
system onto the five-parameter one as a small parameter goes to zero, and
the matching collapse of its symmetry group.

The substitution follows the chart convention: the new coordinates keep the
source names x, y, z, w, t.  The forward change writes the old phase
variables, t and b0-b5 in the new quantities (x-t, ε, a0-a4); its one
inverse writes every new quantity in the old ones only.  Each direction is
one simultaneous substitution.

Nothing here does analytic limits.  The substitution keeps ε as an ordinary
kernel variable; a "limit" first certifies that the ε-power in a cleared
denominator divides the numerator (so the singularity at ε = 0 is
removable) and then sets ε to zero.  Exact division decides removability
because ε is a single polynomial variable: ε^k divides a polynomial exactly
when every term carries ε^k.

The group side conjugates each chosen generator by the substitution: pull
the word back through the forward change, then apply the inverse change,
one substitution each, and only then take ε to zero.  Words apply leftmost
letter first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Optional, Sequence

from .algebra import (AlgebraError, Polynomial, RationalExpression,
                      exact_divide, rational, variable)
from .reports import VerificationReport, clip_witness, report
from .systems import (FieldComponents, HamiltonianSystem, make_hamiltonian,
                      total_derivative)
from .transforms import generator, word

PHASE = ("x", "y", "z", "w")

SUBGROUP_WORDS: dict[str, tuple[str, ...]] = {
    "s0": ("w0",),
    "s1": ("w1",),
    "s2": ("w2",),
    "s3": ("w3",),
    "s4": ("w4", "w5", "w3", "w4", "w5"),
}


class PoleAtEpsilonZero(AlgebraError):
    """The ε-content of a denominator exceeds that of its numerator."""


@dataclass(frozen=True)
class ConfluenceSubstitution:
    """Forward change old = f(new) and its inverse new = g(old), with the
    time factor dt_old/dt_new.

    `var_map` and `param_map` write the old x, y, z, w, t and b0-b5 in the
    new quantities; `inverse` writes the new phase variables, t, ε and
    a0-a4 in the old quantities only.  Construction checks that the
    inverse undoes the forward change on every key and that the parameter
    map respects both normalizations."""

    param_map: Mapping[str, RationalExpression]
    var_map: Mapping[str, RationalExpression]
    inverse: Mapping[str, RationalExpression]
    time_factor: RationalExpression

    def __post_init__(self):
        forward = self.assignment()
        for k, expr in self.inverse.items():
            if not expr.substitute(forward).equals(variable(k)):
                raise AlgebraError(f"confluence inverse fails on {k}")
        alphas = make_hamiltonian("d4").params
        betas = make_hamiltonian("d51").params
        pulled = betas.constraint_residual(self.param_map)
        if not alphas.normalize(pulled).is_zero():
            raise AlgebraError("parameter map does not respect the constraints")

    def assignment(self) -> dict[str, RationalExpression]:
        return {**self.var_map, **self.param_map}


@cache
def confluence() -> ConfluenceSubstitution:
    x, y, z, w, t = (variable(v) for v in "xyzwt")
    eps = variable("eps")
    a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))
    b0, b1, b2, b3, b4, b5 = (variable(f"b{i}") for i in range(6))
    return ConfluenceSubstitution(
        param_map={
            "b0": a0, "b1": a1, "b2": a2, "b3": a3,
            "b4": a4 - a3 - 1 / eps, "b5": 1 / eps,
        },
        var_map={
            "t": -eps * t,
            "x": 1 + x / (eps * t),
            "y": eps * t * y,
            "z": 1 + 1 / (eps * t * z),
            "w": -eps * t * (z * w + a3) * z,
        },
        inverse={
            "x": -t * (x - 1),
            "y": -y / t,
            "z": -1 / (t * (z - 1)),
            "w": t * (z - 1) * (w * (z - 1) + b3),
            "t": -t * b5,
            "eps": 1 / b5,
            "a0": b0, "a1": b1, "a2": b2, "a3": b3, "a4": b3 + b4 + b5,
        },
        time_factor=-eps,
    )


def substitute_confluence(d51: Optional[HamiltonianSystem] = None) -> FieldComponents:
    """The six-parameter field rewritten in the new variables, ε symbolic.

    Chain rule through the inverse change, conversion of d/dt to the new
    time derivative by the time factor, then one substitution of the
    forward change."""
    if d51 is None:
        d51 = make_hamiltonian("d51")
    f = d51.vector_field()
    sub = confluence()
    assignment = sub.assignment()
    comps = {v: (total_derivative(sub.inverse[v], f) * sub.time_factor)
             .substitute(assignment) for v in PHASE}
    return FieldComponents(order=PHASE, components=comps)


def epsilon_limit_expr(expr: RationalExpression) -> RationalExpression:
    """Set ε = 0 after certifying the singularity there is removable."""
    k = expr.den.min_exponents().get("eps", 0)
    num, den = expr.num, expr.den
    if k:
        power = Polynomial({(("eps", k),): Fraction(1)})
        num = exact_divide(num, power)
        if num is None:
            raise PoleAtEpsilonZero(clip_witness(repr(expr)))
        den = exact_divide(den, power)
    zero = {"eps": rational(0)}
    return RationalExpression(num, den).substitute(zero)


def epsilon_limit(field: FieldComponents) -> FieldComponents:
    comps = {}
    for v in field.order:
        try:
            comps[v] = epsilon_limit_expr(field[v])
        except PoleAtEpsilonZero as exc:
            raise PoleAtEpsilonZero(f"d{v}/d{field.time}: {exc}") from None
    return FieldComponents(order=field.order, components=comps, time=field.time)


def verify_confluence_field() -> VerificationReport:
    """ε → 0 of the substituted field equals the five-parameter field,
    component by component, with the normalization applied."""
    start = time.monotonic()
    name = "degeneration/field"
    try:
        limited = epsilon_limit(substitute_confluence())
    except PoleAtEpsilonZero as exc:
        return report(name, False, "exact", family="d51",
                      witness=str(exc), started=start)
    d4 = make_hamiltonian("d4")
    target = d4.vector_field()
    for v in PHASE:
        diff = limited[v] - d4.params.normalize(target[v])
        if not diff.is_zero():
            return report(name, False, "exact", family="d51",
                          witness=f"d{v}/dt residual {clip_witness(repr(diff))}",
                          started=start)
    return report(name, True, "exact", family="d51", started=start)


def conjugate_word(labels: Sequence[str]) -> dict[str, RationalExpression]:
    """A word in the six-parameter generators, rewritten in the new frame:
    the inverse change after the word after the forward change.

    Returns the images of the phase variables, t, ε and the five parameters
    as rational expressions in the new quantities, ε still symbolic."""
    sub = confluence()
    assignment = sub.assignment()
    moved = {k: img.substitute(assignment)
             for k, img in word("d51", list(labels)).substitution().items()}
    return {k: expr.substitute(moved) for k, expr in sub.inverse.items()}


def converged_generator(labels: Sequence[str]) -> dict[str, RationalExpression]:
    """ε → 0 of the conjugated word, keyed by the transformed quantity."""
    return {key: epsilon_limit_expr(expr)
            for key, expr in conjugate_word(labels).items() if key != "eps"}


def verify_group_convergence() -> list[VerificationReport]:
    """Each subgroup word collapses onto the generator of the same index:
    the same images of the phase variables, t and the parameters, modulo
    the normalization."""
    normalize = make_hamiltonian("d4").params.normalize
    out = []
    for label, letters in SUBGROUP_WORDS.items():
        start = time.monotonic()
        name = f"degeneration/group/{label}"
        try:
            limit = converged_generator(letters)
        except PoleAtEpsilonZero as exc:
            out.append(report(name, False, "exact", family="d51",
                              witness=str(exc), started=start))
            continue
        bad = None
        for k, img in generator("d4", label).substitution().items():
            want, got = normalize(img), normalize(limit[k])
            if not got.equals(want):
                bad = f"{k}-image residual {clip_witness(repr(got - want))}"
                break
        out.append(report(name, bad is None, "exact", family="d51",
                          witness=bad, started=start))
    return out

"""The change of variables that carries the six-parameter system onto the
five-parameter one as a small parameter goes to zero, and the matching
collapse of its symmetry group.

The confluence is a transforms.Change, like a chart: its new coordinates
keep the source names x, y, z, w, t.  Its forward side writes every new
quantity (x-t, ε, a0-a4) in the old ones (x-t, b0-b5); its inverse writes
the old quantities in the new.  The Change checks each direction against
the other; confluence() also checks that the parameters respect both
normalizations.  The field is carried across by Change.transport, whose
time image forward["t"] = -t*b5 supplies the factor dt_old/dt_new = -ε.

Nothing here does analytic limits.  The substitution keeps ε as an ordinary
kernel variable; a "limit" first certifies that the ε-power in a cleared
denominator divides the numerator (so the singularity at ε = 0 is
removable) and then sets ε to zero.  Exact division decides removability
because ε is a single polynomial variable: ε^k divides a polynomial exactly
when every term carries ε^k.

The group side conjugates each chosen generator by the change: pull the
word back through the inverse, then apply the forward side, one
substitution each, and only then take ε to zero.  Words apply leftmost
letter first.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cache
from typing import Sequence

from .algebra import (AlgebraError, Polynomial, RationalExpression,
                      exact_divide, rational, variable)
from .reports import VerificationReport, clip_witness, report
from .systems import FieldComponents, make_hamiltonian
from .transforms import BrokenChange, Change, generator, word

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


def check_normalizations(change: Change) -> None:
    """Raise BrokenChange unless the old parameters, written in the new ones,
    satisfy the six-parameter normalization wherever the five-parameter one
    holds."""
    pulled = make_hamiltonian("d51").params.constraint_residual(change.inverse)
    if not make_hamiltonian("d4").params.normalize(pulled).is_zero():
        raise BrokenChange("parameter map does not respect the constraints")


@cache
def confluence() -> Change:
    x, y, z, w, t = (variable(v) for v in "xyzwt")
    eps = variable("eps")
    a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))
    b0, b1, b2, b3, b4, b5 = (variable(f"b{i}") for i in range(6))
    change = Change(
        forward={
            "x": -t * (x - 1),
            "y": -y / t,
            "z": -1 / (t * (z - 1)),
            "w": t * (z - 1) * (w * (z - 1) + b3),
            "t": -t * b5,
            "eps": 1 / b5,
            "a0": b0, "a1": b1, "a2": b2, "a3": b3, "a4": b3 + b4 + b5,
        },
        inverse={
            "x": 1 + x / (eps * t),
            "y": eps * t * y,
            "z": 1 + 1 / (eps * t * z),
            "w": -eps * t * (z * w + a3) * z,
            "t": -eps * t,
            "b0": a0, "b1": a1, "b2": a2, "b3": a3,
            "b4": a4 - a3 - 1 / eps, "b5": 1 / eps,
        },
    )
    check_normalizations(change)
    return change


def substitute_confluence() -> FieldComponents:
    """The six-parameter field rewritten in the new variables, ε symbolic."""
    return confluence().transport(make_hamiltonian("d51").vector_field())


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
    the forward side after the word after the inverse.

    Returns the images of the phase variables, t, ε and the five parameters
    as rational expressions in the new quantities, ε still symbolic."""
    change = confluence()
    moved = {k: img.substitute(change.inverse)
             for k, img in word("d51", list(labels)).substitution().items()}
    return {k: expr.substitute(moved) for k, expr in change.forward.items()}


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

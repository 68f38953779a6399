"""The change of variables that carries the six-parameter system onto the
five-parameter one as a small parameter goes to zero, and the matching
collapse of its symmetry group.

The confluence is a transforms.BirationalMap from d51 to d4 that carries
its inverse, like a chart: its new coordinates keep the source names x, y,
z, w, t.  Its images write every new quantity (x-t, ε, a0-a4) in the old
ones (x-t, b0-b5), the parameters affinely; its inverse writes the old
quantities in the new.  Construction checks the two against each other;
confluence() also checks, as every map row does, that the parameters
carry the normalization (ParameterVector.carried_residual).
The field is carried across by BirationalMap.transport, whose time image
images["t"] = -t*b5 supplies the factor dt_old/dt_new = -ε.

Nothing here does analytic limits.  The substitution keeps ε as an ordinary
kernel variable, and a "limit" sets ε to zero once the denominator is seen
not to vanish there.  A RationalExpression has already cancelled the
monomial content its numerator and denominator share, so a denominator
whose every term still carries ε is a pole at ε = 0, and any other
denominator keeps a term free of ε.

The group side conjugates each chosen generator by the confluence: pull the
word back through the inverse, then apply the images, one
substitution each, and only then take ε to zero.  The limit is read as a
d4 map and compared with the generator like every other map identity.
Words apply leftmost letter first.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, Sequence

from .algebra import AlgebraError, RationalExpression, rational, variable
from .reports import VerificationReport, verdict
from .systems import PAIRS_4D, make_hamiltonian, phase_vars
from .transforms import (BirationalMap, BrokenChange, generator,
                         maps_equal_exact, word)

PHASE = phase_vars(PAIRS_4D)

SUBGROUP_WORDS: dict[str, tuple[str, ...]] = {
    "s0": ("w0",),
    "s1": ("w1",),
    "s2": ("w2",),
    "s3": ("w3",),
    "s4": ("w4", "w5", "w3", "w4", "w5"),
}


class PoleAtEpsilonZero(AlgebraError):
    """Every term of a denominator carries ε, so it vanishes at ε = 0."""


@cache
def confluence() -> BirationalMap:
    x, y, z, w, t = (variable(v) for v in "xyzwt")
    eps = variable("eps")
    a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))
    b0, b1, b2, b3, b4, b5 = (variable(f"b{i}") for i in range(6))
    change = BirationalMap(
        label="confluence", family="d51", family_out="d4",
        images={
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
    if not make_hamiltonian("d51").params.carried_residual(
            change.inverse, make_hamiltonian("d4").params).is_zero():
        raise BrokenChange("parameter map does not respect the constraints")
    return change


def substitute_confluence() -> dict[str, RationalExpression]:
    """The six-parameter field rewritten in the new variables, ε symbolic."""
    return confluence().transport(make_hamiltonian("d51").vector_field())


def epsilon_limit_expr(expr: RationalExpression) -> RationalExpression:
    """Set ε = 0 in an expression whose denominator does not vanish there."""
    if "eps" in expr.den.min_exponents():
        raise PoleAtEpsilonZero(repr(expr))
    return expr.substitute({"eps": rational(0)})


def epsilon_limit(field: Mapping[str, RationalExpression]
                  ) -> dict[str, RationalExpression]:
    limited = {}
    for v, rhs in field.items():
        try:
            limited[v] = epsilon_limit_expr(rhs)
        except PoleAtEpsilonZero as exc:
            raise PoleAtEpsilonZero(f"d{v}/dt: {exc}") from None
    return limited


def verify_confluence_field() -> VerificationReport:
    """ε → 0 of the substituted field equals the five-parameter field,
    component by component, with the normalization applied."""
    def decide():
        limited = epsilon_limit(substitute_confluence())
        d4 = make_hamiltonian("d4")
        target = d4.vector_field()
        for v in PHASE:
            diff = limited[v] - d4.params.normalize(target[v])
            if not diff.is_zero():
                return f"d{v}/dt residual {diff!r}"
        return None

    return verdict("degeneration/field", "exact", decide, PoleAtEpsilonZero)


def conjugate_word(labels: Sequence[str]) -> dict[str, RationalExpression]:
    """A word in the six-parameter generators, rewritten in the new frame:
    the confluence's images after the word after its inverse.

    Returns the images of the phase variables, t, ε and the five parameters
    as rational expressions in the new quantities, ε still symbolic."""
    change = confluence()
    moved = {k: img.substitute(change.inverse)
             for k, img in word("d51", list(labels)).images.items()}
    return {k: expr.substitute(moved) for k, expr in change.images.items()}


def converged_generator(labels: Sequence[str]) -> dict[str, RationalExpression]:
    """ε → 0 of the conjugated word, keyed by the transformed quantity."""
    return {key: epsilon_limit_expr(expr)
            for key, expr in conjugate_word(labels).items() if key != "eps"}


def verify_group_convergence() -> list[VerificationReport]:
    """Each subgroup word collapses onto the generator of the same index:
    the limit, read as a d4 map, equals it by transforms.maps_equal_exact.
    A limit whose parameter action is not affine fails its row."""
    def decide(label, letters):
        limit = BirationalMap(label=label, family="d4", family_out="d4",
                              images=converged_generator(letters))
        return maps_equal_exact(limit, generator("d4", label))

    return [verdict(f"degeneration/group/{label}", "exact",
                    lambda: decide(label, letters), PoleAtEpsilonZero, ValueError)
            for label, letters in SUBGROUP_WORDS.items()]

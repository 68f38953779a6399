"""The parameter-and-variable substitution that carries the six-parameter
system onto the five-parameter one as a small parameter goes to zero, and
the matching collapse of its symmetry group.

Nothing here does analytic limits.  The substitution keeps ε as an ordinary
kernel variable; a "limit" first certifies that the ε-power in a cleared
denominator divides the numerator (so the singularity at ε = 0 is
removable) and then sets ε to zero.  Exact division decides removability
because ε is a single polynomial variable: ε^k divides a polynomial exactly
when every term carries ε^k.

The group side conjugates each chosen generator by the substitution: push
the base point through the forward change, apply the generator, pull the
image back with the inverse change, and only then take ε to zero.  Words
apply leftmost letter first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .algebra import (AlgebraError, Polynomial, RationalExpression,
                      exact_divide, rational, variable)
from .reports import VerificationReport, clip_witness, report
from .systems import (FieldComponents, HamiltonianSystem, make_hamiltonian,
                      total_derivative)
from .transforms import generator, word

OLD_PHASE = ("x", "y", "z", "w")
NEW_PHASE = ("X", "Y", "Z", "W")

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
    """Forward change old = f(new) with its explicit inverse, plus the
    parameter identification and the time-derivative factor dt/dT."""

    param_map: Mapping[str, RationalExpression]
    var_map: Mapping[str, RationalExpression]
    inverse_var_map: Mapping[str, RationalExpression]
    time_factor: RationalExpression

    def __post_init__(self):
        forward = dict(self.var_map)
        for cap in (*NEW_PHASE, "T"):
            back = self.inverse_var_map[cap].substitute(forward)
            if not back.equals(variable(cap)):
                raise AlgebraError(f"confluence inverse fails on {cap}")
        alphas = make_hamiltonian("d4").params
        betas = make_hamiltonian("d51").params
        pulled = rational(-betas.constraint_value)
        for coeff, sym in zip(betas.constraint_coeffs, betas.symbols):
            pulled = pulled + rational(coeff) * self.param_map[sym]
        if not pulled.substitute(alphas.eliminate_first()).is_zero():
            raise AlgebraError("parameter map does not respect the constraints")

    def assignment(self) -> dict[str, RationalExpression]:
        return {**self.var_map, **self.param_map}

    def to_obj(self) -> dict:
        return {
            "parameters": {k: v.to_obj() for k, v in sorted(self.param_map.items())},
            "variables": {k: v.to_obj() for k, v in sorted(self.var_map.items())},
            "time_factor": self.time_factor.to_obj(),
        }


_CONFLUENCE: Optional[ConfluenceSubstitution] = None


def confluence() -> ConfluenceSubstitution:
    global _CONFLUENCE
    if _CONFLUENCE is None:
        x, y, z, w, t = (variable(v) for v in "xyzwt")
        Xc, Yc, Zc, Wc, Tc = (variable(v) for v in NEW_PHASE + ("T",))
        eps = variable("eps")
        a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))
        _CONFLUENCE = ConfluenceSubstitution(
            param_map={
                "b0": a0, "b1": a1, "b2": a2, "b3": a3,
                "b4": a4 - a3 - 1 / eps, "b5": 1 / eps,
            },
            var_map={
                "t": -eps * Tc,
                "x": 1 + Xc / (eps * Tc),
                "y": eps * Tc * Yc,
                "z": 1 + 1 / (eps * Tc * Zc),
                "w": -eps * Tc * (Zc * Wc + a3) * Zc,
            },
            inverse_var_map={
                "T": -t / eps,
                "X": -t * (x - 1),
                "Y": -y / t,
                "Z": -1 / (t * (z - 1)),
                "W": t * (z - 1) * (w * (z - 1) + a3),
            },
            time_factor=-eps,
        )
    return _CONFLUENCE


def substitute_confluence(d51: Optional[HamiltonianSystem] = None) -> FieldComponents:
    """The six-parameter field rewritten in the new variables, ε symbolic.

    Chain rule through the inverse change, conversion of d/dt to d/dT by
    the time factor, then elimination of the old variables and parameters."""
    if d51 is None:
        d51 = make_hamiltonian("d51")
    f = d51.vector_field()
    sub = confluence()
    assignment = sub.assignment()
    comps = {}
    for cap in NEW_PHASE:
        total = total_derivative(sub.inverse_var_map[cap], f)
        comps[cap] = (total * sub.time_factor).substitute(assignment)
    return FieldComponents(order=NEW_PHASE, components=comps, time="T")


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


def _d4_field_in_new_variables() -> FieldComponents:
    d4 = make_hamiltonian("d4")
    rename = {old: variable(new) for old, new in zip((*OLD_PHASE, "t"),
                                                     (*NEW_PHASE, "T"))}
    elim = d4.params.eliminate_first()
    f = d4.vector_field()
    comps = {new: f[old].substitute(elim).substitute(rename)
             for old, new in zip(OLD_PHASE, NEW_PHASE)}
    return FieldComponents(order=NEW_PHASE, components=comps, time="T")


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
    target = _d4_field_in_new_variables()
    for v in NEW_PHASE:
        diff = limited[v] - target[v]
        if not diff.is_zero():
            return report(name, False, "exact", family="d51",
                          witness=f"d{v}/dT residual {clip_witness(repr(diff))}",
                          started=start)
    return report(name, True, "exact", family="d51", started=start)


def conjugate_word(labels: Sequence[str]) -> dict:
    """A word in the six-parameter generators, rewritten in the new frame.

    Returns the images of T, X, Y, Z, W, ε and the five parameters as
    rational expressions in the new frame with ε still symbolic."""
    m = word("d51", list(labels)) if len(labels) != 1 else generator("d51", labels[0])
    sub = confluence()
    assignment = sub.assignment()
    old_primed = {u: m.var_images[u].substitute(assignment) for u in OLD_PHASE}
    t_primed = m.time_image.substitute(assignment)
    beta_primed = {sym: img.substitute(assignment)
                   for sym, img in zip(m.param_symbols_out, m.param_images)}
    zm1 = old_primed["z"] - 1
    return {
        "T": -t_primed * beta_primed["b5"],
        "X": -t_primed * (old_primed["x"] - 1),
        "Y": -old_primed["y"] / t_primed,
        "Z": -1 / (t_primed * zm1),
        "W": t_primed * zm1 * (old_primed["w"] * zm1 + beta_primed["b3"]),
        "eps": 1 / beta_primed["b5"],
        "a0": beta_primed["b0"],
        "a1": beta_primed["b1"],
        "a2": beta_primed["b2"],
        "a3": beta_primed["b3"],
        "a4": beta_primed["b3"] + beta_primed["b4"] + beta_primed["b5"],
    }


def converged_generator(labels: Sequence[str]) -> dict[str, RationalExpression]:
    """ε → 0 of the conjugated word, keyed by the transformed quantity."""
    conj = conjugate_word(labels)
    out = {}
    for key, expr in conj.items():
        if key == "eps":
            continue
        out[key] = epsilon_limit_expr(expr)
    return out


def verify_group_convergence() -> list[VerificationReport]:
    """Each subgroup word collapses onto the generator of the same index."""
    d4 = make_hamiltonian("d4")
    elim = d4.params.eliminate_first()
    rename = {old: variable(new) for old, new in zip((*OLD_PHASE, "t"),
                                                     (*NEW_PHASE, "T"))}
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
        target = generator("d4", label)
        bad = None
        for u in OLD_PHASE:
            want = target.var_images[u].substitute(elim).substitute(rename)
            got = limit[u.upper()].substitute(elim)
            if not got.equals(want):
                bad = f"{u}-image residual {clip_witness(repr(got - want))}"
                break
        if bad is None and not limit["T"].substitute(elim).equals(variable("T")):
            bad = f"time image {clip_witness(repr(limit['T']))}"
        if bad is None:
            for sym, img in zip(target.param_symbols_out, target.param_images):
                want = img.substitute(elim)
                got = limit[sym].substitute(elim)
                if not got.equals(want):
                    bad = f"{sym}-image residual {clip_witness(repr(got - want))}"
                    break
        out.append(report(name, bad is None, "exact", family="d51",
                          witness=bad, started=start))
    return out

"""Confluence substitution: constraint compatibility, removable-singularity
limits, the field collapse, and the convergence of the chosen subgroup.

The new coordinates keep the source names x, y, z, w, t."""

from dataclasses import replace

import pytest

from painleve4d.algebra import AlgebraError, rational, variable
from painleve4d.degeneration import (
    PHASE,
    SUBGROUP_WORDS,
    PoleAtEpsilonZero,
    confluence,
    conjugate_word,
    converged_generator,
    epsilon_limit,
    epsilon_limit_expr,
    substitute_confluence,
    verify_confluence_field,
    verify_group_convergence,
)
from painleve4d.systems import FieldComponents, make_hamiltonian

eps = variable("eps")
x, y, t = variable("x"), variable("y"), variable("t")
a3, a4 = variable("a3"), variable("a4")
b3, b4, b5 = variable("b3"), variable("b4"), variable("b5")
OLD = {*PHASE, "t", *(f"b{i}" for i in range(6))}
NEW = (*PHASE, "t", "eps", *(f"a{i}" for i in range(5)))


def test_substitution_images():
    sub = confluence()
    assert sub.param_map["b4"].equals(a4 - a3 - 1 / eps)
    assert sub.param_map["b5"].equals(1 / eps)
    assert sub.var_map["x"].equals(1 + x / (eps * t))
    assert sub.var_map["t"].equals(-eps * t)
    assert sub.time_factor.equals(-eps)


def test_parameter_map_respects_both_constraints():
    sub = confluence()
    betas = make_hamiltonian("d51").params
    alphas = make_hamiltonian("d4").params
    total = rational(-betas.constraint_value)
    for coeff, sym in zip(betas.constraint_coeffs, betas.symbols):
        total = total + rational(coeff) * sub.param_map[sym]
    assert total.substitute(alphas.eliminate_first()).is_zero()


def test_inverse_recovers_new_variables():
    sub = confluence()
    assert tuple(sub.inverse) == NEW
    forward = sub.assignment()
    for k, expr in sub.inverse.items():
        assert expr.variables() <= OLD, k
        assert expr.substitute(forward).equals(variable(k))


@pytest.mark.parametrize("key, broken", [("a4", b3 + b4), ("eps", b5)])
def test_broken_inverse_rejected(key, broken):
    sub = confluence()
    with pytest.raises(AlgebraError, match=f"inverse fails on {key}"):
        replace(sub, inverse={**sub.inverse, key: broken})


def test_substituted_field_shape():
    field = substitute_confluence()
    assert field.order == PHASE
    assert field.time == "t"
    assert any("eps" in field[v].variables() for v in PHASE)
    for v in PHASE:
        assert field[v].variables() <= set(NEW), v


def test_epsilon_limit_cancellation():
    assert epsilon_limit_expr((1 + eps * x) / eps - 1 / eps).equals(x)
    assert epsilon_limit_expr((eps * x) / (eps * (1 + eps))).equals(x)
    assert epsilon_limit_expr(x + y).equals(x + y)


def test_epsilon_limit_pole():
    with pytest.raises(PoleAtEpsilonZero):
        epsilon_limit_expr(1 / eps)
    with pytest.raises(PoleAtEpsilonZero):
        epsilon_limit_expr((x + 1) / (eps * y))


def test_epsilon_limit_field_names_component():
    field = FieldComponents(order=("x", "y"),
                            components={"x": 1 / eps, "y": rational(0)})
    with pytest.raises(PoleAtEpsilonZero, match="dx/dt"):
        epsilon_limit(field)


def test_field_limit_is_the_target_system():
    r = verify_confluence_field()
    assert r.status == "pass", r.witness


def test_group_convergence():
    reports = verify_group_convergence()
    assert len(reports) == len(SUBGROUP_WORDS)
    for r in reports:
        assert r.status == "pass", f"{r.check}: {r.witness}"


def test_identity_word_conjugates_to_identity():
    limit = converged_generator([])
    assert set(limit) == set(NEW) - {"eps"}
    for k, expr in limit.items():
        assert expr.equals(variable(k)), k


def test_long_word_bends_epsilon():
    conj = conjugate_word(SUBGROUP_WORDS["s4"])
    assert conj["eps"].equals(eps / (1 - a4 * eps))
    assert epsilon_limit_expr(conj["t"]).equals(t)


def test_single_letter_epsilon_images():
    for label in ("w0", "w1", "w2"):
        assert conjugate_word([label])["eps"].equals(eps)
    # the third letter shifts the inverse-epsilon parameter
    assert conjugate_word(["w3"])["eps"].equals(eps / (1 + a3 * eps))


def test_bad_substitution_rejected():
    sub = confluence()
    broken = dict(sub.param_map)
    broken["b4"] = a4 - a3
    with pytest.raises(AlgebraError):
        replace(sub, param_map=broken)

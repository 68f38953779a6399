"""Confluence substitution: constraint compatibility, removable-singularity
limits, the field collapse, and the convergence of the chosen subgroup."""

import pytest

from painleve4d.algebra import AlgebraError, rational, variable
from painleve4d.degeneration import (
    NEW_PHASE,
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
X, Y, Z, W, T = (variable(v) for v in ("X", "Y", "Z", "W", "T"))
a3, a4 = variable("a3"), variable("a4")


def test_substitution_images():
    sub = confluence()
    assert sub.param_map["b4"].equals(a4 - a3 - 1 / eps)
    assert sub.param_map["b5"].equals(1 / eps)
    assert sub.var_map["x"].equals(1 + X / (eps * T))
    assert sub.var_map["t"].equals(-eps * T)
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
    forward = dict(sub.var_map)
    for cap in (*NEW_PHASE, "T"):
        assert sub.inverse_var_map[cap].substitute(forward).equals(variable(cap))


def test_substituted_field_shape():
    field = substitute_confluence()
    assert field.order == NEW_PHASE
    assert field.time == "T"
    assert any("eps" in field[v].variables() for v in NEW_PHASE)
    assert all("b" not in "".join(field[v].variables()) or
               not {f"b{i}" for i in range(6)} & field[v].variables()
               for v in NEW_PHASE)


def test_epsilon_limit_cancellation():
    assert epsilon_limit_expr((1 + eps * X) / eps - 1 / eps).equals(X)
    assert epsilon_limit_expr((eps * X) / (eps * (1 + eps))).equals(X)
    assert epsilon_limit_expr(X + Y).equals(X + Y)


def test_epsilon_limit_pole():
    with pytest.raises(PoleAtEpsilonZero):
        epsilon_limit_expr(1 / eps)
    with pytest.raises(PoleAtEpsilonZero):
        epsilon_limit_expr((X + 1) / (eps * Y))


def test_epsilon_limit_field_names_component():
    field = FieldComponents(order=("X", "Y"),
                            components={"X": 1 / eps, "Y": rational(0)}, time="T")
    with pytest.raises(PoleAtEpsilonZero, match="dX/dT"):
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
    for cap in (*NEW_PHASE, "T"):
        assert limit[cap].equals(variable(cap))
    for i in range(5):
        assert limit[f"a{i}"].equals(variable(f"a{i}"))


def test_long_word_bends_epsilon():
    conj = conjugate_word(SUBGROUP_WORDS["s4"])
    assert conj["eps"].equals(eps / (1 - a4 * eps))
    assert epsilon_limit_expr(conj["T"]).equals(T)


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
        type(sub)(param_map=broken, var_map=sub.var_map,
                  inverse_var_map=sub.inverse_var_map, time_factor=sub.time_factor)

"""Confluence change of variables: constraint compatibility,
removable-singularity limits, the field collapse, and the convergence of the
chosen subgroup.

The new coordinates keep the source names x, y, z, w, t."""

from dataclasses import replace

import pytest

from painleve4d import degeneration
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
from painleve4d.systems import make_hamiltonian
from painleve4d.transforms import BrokenChange

eps = variable("eps")
x, y, t = variable("x"), variable("y"), variable("t")
a3, a4 = variable("a3"), variable("a4")
b3, b4, b5 = variable("b3"), variable("b4"), variable("b5")
OLD = {*PHASE, "t", *(f"b{i}" for i in range(6))}
NEW = (*PHASE, "t", "eps", *(f"a{i}" for i in range(5)))


def test_substitution_images():
    sub = confluence()
    assert sub.inverse["b4"].equals(a4 - a3 - 1 / eps)
    assert sub.inverse["b5"].equals(1 / eps)
    assert sub.inverse["x"].equals(1 + x / (eps * t))
    assert sub.inverse["t"].equals(-eps * t)
    # the time image: dt_new/dt_old = -b5 = -1/eps
    assert sub.forward["t"].equals(-t * b5)


def test_parameter_map_respects_both_constraints():
    sub = confluence()
    betas = make_hamiltonian("d51").params
    alphas = make_hamiltonian("d4").params
    total = rational(-betas.constraint_value)
    for coeff, sym in zip(betas.constraint_coeffs, betas.symbols):
        total = total + rational(coeff) * sub.inverse[sym]
    assert total.substitute(alphas.eliminate_first()).is_zero()


def test_inverse_recovers_new_variables():
    sub = confluence()
    assert tuple(sub.forward) == NEW
    for k, expr in sub.forward.items():
        assert expr.variables() <= OLD, k
        assert expr.substitute(sub.inverse).equals(variable(k))
    for k, expr in sub.inverse.items():
        assert expr.variables() <= set(NEW), k
        assert expr.substitute(sub.forward).equals(variable(k))


@pytest.mark.parametrize("key, broken", [("a4", b3 + b4), ("eps", b5)])
def test_broken_inverse_rejected(key, broken):
    sub = confluence()
    with pytest.raises(AlgebraError, match=f"inverse fails on {key}"):
        replace(sub, forward={**sub.forward, key: broken})


def test_substituted_field_shape():
    field = substitute_confluence()
    assert tuple(field) == PHASE
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
    field = {"x": 1 / eps, "y": rational(0)}
    with pytest.raises(PoleAtEpsilonZero, match="dx/dt"):
        epsilon_limit(field)


def test_field_limit_is_the_target_system():
    r = verify_confluence_field()
    assert r.status == "pass", r.witness


def test_field_limit_names_a_wrong_component(monkeypatch):
    def shifted():
        field = substitute_confluence()
        return {**field, "z": field["z"] + x}

    monkeypatch.setattr(degeneration, "substitute_confluence", shifted)
    r = verify_confluence_field()
    assert r.status == "fail"
    assert r.witness == "dz/dt residual x"


def test_group_convergence():
    reports = verify_group_convergence()
    assert len(reports) == len(SUBGROUP_WORDS)
    for r in reports:
        assert r.status == "pass", f"{r.check}: {r.witness}"


def test_group_convergence_names_a_wrong_image(monkeypatch):
    # w0 collapses onto s0, which moves x where s1 does, by another term
    monkeypatch.setitem(SUBGROUP_WORDS, "s1", ("w0",))
    verdicts = {r.check: r for r in verify_group_convergence()}
    wrong = verdicts["degeneration/group/s1"]
    assert wrong.status == "fail"
    assert wrong.witness.startswith("images of x differ: ")
    assert verdicts["degeneration/group/s0"].status == "pass"


def test_group_convergence_fails_a_non_affine_limit(monkeypatch):
    def squared_a0(letters):
        return {**converged_generator(letters), "a0": variable("a0") ** 2}

    monkeypatch.setattr(degeneration, "converged_generator", squared_a0)
    for r in verify_group_convergence():
        assert r.status == "fail", r.check
        assert r.witness.startswith("parameter action is not affine: "), r.check


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
    # caught by the two-way inverse check, on a4
    sub = confluence()
    with pytest.raises(AlgebraError, match="inverse fails on a4"):
        replace(sub, inverse={**sub.inverse, "b4": a4 - a3})


def test_normalization_check_rejects_a_consistent_change(monkeypatch):
    # b5 = 2/eps undoes eps = 2/b5 on every key, yet the old parameters then
    # miss the six-parameter normalization by 1/eps
    sub = confluence()
    halved = replace(
        sub,
        forward={**sub.forward, "eps": 2 / b5, "a4": b3 + b4 + b5 / 2,
                 "t": -t * b5 / 2},
        inverse={**sub.inverse, "b5": 2 / eps})
    betas = make_hamiltonian("d51").params
    alphas = make_hamiltonian("d4").params
    assert betas.carried_residual(halved.inverse, alphas).equals(1 / eps)
    assert betas.carried_residual(sub.inverse, alphas).is_zero()
    monkeypatch.setattr(degeneration, "Change", lambda forward, inverse: halved)
    with pytest.raises(BrokenChange, match="does not respect the constraints"):
        confluence.__wrapped__()

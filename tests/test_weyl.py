"""Coxeter presentations, relation suites, automorphism relations, and the
lattice translations."""

from dataclasses import replace
from fractions import Fraction

import pytest

from painleve4d import transforms as tr
from painleve4d import weyl
from painleve4d.algebra import rational, variable
from painleve4d.weyl import (
    CONSTRAINT_WEIGHTS,
    EXPECTED_CARTAN,
    NonAffineAction,
    TRANSLATION_SHIFTS,
    TRANSLATION_WORDS,
    derive_cartan,
    diagram_shape,
    translation_matrix,
    translation_operator,
    verify_cartan_table,
    verify_coxeter_relations,
    verify_extended_relations,
    verify_translation_shifts,
)

ALL_FAMILIES = ("d4", "b4f", "b4s", "d52", "d51", "d4alt")


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cartan_matches_affine_table(family):
    rep = verify_cartan_table(family)
    assert rep.passed, rep.witness


def test_d4_star_entries():
    pres = derive_cartan("d4")
    for i in (0, 1, 3, 4):
        assert pres.cartan[i][2] == -1 and pres.cartan[2][i] == -1
        assert pres.coxeter_m[i][2] == 3
        for j in (0, 1, 3, 4):
            if i != j:
                assert pres.coxeter_m[i][j] == 2


def test_double_bond_entries():
    b4f = derive_cartan("b4f")
    assert b4f.cartan[1][0] == -2 and b4f.cartan[0][1] == -1
    assert b4f.coxeter_m[0][1] == 4
    d52 = derive_cartan("d52")
    assert d52.coxeter_m[0][1] == 4 and d52.coxeter_m[3][4] == 4
    b4s = derive_cartan("b4s")
    assert b4s.cartan[3][4] == -2 and b4s.coxeter_m[3][4] == 4


def test_diagram_shapes():
    assert diagram_shape(EXPECTED_CARTAN["d4"])["forks"] == (2,)
    assert diagram_shape(EXPECTED_CARTAN["d52"])["double_bonds"] == ((0, 1), (3, 4))
    assert diagram_shape(EXPECTED_CARTAN["d51"])["forks"] == (2, 3)
    assert diagram_shape(EXPECTED_CARTAN["d51"])["double_bonds"] == ()


def test_presentation_export():
    obj = derive_cartan("d51").to_obj()
    assert obj["labels"] == ["w0", "w1", "w2", "w3", "w4", "w5"]
    assert len(obj["cartan"]) == 6 and len(obj["coxeter_m"]) == 6


def _fake_map(images, params):
    return tr.BirationalMap(
        label="fake", family="d4", family_out="d4",
        var_images={v: variable(v) for v in ("x", "y", "z", "w")},
        time_image=variable("t"),
        param_symbols=("a0", "a1", "a2", "a3", "a4"),
        param_symbols_out=("a0", "a1", "a2", "a3", "a4"),
        param_images=tuple(params),
        param_matrix=tr._linear_action(("a0", "a1", "a2", "a3", "a4"), params)[0],
        param_offset=tr._linear_action(("a0", "a1", "a2", "a3", "a4"), params)[1])


def test_non_reflection_action_is_rejected(monkeypatch):
    a = [variable(f"a{i}") for i in range(5)]
    scaling = _fake_map({}, [2 * a[0], a[1], a[2], a[3], a[4]])
    monkeypatch.setitem(weyl.REFLECTIONS, "fake", ("f0",))
    monkeypatch.setitem(tr._generators(), "fake", {"f0": scaling})
    monkeypatch.setitem(weyl._PHASE_FAMILY, "fake", "d4")
    with pytest.raises(NonAffineAction):
        derive_cartan("fake")
    shifted = _fake_map({}, [-a[0] + 1, a[1], a[2] + a[0], a[3], a[4]])
    monkeypatch.setitem(tr._generators(), "fake", {"f0": shifted})
    with pytest.raises(NonAffineAction):
        derive_cartan("fake")


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_coxeter_relations_random(family):
    reps = verify_coxeter_relations(family, mode="random", seed=0, samples=8)
    n = len(weyl.REFLECTIONS[family])
    assert len(reps) == n * (n + 1) // 2
    for rep in reps:
        assert rep.passed, f"{rep.check}: {rep.witness}"


def test_wrong_relation_fails_random_coxeter(monkeypatch):
    # claim m(s0, s1) = 1, i.e. s0 s1 = identity, which moves points
    pres = derive_cartan("d4")
    m = [list(row) for row in pres.coxeter_m]
    m[0][1] = m[1][0] = 1
    wrong = replace(pres, coxeter_m=tuple(tuple(row) for row in m))
    monkeypatch.setattr(weyl, "derive_cartan", lambda family: wrong)
    reps = {r.check: r for r in verify_coxeter_relations("d4", mode="random",
                                                         seed=0)}
    bad = reps.pop("coxeter/d4/(s0 s1)^1")
    assert not bad.passed and bad.witness.startswith("moved {")
    assert all(r.passed for r in reps.values())


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_coxeter_relations_exact(family):
    for rep in verify_coxeter_relations(family, mode="exact"):
        assert rep.passed, f"{rep.check}: {rep.witness}"


@pytest.mark.parametrize("family", ("d4", "b4f", "b4s", "d52"))
def test_extended_relations(family):
    reps = verify_extended_relations(family)
    assert reps
    for rep in reps:
        assert rep.passed, f"{rep.check}: {rep.witness}"


def test_pi4_product_relation_is_covered():
    names = [r.check for r in verify_extended_relations("d4")]
    assert "automorphism/d4/pi4=pi2 pi3 pi2" in names
    assert "automorphism/d4/pi1-conjugation" in names


def test_translation_words_as_published():
    assert TRANSLATION_WORDS[1] == ("s3", "s0", "s2", "s4", "s1", "s2", "pi4")
    assert len(TRANSLATION_WORDS[1]) == 7
    assert TRANSLATION_WORDS[3] == ("s3", "s2", "s0", "s1", "s2", "s3", "pi1", "pi2")
    assert len(TRANSLATION_WORDS[3]) == 8


def test_translation_shifts():
    for rep in verify_translation_shifts():
        assert rep.passed, f"{rep.check}: {rep.witness}"


def test_t1_moves_sample_parameter_point():
    m = translation_matrix(1)
    vec = (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    image = tuple(sum(m[i][j] * vec[j] for j in range(5)) for i in range(5))
    assert image == (2, 0, -1, 1, 0)


def test_shift_vectors_preserve_normalization():
    for k, shift in TRANSLATION_SHIFTS.items():
        assert sum(w * d for w, d in zip(CONSTRAINT_WEIGHTS, shift)) == 0


def test_full_translation_composition_matches_matrix_path():
    # the one deliberately heavy symbolic composition: seven letters
    rep = weyl.verify_translation_composition(1)
    assert rep.passed
    composed = translation_operator(1)
    assert composed.param_matrix == translation_matrix(1)
    assert composed.time_image.equals(variable("t"))

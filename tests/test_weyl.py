"""Coxeter presentations, relation suites, automorphism relations, and the
lattice translations."""

import time
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest

from painleve4d import transforms as tr
from painleve4d import weyl
from painleve4d.algebra import RationalExpression, rational, variable
from painleve4d.reports import PASS
from painleve4d.systems import make_hamiltonian
from painleve4d.weyl import (
    EXPECTED_CARTAN,
    NonAffineAction,
    TRANSLATION_SHIFTS,
    TRANSLATION_WORDS,
    derive_cartan,
    translation_matrix,
    verify_cartan_table,
    verify_coxeter_relations,
    verify_extended_relations,
    verify_translation_shifts,
)

ALL_FAMILIES = ("d4", "b4f", "b4s", "d52", "d51", "d4alt")


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cartan_matches_affine_table(family):
    rep = verify_cartan_table(family)
    assert rep.status == PASS, rep.witness


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


# bond multiplicities and branch nodes of each affine diagram, typed from
# the standard pictures independently of the Cartan tables
EXPECTED_SHAPES = {
    "d4": {"double_bonds": [], "forks": [2]},
    "d4alt": {"double_bonds": [], "forks": [2]},
    "b4f": {"double_bonds": [(0, 1)], "forks": [2]},
    "b4s": {"double_bonds": [(3, 4)], "forks": [2]},
    "d52": {"double_bonds": [(0, 1), (3, 4)], "forks": []},
    "d51": {"double_bonds": [], "forks": [2, 3]},
}


def test_diagram_shapes():
    assert set(EXPECTED_SHAPES) == set(ALL_FAMILIES)
    for family, expected in EXPECTED_SHAPES.items():
        cartan = EXPECTED_CARTAN[family]
        n = len(cartan)
        bonds = {(i, j): cartan[i][j] * cartan[j][i]
                 for i in range(n) for j in range(i + 1, n)
                 if cartan[i][j] * cartan[j][i]}
        degree = [sum(i in edge for edge in bonds) for i in range(n)]
        shape = {"double_bonds": [e for e, p in bonds.items() if p == 2],
                 "forks": [i for i, d in enumerate(degree) if d >= 3]}
        assert shape == expected, family


def _fake_map(params):
    return tr.BirationalMap(
        label="fake", family="d4", family_out="d4",
        images={**{v: variable(v) for v in "xyzwt"},
                **{f"a{i}": img for i, img in enumerate(params)}})


def test_non_reflection_action_is_rejected(monkeypatch):
    a = [variable(f"a{i}") for i in range(5)]
    scaling = _fake_map([2 * a[0], a[1], a[2], a[3], a[4]])
    monkeypatch.setitem(weyl.REFLECTIONS, "fake", ("f0",))
    monkeypatch.setitem(tr._generators(), "fake", {"f0": scaling})
    with pytest.raises(NonAffineAction):
        derive_cartan("fake")
    shifted = _fake_map([-a[0] + 1, a[1], a[2] + a[0], a[3], a[4]])
    monkeypatch.setitem(tr._generators(), "fake", {"f0": shifted})
    with pytest.raises(NonAffineAction):
        derive_cartan("fake")


def test_non_integral_column_is_rejected(monkeypatch):
    # s1 sending a2 to a2 + a1/2: a reflection in a1 with a_21 = -1/2
    s1 = tr.generator("d4", "s1")
    a1, a2 = variable("a1"), variable("a2")
    monkeypatch.setitem(tr._generators()["d4"], "s1", replace(
        s1, images={**s1.images, "a2": a2 + a1 * rational(Fraction(1, 2))}))
    monkeypatch.setattr(weyl, "derive_cartan", cache(derive_cartan.__wrapped__))
    with pytest.raises(NonAffineAction, match="non-integral"):
        weyl.derive_cartan("d4")


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_coxeter_relations_random(family):
    reps = verify_coxeter_relations(family, mode="random", seed=0, samples=8)
    n = len(weyl.REFLECTIONS[family])
    assert len(reps) == n * (n + 1) // 2
    for rep in reps:
        assert rep.status == PASS, f"{rep.check}: {rep.witness}"


@pytest.mark.parametrize("family, i, j, m", [
    ("d4", 0, 1, 1),    # s0 s1 = identity; m is 2
    ("d4", 0, 2, 2),    # a single bond; m is 3
    ("b4f", 0, 1, 3),   # the double bond; m is 4
    ("d52", 3, 4, 2),   # a double bond; m is 4
], ids=["d4-s0s1^1", "d4-s0s2^2", "b4f-s0s1^3", "d52-s3s4^2"])
def test_wrong_relation_fails_random_coxeter(monkeypatch, family, i, j, m):
    pres = derive_cartan(family)
    orders = [list(row) for row in pres.coxeter_m]
    assert orders[i][j] != m
    orders[i][j] = orders[j][i] = m
    wrong = replace(pres, coxeter_m=tuple(tuple(row) for row in orders))
    monkeypatch.setattr(weyl, "derive_cartan", lambda family: wrong)
    reps = {r.check: r for r in verify_coxeter_relations(family, mode="random",
                                                         seed=0)}
    labels = pres.labels
    bad = reps.pop(f"coxeter/{family}/({labels[i]} {labels[j]})^{m}")
    assert bad.status != PASS and bad.witness.startswith("moved {")
    assert all(r.status == PASS for r in reps.values())


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_coxeter_relations_exact(family):
    for rep in verify_coxeter_relations(family, mode="exact"):
        assert rep.status == PASS, f"{rep.check}: {rep.witness}"


@pytest.mark.parametrize("family", ("d4", "b4f", "b4s", "d52"))
def test_extended_relations(family):
    reps = verify_extended_relations(family)
    assert reps
    for rep in reps:
        assert rep.status == PASS, f"{rep.check}: {rep.witness}"


def test_non_bijective_parameter_action_fails_its_row(monkeypatch):
    # phi sending a0 to two slots is not a permutation of the parameters
    phi = tr.generator("b4f", "phi")
    a0 = variable("a0")
    monkeypatch.setitem(tr._generators()["b4f"], "phi", replace(
        phi, images={**phi.images, "a1": a0}))
    reps = {r.check: r for r in verify_extended_relations("b4f")}
    rep = reps["automorphism/b4f/phi-permutation"]
    assert rep.status != PASS
    assert rep.witness == "parameter action is not a permutation"


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
        assert rep.status == PASS, f"{rep.check}: {rep.witness}"


def test_t1_moves_sample_parameter_point():
    m = translation_matrix(1)
    vec = (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    image = tuple(sum(m[i][j] * vec[j] for j in range(5)) for i in range(5))
    assert image == (2, 0, -1, 1, 0)


def test_shift_vectors_preserve_normalization():
    weights = make_hamiltonian("d4").params.constraint_coeffs
    for k, shift in TRANSLATION_SHIFTS.items():
        assert sum(w * d for w, d in zip(weights, shift)) == 0


def test_full_translation_composition_matches_matrix_path():
    # seven letters, composed exactly on their time and parameter images
    rep = weyl.verify_translation_composition()
    assert rep.status == PASS
    assert rep.witness is None


@pytest.mark.parametrize("k", sorted(TRANSLATION_WORDS))
def test_every_translation_word_composes_to_its_matrix(monkeypatch, k):
    # the row run on each word in turn: its letters' time and parameter
    # images compose to the matrix product, zero offset and time t
    expected = translation_matrix(k)
    monkeypatch.setattr(weyl, "TRANSLATION_WORDS", {1: TRANSLATION_WORDS[k]})
    monkeypatch.setattr(weyl, "translation_matrix", lambda _: expected)
    rep = weyl.verify_translation_composition()
    assert rep.status == PASS
    assert rep.witness is None


def test_translation_composition_substitutes_no_phase_expression(monkeypatch):
    # the row reads no phase image, so no phase variable enters any
    # substitution it makes; the catalog is built before the count starts
    for lab in tr.generator_labels("d4"):
        tr.generator("d4", lab)
    translation_matrix(1)
    substitute = RationalExpression.substitute
    seen = []

    def recording(self, assignment):
        seen.append(self.variables())
        return substitute(self, assignment)

    monkeypatch.setattr(RationalExpression, "substitute", recording)
    assert weyl.verify_translation_composition().status == PASS
    phase = set(make_hamiltonian("d4").phase_vars())
    assert seen and not any(v & phase for v in seen)


def test_failing_translation_composition_names_the_parameter_matrix(monkeypatch):
    # the composed T1 against T2's matrix product: the matrix breaks, while
    # the offset and the time image still hold
    product = weyl.translation_matrix(2)
    monkeypatch.setattr(weyl, "translation_matrix", lambda k: product)
    rep = weyl.verify_translation_composition()
    assert rep.status != PASS
    assert rep.witness.startswith("parameter matrix ")
    assert rep.witness.endswith(" is not the product")
    assert "offset" not in rep.witness and "time image" not in rep.witness


@pytest.mark.parametrize("key, moved, witness", [
    ("a0", lambda img: img + 1, "offset ['1', '0', '0', '0', '0']"),
    ("t", lambda img: -img, "time image -t"),
], ids=["offset", "time-image"])
def test_failing_translation_composition_names_offset_or_time(
        monkeypatch, key, moved, witness):
    # T1's last letter, pi4, with a shifted a0 image, or with time reversed:
    # the composed word carries the same failure, the row names it alone,
    # and the parameter matrix still holds
    letter = weyl.generator

    def broken_letter(family, label):
        m = letter(family, label)
        if label != "pi4":
            return m
        return replace(m, images={**m.images, key: moved(m.images[key])})

    monkeypatch.setattr(weyl, "generator", broken_letter)
    rep = weyl.verify_translation_composition()
    assert rep.status != PASS
    assert rep.witness == witness
    assert "parameter matrix" not in rep.witness


def test_failing_translation_shift_shows_both_matrices(monkeypatch):
    # every word given T2's matrix: T1's shift row compares it with T1's
    product = weyl.translation_matrix(2)
    monkeypatch.setattr(weyl, "translation_matrix", lambda k: product)
    rep = next(r for r in verify_translation_shifts()
               if r.check == "translation/T1-shift")
    assert rep.status != PASS
    assert len(rep.witness) <= 400
    assert rep.witness.startswith("matrix [[") and ", expected [[" in rep.witness
    assert "Fraction(" not in rep.witness


def test_translation_shift_row_times_the_matrix_product(monkeypatch):
    # T1's seven letters take six products, each built inside the T1 row
    mat_mul = weyl._mat_mul

    def slow_mul(a, b):
        time.sleep(0.005)
        return mat_mul(a, b)

    monkeypatch.setattr(weyl, "_mat_mul", slow_mul)
    monkeypatch.setattr(weyl, "translation_matrix",
                        cache(translation_matrix.__wrapped__))
    rep = next(r for r in verify_translation_shifts()
               if r.check == "translation/T1-shift")
    assert rep.status == PASS
    assert rep.elapsed_ms >= 30

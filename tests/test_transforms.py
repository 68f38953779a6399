"""Birational maps: the symmetry claims for every cataloged generator, the
canonical-structure checks, the cross-family equivalences, and the behavior
of composition and words."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from painleve4d import transforms as tr
from painleve4d import weyl
from painleve4d.algebra import rational, residue, variable
from painleve4d.reports import FAIL, PASS
from painleve4d.systems import make_hamiltonian
from painleve4d.transforms import (
    BirationalMap,
    BrokenChange,
    NonInvertibleTime,
    UnknownGenerator,
    compose,
    equivalence_map,
    generator,
    generator_labels,
    identity_map,
    maps_equal_exact,
    poisson_bracket,
    verify_equivalence,
    verify_symmetry,
    verify_symplectic,
    word,
)

SYMMETRY_FAMILIES = ("d4", "b4f", "b4s", "d52", "d51")


def all_generators(families):
    for fam in families:
        for lab in generator_labels(fam):
            yield fam, lab


@pytest.mark.parametrize("family,label", list(all_generators(SYMMETRY_FAMILIES)))
def test_generator_is_exact_symmetry(family, label):
    rep = verify_symmetry(generator(family, label))
    assert rep.status == PASS, rep.witness
    assert rep.mode == "exact"


@pytest.mark.parametrize("family,label", list(all_generators(SYMMETRY_FAMILIES)))
def test_generator_symmetry_random_mode(family, label):
    rep = verify_symmetry(generator(family, label), mode="random", seed=0, samples=4)
    assert rep.status == PASS, rep.witness
    assert rep.samples == 4


def typed_reflection_images() -> dict[str, dict[str, dict]]:
    """The reflections' phase images as published, typed out: the oracle
    for the images the catalog derives from each root.  Keys left out are
    the variables a reflection does not move."""
    x, y, z, w, t = (variable(v) for v in "xyzwt")
    a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))
    b0, b1, b2, b3, b4, b5 = (variable(f"b{i}") for i in range(6))
    d4 = {"s0": {"x": x + a0 / (y - 1)},
          "s1": {"x": x + a1 / y},
          "s2": {"y": y - a2 * z / (x * z - 1), "w": w - a2 * x / (x * z - 1)},
          "s3": {"z": z + a3 / w},
          "s4": {"z": z + a4 / (w - t)}}
    gap = {"y": y - a2 / (x - z), "w": w + a2 / (x - z)}
    return {
        "d4": d4,
        "b4f": {"s1": d4["s1"], "s2": gap, "s3": d4["s3"], "s4": d4["s4"]},
        "b4s": {"s0": d4["s0"], "s1": d4["s1"], "s2": gap, "s3": d4["s3"]},
        "d52": {"s1": d4["s1"], "s2": d4["s2"], "s3": d4["s3"]},
        "d51": {"w0": {"x": x + b0 / (y + t)},
                "w1": {"x": x + b1 / y},
                "w2": {"y": y - b2 / (x - z), "w": w + b2 / (x - z)},
                "w3": {"z": z + b3 / w},
                "w4": {"w": w - b4 / (z - 1)},
                "w5": {"w": w - b5 / z}},
        "d4alt": {"w0": d4["s0"], "w1": d4["s1"], "w2": gap,
                  "w3": d4["s3"], "w4": d4["s4"]},
    }


def test_reflection_images_derived_from_roots_match_the_typed_ones():
    typed = typed_reflection_images()
    assert sum(len(labels) for labels in typed.values()) == 27
    for family, labels in typed.items():
        for label, moved in labels.items():
            m = generator(family, label)
            for v, img in m.var_images.items():
                expected = moved.get(v, variable(v))
                assert (img.num.terms, img.den.terms) == \
                    (expected.num.terms, expected.den.terms), (family, label, v)


def test_root_is_set_on_exactly_the_reflections():
    typed = typed_reflection_images()
    rooted, bare = [], []
    for family in SYMMETRY_FAMILIES + ("d4alt",):
        for label in generator_labels(family):
            m = generator(family, label)
            (rooted if m.root is not None else bare).append(f"{family}/{label}")
            assert (m.root is not None) == (label in typed[family]), (family, label)
    assert len(rooted) == 27
    assert bare == ["d4/pi1", "d4/pi2", "d4/pi3", "d4/pi4", "b4f/s0",
                    "b4f/phi", "b4s/s4", "b4s/phi", "d52/s0", "d52/s4",
                    "d52/psi"]
    assert all(equivalence_map(label).root is None
               for label in generator_labels("maps"))


def test_alternative_reflections_reported_not_asserted():
    # the alternative representation carries Weyl relations but no known
    # invariant polynomial Hamiltonian; the symmetry check must run and
    # produce a definite verdict either way
    for lab in generator_labels("d4alt"):
        rep = verify_symmetry(generator("d4alt", lab))
        assert rep.status in ("pass", "fail")
        if rep.status == "fail":
            assert rep.witness


@pytest.mark.parametrize("family,label",
                         list(all_generators(SYMMETRY_FAMILIES + ("d4alt", "maps"))))
def test_images_preserve_canonical_brackets(family, label):
    rep = verify_symplectic(generator(family, label))
    assert rep.status == PASS, rep.witness


def test_parameter_action_has_kernel_coefficients():
    # an entry is an int whenever it is integral, as in a Polynomial
    maps = [generator(fam, lab) for fam in weyl.REFLECTIONS
            for lab in generator_labels(fam)]
    maps += [generator("maps", lab) for lab in generator_labels("maps")]
    maps.append(word("d4", weyl.TRANSLATION_WORDS[1]))
    for m in maps:
        for c in (*(c for row in m.param_matrix for c in row), *m.param_offset):
            assert type(c) is int or c.denominator != 1, (m.label, c)


def test_scaled_image_breaks_the_canonical_bracket():
    # the same image that chart construction rejects
    ident = identity_map("d4")
    scaled = replace(ident, label="scale-x",
                     images={**ident.images, "x": 2 * variable("x")})
    rep = verify_symplectic(scaled)
    assert rep.status != PASS
    assert rep.witness == "{x',y'} = 2"


def test_identity_map_takes_the_phase_variables_of_its_family():
    assert tuple(identity_map("p3").var_images) == ("q", "p")
    assert tuple(identity_map("d51").var_images) == ("x", "y", "z", "w")


@pytest.mark.parametrize("label", ["p3-to-p3t", "d4-to-b4f", "d4-to-b4s",
                                   "d4-to-d52", "b4f-to-b4s"])
def test_equivalence_maps(label):
    rep = verify_equivalence(equivalence_map(label))
    assert rep.status == PASS, rep.witness


def test_equivalence_maps_random_mode():
    rep = verify_equivalence(equivalence_map("d4-to-d52"), mode="random",
                             seed=3, samples=4)
    assert rep.status == PASS, rep.witness


@pytest.mark.parametrize("mode", ["exact", "random"])
@pytest.mark.parametrize("shift,exact_witness,random_witness", [
    (1, "2", "nonzero residual 2 at {}"),
    (Fraction(1, 3), "(2) / (3)", "nonzero residual 2/3 at {}")],
    ids=["plus-1", "plus-1/3"])
def test_equivalence_rejects_an_action_off_the_target_normalization(
        mode, shift, exact_witness, random_witness):
    # b4f's Hamiltonian never reads a2, which enters only through the
    # normalization, so only the carried normalization sees a2 + shift
    m = equivalence_map("d4-to-b4f")
    moved = replace(m, images={**m.images, "a2": m.images["a2"] + shift})
    rep = verify_equivalence(moved, mode=mode, seed=42)
    assert rep.status == FAIL
    assert rep.witness == (exact_witness if mode == "exact" else random_witness)


def test_symmetry_rejects_an_action_off_the_normalization():
    phi = generator("b4f", "phi")
    moved = replace(phi, images={**phi.images, "a2": phi.images["a2"] + 1})
    rep = verify_symmetry(moved)
    assert rep.status == FAIL and rep.witness == "2"


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES + ("d4alt", "maps"))
def test_every_cataloged_map_carries_the_normalization(family):
    for label in generator_labels(family):
        m = generator(family, label)
        source = make_hamiltonian(m.family).params
        target = make_hamiltonian(m.family_out).params
        assert target.carried_residual(m.images, source).is_zero(), label


def test_2d_hamiltonian_defect_is_parameter_only():
    # the two 2d Hamiltonians differ by g0*g2/t under the gluing map, which
    # the phase gradients kill; freezing the defect pins both conventions
    m = equivalence_map("p3-to-p3t")
    target = make_hamiltonian("p3t")
    source = make_hamiltonian("p3")
    diff = target.hamiltonian.substitute(m.images) - source.hamiltonian
    expected = variable("g0") * variable("g2") / variable("t")
    assert diff.equals(expected)


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        generator("d4", "s9")
    with pytest.raises(UnknownGenerator):
        generator_labels("nope")


def test_reflections_are_involutions():
    ident = identity_map("d4")
    for lab in ("s0", "s1", "s2", "s3", "s4", "pi1", "pi2", "pi3", "pi4"):
        g = generator("d4", lab)
        witness = maps_equal_exact(compose(g, g), ident)
        assert witness is None, f"{lab}: {witness}"


def test_compose_applies_inner_first():
    s1 = generator("d4", "s1")
    pi1 = generator("d4", "pi1")
    point = {"x": Fraction(2), "y": Fraction(3), "z": Fraction(1), "w": Fraction(5),
             "t": Fraction(7), "a0": Fraction(1, 2), "a1": Fraction(1, 4),
             "a2": Fraction(-1, 8), "a3": Fraction(1, 8), "a4": Fraction(3, 8)}
    chained = compose(pi1, s1).apply_point(point)
    stepwise = pi1.apply_point(s1.apply_point(point))
    assert chained == stepwise


def test_word_applies_leftmost_first():
    labels = ["s1", "pi1", "s0"]
    point = {"x": Fraction(2), "y": Fraction(3), "z": Fraction(1), "w": Fraction(5),
             "t": Fraction(7), "a0": Fraction(1, 2), "a1": Fraction(1, 4),
             "a2": Fraction(-1, 8), "a3": Fraction(1, 8), "a4": Fraction(3, 8)}
    composed = word("d4", labels)
    assert composed.apply_point(point) == tr.apply_word_point("d4", labels, point)
    assert composed.label == "s1 pi1 s0"


def test_empty_word_is_identity():
    ident = word("d4", [])
    assert ident.label == "id"
    for v, img in ident.var_images.items():
        assert img.equals(variable(v))


def test_time_flip_generators_declare_it():
    assert generator("d4", "pi1").time_image.equals(-variable("t"))
    assert generator("b4f", "s0").time_image.equals(-variable("t"))
    assert generator("d52", "s4").time_image.equals(-variable("t"))
    assert generator("d4", "s2").time_image.equals(variable("t"))


def test_degenerate_time_image_is_rejected():
    ident = identity_map("d4")
    frozen_time = replace(ident, images={**ident.images, "t": rational(1)})
    with pytest.raises(NonInvertibleTime):
        tr.pushforward_field(frozen_time.images,
                             make_hamiltonian("d4").vector_field())
    rep = verify_symmetry(frozen_time)
    assert rep.status != PASS
    assert "not invertible" in rep.witness


@pytest.mark.parametrize("forward, inverse", [
    ({"x": variable("x") + variable("y"), "y": variable("x")},
     {"x": variable("y")}),
    ({"x": variable("y")},
     {"x": variable("x") + variable("y"), "y": variable("x")}),
])
def test_change_checks_both_directions(forward, inverse):
    # each pair undoes itself in one direction only; on p3, whose phase
    # variables are q and p, x and y are extra quantities the map carries
    # (as the confluence carries eps), so no canonical bracket involves them
    fixed = {k: variable(k) for k in ("q", "p", "t", "g0", "g1", "g2")}
    with pytest.raises(BrokenChange, match="inverse fails on x"):
        BirationalMap(label="change", family="p3", family_out="p3",
                      images={**fixed, **forward}, inverse=inverse)


def test_change_transport_reparametrizes_time():
    # new time 2t: dx/d(2t) = (x t)/2, then t = (new time)/2
    x, t = variable("x"), variable("t")
    d4 = make_hamiltonian("d4")
    fixed = {k: variable(k) for k in (*d4.phase_vars(), *d4.params.symbols)}
    change = BirationalMap(label="change", family="d4", family_out="d4",
                           images={**fixed, "t": 2 * t},
                           inverse={"x": x, "t": t / 2})
    moved = change.transport({"x": x * t})
    assert list(moved) == ["x"]
    assert moved["x"].equals(x * t / 4)


def test_pushforward_reads_time_image_from_the_images():
    # dx/d(2t) = (x t)/2; images without "t" keep time
    x, t = variable("x"), variable("t")
    field = {"x": x * t}
    assert tr.pushforward_field({"x": x, "t": 2 * t}, field)["x"].equals(x * t / 2)
    assert tr.pushforward_field({"x": x}, field)["x"].equals(x * t)


def test_parameter_action_extraction():
    m = generator("d4", "s2")
    row = m.param_matrix[0]
    assert row == (1, 0, 1, 0, 0)
    assert all(c == 0 for c in m.param_offset)
    half = equivalence_map("d4-to-b4f").param_matrix[0]
    assert half == (Fraction(1, 2), Fraction(-1, 2), 0, 0, 0)
    matrix, offset = tr._linear_action(("a0",), [variable("a0") / 3 + 1])
    assert matrix == ((Fraction(1, 3),),) and offset == (1,)


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES + ("d4alt", "maps"))
def test_parameter_actions_stay_exact(family):
    for label in generator_labels(family):
        m = generator(family, label)
        entries = [c for row in m.param_matrix for c in row] + list(m.param_offset)
        assert all(isinstance(c, (int, Fraction)) for c in entries), (label, entries)


def test_linear_action_rejects_nonlinear_images():
    a0 = variable("a0")
    with pytest.raises(ValueError):
        tr._linear_action(("a0",), [a0 * a0])
    with pytest.raises(ValueError):
        tr._linear_action(("a0",), [1 / a0])


def test_parameter_action_follows_its_images():
    # the matrix is read off the images, so the two cannot drift apart
    s1 = generator("d4", "s1")
    a0, a1 = variable("a0"), variable("a1")
    moved = replace(s1, images={**s1.images, "a1": a1 + a0})
    assert moved.param_matrix[1] == (1, 1, 0, 0, 0)
    assert moved.param_matrix[0] == s1.param_matrix[0]
    with pytest.raises(ValueError, match="not affine"):
        tr.BirationalMap(label="square", family="d4", family_out="d4",
                         images={**s1.images, "a0": a0 * a0})


def test_poisson_bracket_canonical_pairs():
    pairs = (("x", "y"), ("z", "w"))
    assert poisson_bracket(variable("x"), variable("y"), pairs).equals(rational(1))
    assert poisson_bracket(variable("x"), variable("w"), pairs).is_zero()
    xy = variable("x") * variable("y")
    assert poisson_bracket(xy, variable("x"), pairs).equals(-variable("x"))


def test_maps_equal_exact_distinguishes():
    assert maps_equal_exact(generator("d4", "s0"), generator("d4", "s1"))
    ident = identity_map("d4")
    flipped = BirationalMap(label="flip-t", family="d4", family_out="d4",
                            images={**ident.images, "t": -variable("t")})
    assert maps_equal_exact(flipped, ident) == "time images differ"


def test_compose_refuses_a_family_mismatch():
    with pytest.raises(ValueError, match="^cannot compose s1 after d4-to-b4s: "
                                         "b4s != b4f$"):
        compose(generator("b4f", "s1"), equivalence_map("d4-to-b4s"))


def test_random_mode_reports_seed_and_witnesses():
    rep = verify_symmetry(generator("d4", "s0"), mode="random", seed=17, samples=3)
    assert rep.seed == 17 and rep.samples == 3 and rep.status == PASS
    s0 = generator("d4", "s0")
    broken = replace(s0, images={**s0.images, "z": variable("z") + 1})
    rep = verify_symmetry(broken, mode="random", seed=17, samples=3)
    assert rep.status != PASS and "residual" in rep.witness


@pytest.mark.parametrize("family", ("d4", "b4f", "b4s", "d52", "d51", "p3", "p3t"))
def test_sample_point_lands_on_the_normalization(family):
    system = make_hamiltonian(family)
    params = system.params
    names = (*system.phase_vars(), "t", *params.symbols)
    for seed in range(20):
        free = tr.sample_residues(random.Random(seed), names)
        point = tr.sample_residues(random.Random(seed), names, params)
        assert list(point) == list(names)
        assert residue(params.constraint_residual(point), tr.PRIME) == 0
        # the first parameter is solved, every other value is the plain draw
        first = params.symbols[0]
        assert {k: v for k, v in point.items() if k != first} == \
            {k: v for k, v in free.items() if k != first}
        assert all(type(v) is int and 0 <= v < tr.PRIME for v in point.values())


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_residual_rows_draw_from_f_p(seed):
    # every random row shares sample_residues; the witness names its draw
    drawn = tr.sample_residues(random.Random(seed), ["x"])["x"]
    witness = tr.residuals_vanish_random([variable("x")], seed, 1)
    assert witness == f"nonzero residual {drawn} at {{x={drawn}}}"


def _draws(points):
    drawn = []

    def draw(rng):
        drawn.append(points[min(len(drawn), len(points) - 1)])
        return drawn[-1]
    return draw, drawn


@pytest.mark.parametrize("singular", [
    lambda: (1 / variable("x")).eval_exact({"x": 0}),
    lambda: (1 / variable("x")).substitute({"x": rational(0)}),
    lambda: Fraction(1, 0),
])
def test_sampled_redraws_past_a_singular_point(singular):
    draw, drawn = _draws([{"x": 0}, {"x": 1}])

    def trial(point):
        if point["x"] == 0:
            singular()
        return None

    assert tr.sampled(random.Random(0), 3, draw, trial) is None
    assert len(drawn) == 4


def test_sampled_redraws_past_a_pole_mod_p():
    system = make_hamiltonian("d4")
    names = (*system.phase_vars(), "t", *system.params.symbols)
    good = tr.sample_residues(random.Random(0), names, system.params)
    # s1 sends x to x + a1/y; its denominator vanishes at y = 0 and at y = p
    draw, drawn = _draws([dict(good, y=0), dict(good, y=tr.PRIME), good])

    def trial(point):
        image = tr.apply_word_residues("d4", ["s1", "s1"], point)
        return None if image == point else "moved"

    assert tr.sampled(random.Random(0), 2, draw, trial) is None
    assert len(drawn) == 4


def test_sampled_gives_up_when_every_point_is_singular():
    draw, drawn = _draws([{"x": 0}])

    def trial(point):
        (1 / variable("x")).eval_exact(point)
        return None

    witness = tr.sampled(random.Random(0), 3, draw, trial)
    assert witness == "could not find enough non-singular sample points"
    assert len(drawn) == tr._RESAMPLE_TRIES + 3 + 1


def test_sampled_stops_at_the_first_witness():
    draw, drawn = _draws([{"x": 1}, {"x": 2}, {"x": 3}])
    witness = tr.sampled(random.Random(0), 3, draw,
                         lambda point: "bad" if point["x"] == 2 else None)
    assert witness == "bad"
    assert len(drawn) == 2


def test_serialization_shape():
    obj = generator("d4", "s2").to_obj()
    assert obj["label"] == "s2"
    assert set(obj["var_images"]) == {"x", "y", "z", "w"}
    assert obj["param_action"]["symbols_in"] == ["a0", "a1", "a2", "a3", "a4"]

"""Chart catalog and transport: the atlases derived from the reflections
against the paper's transcribed chart formulas, construction self-checks,
the polynomiality claims for the four family/chart-set pairs, Hamiltonian
reconstruction from the transported field, and the probabilistic
cross-check."""

import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from painleve4d import holomorphy, transforms
from painleve4d.algebra import rational, variable
from painleve4d.holomorphy import (
    CHART_INDICES,
    CHART_SETS,
    EliminationFails,
    NoChartRule,
    NotHamiltonian,
    UnknownChart,
    _chart,
    _integrate_poly,
    chart,
    chart_field,
    chart_set_charts,
    polynomiality_random_check,
    reconstruct_hamiltonian,
    reflection_chart,
    time_only_denominator,
    to_chart,
    verify_chart_hamiltonians,
    verify_chart_polynomiality,
)
from painleve4d.systems import HamiltonianSystem, make_hamiltonian
from painleve4d.transforms import (PRIME, BirationalMap, BrokenChange,
                                   _generators, _reflection, compose,
                                   equivalence_map, generator)
from painleve4d.weyl import REFLECTIONS

CLAIMED = ("d4", "b4f", "b4s", "d52")

x, y, z, w, t = (variable(v) for v in "xyzwt")
a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))


def identity_chart() -> BirationalMap:
    return _chart("identity", "id", {}, {}, "d4")


def coupling_deleted_d4() -> HamiltonianSystem:
    base = make_hamiltonian("d4")
    return HamiltonianSystem(family="d4", hamiltonian=base.hamiltonian + 2 * y * w / t,
                             pairs=base.pairs, params=base.params)


def transcribed_charts() -> dict[str, dict[str, tuple[dict, dict]]]:
    """The paper's chart formulas, typed out: (forward, inverse) images of
    every chart, keys left out where the chart does not move a variable."""
    def x_flip(a, shift):
        return ({"x": 1 / x, "y": -((y - shift) * x + a) * x},
                {"x": 1 / x, "y": shift - (x * y + a) * x})

    def z_flip(a, shift):
        return ({"z": 1 / z, "w": -z * ((w - shift) * z + a)},
                {"z": 1 / z, "w": shift - (z * w + a) * z})

    y_shear = ({"y": y - 2 * a0 / x + 1 / x ** 2},
               {"y": y + 2 * a0 / x - 1 / x ** 2})
    w_shear = ({"w": w - 2 * a4 / z + t / z ** 2},
               {"w": w + 2 * a4 / z - t / z ** 2})
    gap_fold = ({"x": -((x - z) * y - a2) * y, "y": 1 / y, "w": w + y},
                {"x": z + (a2 - x * y) * y, "y": 1 / y, "w": w - 1 / y})
    r1 = x_flip(a1, 0)
    # the gap fold applied to the output of r1
    fold_after_r1 = (
        {v: gap_fold[0].get(v, variable(v)).substitute(r1[0]) for v in "xyzw"},
        {v: r1[1].get(v, variable(v)).substitute(gap_fold[1]) for v in "xyzw"})
    return {
        "d4": dict(zip(CHART_INDICES, (x_flip(a0, 1), r1, fold_after_r1,
                                       z_flip(a3, 0), z_flip(a4, t)))),
        "b4f": dict(zip(CHART_INDICES, (y_shear, r1, gap_fold,
                                        z_flip(a3, 0), z_flip(a4, t)))),
        "b4s": dict(zip(CHART_INDICES, (x_flip(a0, 1), r1, gap_fold,
                                        z_flip(a3, 0), w_shear))),
        "d52": dict(zip(CHART_INDICES, (y_shear, r1, fold_after_r1,
                                        z_flip(a3, 0), w_shear))),
        "open-probe": dict(zip(CHART_INDICES, (x_flip(a0, 1), r1, gap_fold,
                                               z_flip(a3, 0), z_flip(a4, t)))),
    }


def test_derived_charts_match_the_transcribed_formulas():
    typed = transcribed_charts()
    assert tuple(typed) == CHART_SETS
    for chart_set, charts in typed.items():
        for index, sides in charts.items():
            c = chart(chart_set, index)
            for derived, images in zip((c.var_images, c.inverse), sides):
                assert set(derived) == set("xyzw")
                for k, expr in derived.items():
                    assert expr.equals(images.get(k, variable(k))), \
                        (chart_set, index, k)


@pytest.mark.parametrize("residue", [variable("a3"), variable("a1") + 1],
                         ids=["a3", "a1+1"])
def test_atlas_follows_the_generator_catalog(monkeypatch, residue):
    # d4 s1 with a wrong root: its derived chart is still canonical, and
    # the d4 field is no longer polynomial in it
    monkeypatch.setitem(_generators()["d4"], "s1", _reflection(
        "d4", "s1", residue, y, [a0, -a1, a2 + a1, a3, a4]))
    monkeypatch.setattr(holomorphy, "chart_set_charts",
                        cache(chart_set_charts.__wrapped__))
    reports = {r.check: r for r in
               verify_chart_polynomiality(make_hamiltonian("d4"), "d4")}
    broken = reports["holomorphy/d4/r1/d4"]
    assert broken.status == "fail"
    assert broken.witness.startswith("dy/dt has phase denominator")
    assert reports["holomorphy/d4/r0/d4"].status == "pass"


@pytest.mark.parametrize("chart_set, index, make_map", [
    # the divisor xz - 1 of s2 is reached only through the composite r2
    ("d4", "r2", lambda: generator("d4", "s2")),
    # a map without a root: after the sign flip, pi1 is y -> y - 1, a
    # translation with no pole
    ("d4", "pi1", lambda: generator("d4", "pi1")),
    # the divisor y - x: y - f is x, the partner of y, and df/dx is -1
    ("d4", "r1", lambda: _reflection("d4", "s1", a1, y - x,
                                     [a0, -a1, a2 + a1, a3, a4])),
], ids=["d4-r2-d4-s2", "d4-pi1-d4-pi1", "d4-r1-d4-s1-divisor-y-x"])
def test_chart_rule_refuses_other_shapes(chart_set, index, make_map):
    with pytest.raises(NoChartRule, match=f"^{chart_set}/{index}: "):
        reflection_chart(chart_set, index, make_map())


def d51_atlas() -> dict:
    """The six charts of d51, one per reflection w0-w5; no report row reads
    them, so they stay outside CHART_SETS."""
    return {f"r{i}": reflection_chart("d51", f"r{i}", generator("d51", label))
            for i, label in enumerate(REFLECTIONS["d51"])}


def test_d51_atlas_resolves_the_mirrored_reflections():
    # w4 and w5 send w to w - b/(z - c): the chart flips w, not z
    b4, b5 = variable("b4"), variable("b5")
    charts = d51_atlas()
    for index, b, c in (("r4", b4, 1), ("r5", b5, 0)):
        forward = charts[index].images
        assert forward["z"].equals(-((z - c) * w - b) * w), index
        assert forward["w"].equals(1 / w), index
        assert forward["x"].equals(x) and forward["y"].equals(y), index


def test_d51_is_polynomial_in_its_six_charts():
    system = make_hamiltonian("d51")
    sizes = {}
    for index, c in d51_atlas().items():
        k = reconstruct_hamiltonian(chart_field(system, c), system.pairs)
        assert not k.den.variables() & set("xyzw"), index
        sizes[index] = len(k.num.terms)
    assert sizes == {"r0": 65, "r1": 29, "r2": 23, "r3": 25, "r4": 29, "r5": 27}


@pytest.mark.parametrize("extra, failing", [
    (x ** 2 * y ** 2 * z / t, ["r0", "r2", "r3"]),
    # the coupling 2yz((z - 1)w + b3)/t with coefficient 3, then none
    (y * z * ((z - 1) * w + variable("b3")) / t, ["r2"]),
    (-2 * y * z * ((z - 1) * w + variable("b3")) / t, ["r2"]),
], ids=["x2y2z", "coupling-3", "uncoupled"])
def test_d51_atlas_rejects_the_variants(extra, failing):
    base = make_hamiltonian("d51")
    system = HamiltonianSystem(family="d51", hamiltonian=base.hamiltonian + extra,
                               pairs=base.pairs, params=base.params)
    broken = []
    for index, c in d51_atlas().items():
        field = chart_field(system, c)
        if any(time_only_denominator(rhs, tuple(field)) is None
               for rhs in field.values()):
            broken.append(index)
    assert broken == failing


def test_catalog_complete():
    for s in CHART_SETS:
        for i in CHART_INDICES:
            # a composite is named by its outer chart: d4/r2*d4/r1
            assert chart(s, i).label.split("*")[0] == f"{s}/{i}"


def test_every_chart_set_has_exactly_the_chart_indices():
    # `painleve4d list` prints CHART_INDICES for every set without building
    # the catalog, so the constant must not drift from it
    for s in CHART_SETS:
        assert tuple(chart_set_charts(s)) == CHART_INDICES


def test_nested_chart_composes_through_inversion():
    a1 = variable("a1")
    inner_y = -(y * x + a1) * x
    assert chart("d4", "r2").images["y"].equals(1 / inner_y)


@pytest.mark.parametrize("label, make_chart", [
    ("d4-to-b4f", lambda: chart("d4", "r1")),
    ("d4-to-b4s", lambda: chart("d4", "r3")),
    ("d4-to-d52", lambda: compose(chart("d4", "r3"), chart("d4", "r1"))),
    ("b4f-to-b4s", lambda: compose(chart("b4f", "r3"), chart("b4f", "r1"))),
])
def test_each_equivalence_is_a_chart_on_the_phase_variables(label, make_chart):
    # the phase and time images of every 4d equivalence are those of a
    # chart of its source family, or of two composed, term for term; only
    # the parameter images differ
    m = equivalence_map(label)
    c = make_chart()
    assert list(c.var_images) == list(m.var_images)
    for v, img in m.var_images.items():
        assert img.to_obj() == c.var_images[v].to_obj(), v
    assert m.time_image.to_obj() == c.time_image.to_obj()


def test_unknown_chart():
    with pytest.raises(UnknownChart):
        chart("d4", "r9")
    with pytest.raises(UnknownChart):
        chart("e8", "r0")


def test_bad_bracket_rejected():
    with pytest.raises(BrokenChange):
        _chart("bad", "rx", {"x": 2 / x}, {"x": 2 / x}, "d4")
    # the image that verify_symplectic rejects for a map, with its witness
    with pytest.raises(BrokenChange,
                       match=r"bad/rx: bracket \{x',y'\} = 2$"):
        _chart("bad", "rx", {"x": 2 * x}, {"x": x / 2}, "d4")


def test_bad_inverse_rejected():
    # the inverse of y' = y + x is y = y' - x', not y = y'
    with pytest.raises(BrokenChange, match="bad/ry: inverse fails on y"):
        _chart("bad", "ry", {"y": y + x}, {"y": y}, "d4")


def test_each_chart_is_validated_once(monkeypatch):
    # every map with an inverse is checked at construction: one bracket
    # check, then one inverse check
    validate = BirationalMap.__post_init__
    bracket_defects = transforms.bracket_defects
    brackets, validated = [], []

    def counting_brackets(images, pairs):
        brackets.append(pairs)
        return bracket_defects(images, pairs)

    def counting(self):
        before = len(brackets)
        validate(self)
        if self.inverse is not None:
            assert len(brackets) == before + 1
            validated.append(tuple(self.label.split("*")[0].split("/")))

    monkeypatch.setattr(transforms, "bracket_defects", counting_brackets)
    monkeypatch.setattr(BirationalMap, "__post_init__", counting)
    sets = {s: chart_set_charts.__wrapped__(s) for s in CHART_SETS}
    # 25 cataloged charts plus the two gap folds composed into d4/r2, d52/r2
    assert sum(len(charts) for charts in sets.values()) == 25
    assert len(validated) == len(brackets) == 27
    assert validated.count(("d4", "r2")) == validated.count(("d52", "r2")) == 2
    good = sets["d4"]["r0"]
    with pytest.raises(BrokenChange, match="d4/r0: inverse fails on y"):
        _chart("d4", "r0", good.images, {**good.inverse, "y": y}, good.family)


@pytest.mark.parametrize("family", CLAIMED)
def test_polynomial_in_every_chart(family):
    reports = verify_chart_polynomiality(make_hamiltonian(family), family)
    assert len(reports) == 5
    for r in reports:
        assert r.status == "pass", r.witness


@pytest.mark.parametrize("family", CLAIMED)
def test_reconstruction_polynomial_in_every_chart(family):
    for r in verify_chart_hamiltonians(make_hamiltonian(family), family):
        assert r.status == "pass", r.witness


def test_deleted_coupling_breaks_a_chart():
    reports = verify_chart_polynomiality(coupling_deleted_d4(), "d4")
    failed = [r for r in reports if r.status == "fail"]
    assert failed
    assert all(r.witness for r in failed)


def test_deleted_coupling_fails_one_k_row():
    # K is rebuilt only from a field polynomial in the phase variables;
    # without the coupling, one chart's dK/dy keeps y in its denominator
    failed = {r.check: r.witness
              for r in verify_chart_hamiltonians(coupling_deleted_d4(), "d4")
              if r.status == "fail"}
    assert failed == {"holomorphy/K/d4/r2/d4":
                      "dK/dy is not polynomial in the phase variables: y^3*t"}


def test_transport_is_keyed_by_system_not_family():
    # a modified system of family "d4" must not read the catalog's transport
    catalog = verify_chart_polynomiality(make_hamiltonian("d4"), "d4")
    assert all(r.status == "pass" for r in catalog)
    reports = verify_chart_polynomiality(coupling_deleted_d4(), "d4")
    assert any(r.status == "fail" for r in reports)


@pytest.mark.parametrize("mode", ["random", "exact"])
def test_each_chart_is_transported_once(mode):
    # a fresh process, so that no earlier test has transported a chart yet;
    # four chart sets of five charts
    script = textwrap.dedent(f"""
        import contextlib, io
        from painleve4d import cli, holomorphy
        transport, calls = holomorphy.to_chart, []

        def counting(system, c):
            calls.append(c)
            return transport(system, c)

        holomorphy.to_chart = counting
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["verify", "--suite", "holomorphy", "--mode", "{mode}"])
        print(code, len(calls))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "20"]


@pytest.mark.parametrize("mode", ["random", "exact"])
def test_verify_leaves_the_open_probe_set_unbuilt(mode):
    # a fresh process; each chart set is built when a row first reads it,
    # and no verify row reads d4alt's atlas
    script = textwrap.dedent(f"""
        import contextlib, io
        from painleve4d import cli, holomorphy
        build, built = holomorphy.reflection_chart, set()

        def recording(chart_set, *args, **kwargs):
            built.add(chart_set)
            return build(chart_set, *args, **kwargs)

        holomorphy.reflection_chart = recording
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["verify", "--suite", "holomorphy", "--mode", "{mode}"])
        print(code, *sorted(built))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "b4f", "b4s", "d4", "d52"]


def test_open_probe_reports_without_asserting():
    reports = verify_chart_polynomiality(make_hamiltonian("d4"), "open-probe")
    assert len(reports) == 5
    assert all(r.status in ("pass", "fail") for r in reports)


def test_identity_chart_is_neutral():
    system = make_hamiltonian("d4")
    source = system.vector_field()
    moved = to_chart(system, identity_chart())
    assert list(moved) == list(source)
    for v, rhs in source.items():
        assert moved[v].equals(rhs)


def test_to_chart_rejects_mismatched_phase_space():
    with pytest.raises(EliminationFails):
        to_chart(make_hamiltonian("p3"), chart("d4", "r1"))


def test_two_dimensional_chart_matches_target_system():
    # the inversion chart on (q, p) carries one 2d system onto the other
    q, p, g0 = variable("q"), variable("p"), variable("g0")
    c = _chart("p3", "r", {"q": 1 / q, "p": -q * (q * p + g0)},
               {"q": 1 / q, "p": -(q * p + g0) * q}, "p3")
    moved = to_chart(make_hamiltonian("p3"), c)
    target = make_hamiltonian("p3t").vector_field()
    for v in ("q", "p"):
        assert moved[v].equals(target[v])


def test_reconstruct_constant_field():
    field = {"x": rational(1), "y": rational(0)}
    k = reconstruct_hamiltonian(field, (("x", "y"),))
    assert k.equals(y)


@pytest.mark.parametrize("field, pairs", [
    ({"x": x, "y": y}, (("x", "y"),)),
    # each pair alone is closed; the field is not closed across the pairs
    ({"x": w, "y": rational(0), "z": rational(0), "w": rational(0)},
     (("x", "y"), ("z", "w"))),
], ids=["one-pair", "across-pairs"])
def test_reconstruct_rejects_non_hamiltonian_field(field, pairs):
    with pytest.raises(NotHamiltonian, match=r"^dK/d[xyzw] mismatch: "):
        reconstruct_hamiltonian(field, pairs)


def test_reconstruct_recovers_source_hamiltonian():
    system = make_hamiltonian("d4")
    k = reconstruct_hamiltonian(chart_field(system, identity_chart()), system.pairs)
    h = system.hamiltonian.substitute(system.params.eliminate_first())
    drift = k - h
    assert not (drift.variables() & {"x", "y", "z", "w"})


def test_integrate_poly_stays_exact():
    x, y = variable("x"), variable("y")
    integral = _integrate_poly(3 * x ** 2 + 2 * x * y + 5 + x + x ** 2 * y, "x")
    assert integral.equals(x ** 3 + x ** 2 * y + 5 * x + x ** 2 / 2 + x ** 3 * y / 3)
    for poly in (integral.num, integral.den):
        assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                   for c in poly.terms.values()), poly.terms


def test_time_only_denominator_cases():
    ok = time_only_denominator((x ** 2 - 1) / (x - 1), ("x", "y", "z", "w"))
    assert ok is not None and ok.equals(x + 1) and not ok.den.variables()
    assert time_only_denominator((x ** 2 + 1) / (x - 1), ("x", "y", "z", "w")) is None
    passthrough = (x + 1) / t ** 2
    assert time_only_denominator(passthrough, ("x", "y")).equals(passthrough)
    a0 = variable("a0")
    scaled = x / (a0 + 1)
    assert time_only_denominator(scaled, ("x", "y")).equals(scaled)
    assert time_only_denominator((y + 1) / (y * t), ("x", "y")) is None
    # the monomial content t is split off, the factor x - 1 divided out,
    # and t put back as the denominator
    kept = time_only_denominator((x ** 2 - 1) / (t * (x - 1)),
                                 ("x", "y", "z", "w"))
    assert kept is not None and kept.equals((x + 1) / t)


def test_random_check_agrees_with_exact_verdicts():
    good = polynomiality_random_check(make_hamiltonian("d4"), "d4", seed=0, samples=3)
    assert good.status == "pass"
    bad = polynomiality_random_check(coupling_deleted_d4(), "d4", seed=0, samples=3)
    assert bad.status == "fail"
    assert bad.witness


def test_random_check_draws_from_f_p():
    bad = polynomiality_random_check(coupling_deleted_d4(), "d4", seed=0, samples=3)
    point = bad.witness[bad.witness.index(" at {") + 5:-1]
    values = [item.split("=")[1] for item in point.split(", ")]
    assert values and all(v.isdigit() and int(v) < PRIME for v in values), \
        bad.witness


def test_random_check_witness_is_independent_of_hash_seed():
    # the drawn names are sorted, so the point does not follow set order
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_holomorphy import coupling_deleted_d4, "
            "polynomiality_random_check; "
            "rep = polynomiality_random_check(coupling_deleted_d4(), 'd4', "
            "seed=0, samples=3); "
            "print(json.dumps([rep.status, rep.witness]))")
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    out = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code, str(tests)], env=env,
                              capture_output=True, text=True, check=True)
        out.append(json.loads(done.stdout))
    assert out[0] == out[1]
    status, witness = out[0]
    assert status == "fail"
    assert "remainder" in witness and " at {" in witness


def test_chart_transform_frozen():
    c = chart("d4", "r0")
    with pytest.raises(AttributeError):
        c.label = "d4/r7"
    assert isinstance(c, BirationalMap)


def test_polynomiality_timer_covers_the_chart_lookup(monkeypatch):
    # the chart lookup is part of a row's work, so its time is the row's
    real = holomorphy.chart

    def slow_chart(chart_set, index):
        time.sleep(0.05)
        return real(chart_set, index)

    monkeypatch.setattr(holomorphy, "chart", slow_chart)
    reports = verify_chart_polynomiality(make_hamiltonian("d4"), "d4")
    assert len(reports) == len(CHART_INDICES)
    for rep in reports:
        assert rep.status == "pass" and rep.elapsed_ms >= 50

"""Integrator behavior, defect measurement, and the numerical
cross-validation of symmetry maps against their symbolic verdicts."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from painleve4d import cli, numerics
from painleve4d.algebra import rational, variable
from painleve4d.degeneration import confluence, substitute_confluence
from painleve4d.numerics import (
    _A,
    _B5,
    _C,
    _D,
    _E,
    BENCHMARK,
    DEFAULT_TOL,
    BenchmarkFileError,
    ConstraintViolation,
    GuardTrip,
    Problem,
    SingularStart,
    StepFailure,
    Unmeasurable,
    _extension,
    _stencil,
    compile_field,
    integrate,
    integrate_field,
    load_benchmark,
    push,
    residual,
    solve,
    verify_backlund_numeric,
)
from painleve4d.systems import HamiltonianSystem, ParameterVector, make_hamiltonian
from painleve4d.transforms import equivalence_map, generator, generator_labels, identity_map

BENCH_PARAMS = BENCHMARK.params
BENCH_STATE = BENCHMARK.initial_state


def fresh_benchmark():
    """The benchmark trajectory integrated anew, not solve's cached one,
    for a test that modifies it."""
    return integrate(make_hamiltonian("d4"), BENCH_PARAMS, BENCH_STATE,
                     BENCHMARK.path)


def toy_system() -> HamiltonianSystem:
    return HamiltonianSystem(family="toy", hamiltonian=variable("p"),
                             pairs=(("q", "p"),), params=ParameterVector(symbols=()))


def test_constant_field_is_exact():
    traj = integrate(toy_system(), [], [0.25, 0.5], [1, 2], samples=101)
    worst = max(abs(s[0] - (0.25 + (t - 1))) for t, s in zip(traj.times, traj.states))
    assert worst <= 1e-12
    assert all(abs(s[1] - 0.5) == 0 for s in traj.states)


def test_extension_is_exact_on_a_quartic():
    # q' = 4 t^3: the 4th-order extension reproduces q = t^4 at the samples
    # inside the steps, where a cubic Hermite interpolant misses by ~1e-7
    quartic = HamiltonianSystem(family="toy",
                                hamiltonian=4 * variable("t") ** 3 * variable("y"),
                                pairs=(("x", "y"),),
                                params=ParameterVector(symbols=()))
    traj = integrate(quartic, [], [1.0, 0.5], [1, 2], samples=101)
    assert traj.stats["steps"] == 26
    worst = max(abs(s[0] - time ** 4) for time, s in zip(traj.times, traj.states))
    assert worst <= 1e-13


def test_benchmark_defect():
    traj, defect = solve(BENCHMARK)
    assert len(traj.times) == BENCHMARK.samples
    assert defect == residual(traj) <= 1e-8


def test_zero_field_zero_residual():
    still = HamiltonianSystem(family="toy", hamiltonian=rational(0),
                              pairs=(("q", "p"),), params=ParameterVector(symbols=()))
    traj = integrate(still, [], [0.3, 0.4], [1, 2], samples=51)
    # constant states; the stencil sums leave only rounding noise
    assert residual(traj) < 1e-12


def test_corrupted_sample_shows_up():
    traj = fresh_benchmark()
    defect_before = residual(traj)
    i = len(traj.states) // 2
    bad = list(traj.states[i])
    bad[0] += 1e-3
    traj.states[i] = tuple(bad)
    assert residual(traj) > 1e-2 > defect_before
    bad[0] = math.nan
    traj.states[i] = tuple(bad)
    assert math.isnan(residual(traj))


def test_path_through_origin_fails():
    with pytest.raises(StepFailure) as info:
        integrate(make_hamiltonian("d4"), BENCH_PARAMS, BENCH_STATE, [1, -1],
                  samples=101)
    # 1 + 6 * 915 evaluations: accepted steps shrink towards the pole at
    # t = 0, and the run stops at the first one that leaves a step under
    # h_min
    assert info.value.trajectory.stats == {
        "steps": 915, "rejections": 0, "guard_rejections": 0,
        "evals": 5491}
    # the samples up to t = 0.02; the last one was interpolated inside a
    # step towards the landing sample at t = -0.04
    assert len(info.value.trajectory.times) == 50


def test_singular_start():
    with pytest.raises(SingularStart):
        integrate(make_hamiltonian("d4"), BENCH_PARAMS, BENCH_STATE, [1e-12, 1])


def test_constraint_checked():
    with pytest.raises(BenchmarkFileError, match="normalization violated"):
        load_benchmark({"params": [0.2, 0.2, 0.2, 0.2, 0.2]})
    with pytest.raises(ConstraintViolation):
        integrate(make_hamiltonian("d4"), [0.125, 0.125], BENCH_STATE, [1, 2])


def test_unbound_symbol_rejected():
    with pytest.raises(ValueError, match="a4"):
        compile_field(make_hamiltonian("d4").vector_field(),
                      {"a0": 1, "a1": 1, "a2": 1, "a3": 1})


def test_reversible_path():
    traj = integrate(make_hamiltonian("d4"), BENCH_PARAMS, BENCH_STATE,
                     [1, 2, 1], samples=1001)
    gap = max(abs(a - complex(b)) for a, b in zip(traj.states[-1], BENCH_STATE))
    assert gap <= 10 * sum(DEFAULT_TOL)


def test_tighter_tolerance_never_hurts():
    d4 = make_hamiltonian("d4")
    coarse = integrate(d4, BENCH_PARAMS, BENCH_STATE, [1, 2],
                       tol=(1e-6, 1e-6), samples=201)
    fine = integrate(d4, BENCH_PARAMS, BENCH_STATE, [1, 2],
                     tol=(1e-7, 1e-7), samples=201)
    assert residual(fine) <= residual(coarse)


@pytest.mark.parametrize("label", list(generator_labels("d4")))
def test_numeric_agrees_with_symbolic(label):
    rep = verify_backlund_numeric(generator("d4", label))
    assert rep.status == "pass", rep.witness


def test_identity_map_has_zero_gap():
    rep = verify_backlund_numeric(identity_map("d4"))
    assert rep.status == "pass"


def test_mutated_parameter_flips_verdict():
    rep = verify_backlund_numeric(generator("d4", "s1"), mutate=("a1", 1e-3))
    assert rep.status == "fail"
    assert rep.witness == "pointwise gap 1.308e-03, defects 7.521e-13/9.027e-13"


def test_unmeasurable_trajectory_fails_the_row():
    # four samples on [1, 2]: no segment holds the five-point stencil, so
    # the source's defect is refused, and the refusal is the witness
    problem = replace(BENCHMARK, samples=4)
    with pytest.raises(Unmeasurable) as refusal:
        solve(problem)
    rep = verify_backlund_numeric(generator("d4", "s1"), problem=problem)
    assert rep.status == "fail"
    assert rep.witness == str(refusal.value)


def test_pushed_start_on_a_pole_of_the_map_fails_the_row():
    # s1 divides by y, so a start with y = 0 has no image
    problem = replace(BENCHMARK, initial_state=(0.5, 0.0, 0.2, 1 / 7))
    rep = verify_backlund_numeric(generator("d4", "s1"), problem=problem)
    assert rep.status == "fail"
    assert rep.witness == "initial point singular under the map: denominator 0"


def count_compiles(monkeypatch) -> list[str]:
    """The file names of the `_compiled` calls from now on."""
    compiled, calls = numerics._compiled, []

    def counting(lines, filename):
        calls.append(filename)
        return compiled(lines, filename)

    monkeypatch.setattr(numerics, "_compiled", counting)
    return calls


def test_one_row_compiles_its_point_map_once(monkeypatch):
    # with the source solved: the push's one program of point map and time
    # image, and the target's one program of field and step; the target's
    # residual evaluates the field the target was integrated on
    solve(BENCHMARK)
    calls = count_compiles(monkeypatch)
    assert verify_backlund_numeric(generator("d4", "s1")).status == "pass"
    assert calls == ["<point-map>", "<compiled-field>"]


def test_one_solve_compiles_its_field_once(monkeypatch):
    # a problem no other test solves: the field and its step in one
    # program, and the residual reads the field the trajectory carries
    calls = count_compiles(monkeypatch)
    traj, defect = solve(replace(BENCHMARK, samples=37))
    assert calls == ["<compiled-field>"]
    assert defect == residual(traj)


def test_source_trajectory_is_integrated_once():
    # a fresh process, so that no earlier test has integrated the source;
    # one source and one target for each of the nine d4 generators
    script = textwrap.dedent("""
        import contextlib, io
        from painleve4d import cli, numerics
        integrate, calls = numerics.integrate, []

        def counting(*args, **kwargs):
            calls.append(args[0].family)
            return integrate(*args, **kwargs)

        numerics.integrate = counting
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["verify", "--suite", "numeric"])
        print(code, len(calls))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "10"]


def test_mutation_leaves_cached_source_alone():
    source, defect = solve(BENCHMARK)
    before = (list(source.times), list(source.states), source.evaluator)
    misses = solve.cache_info().misses
    mutated = verify_backlund_numeric(generator("d4", "s1"), mutate=("a1", 1e-3))
    assert mutated.status == "fail"
    # the mutated run read the cached source and changed none of it
    assert solve.cache_info().misses == misses
    assert solve(BENCHMARK) == (source, defect)
    assert (source.times, source.states, source.evaluator) == before
    assert verify_backlund_numeric(generator("d4", "s1")).status == "pass"


def test_equivalence_map_numeric():
    problem = Problem("p3", params=(0.25, 0.25, 0.25), initial_state=(0.3, 0.7),
                      path=BENCHMARK.path)
    rep = verify_backlund_numeric(equivalence_map("p3-to-p3t"), problem)
    assert rep.status == "pass", rep.witness


@pytest.mark.parametrize("label, mutated_gap", [
    ("d4-to-b4f", "2.932e-03"),
    ("d4-to-b4s", "9.935e-03"),
    ("d4-to-d52", "7.585e-02"),
])
def test_push_through_family_changing_maps(label, mutated_gap):
    m = equivalence_map(label)
    assert push(BENCHMARK, m)[0].family == m.family_out
    rep = verify_backlund_numeric(m)
    assert rep.status == "pass", rep.witness
    mutated = verify_backlund_numeric(m, mutate=("a1", 1e-3))
    assert mutated.status == "fail"
    assert mutated.witness.startswith(f"pointwise gap {mutated_gap},")


def test_push_refuses_another_family():
    with pytest.raises(ValueError, match="acts on b4f"):
        push(BENCHMARK, equivalence_map("b4f-to-b4s"))[0]


def test_parameter_transport():
    mapped = push(BENCHMARK, generator("d4", "s1"))[0].params
    assert mapped[1] == -BENCH_PARAMS[1]
    assert mapped[2] == BENCH_PARAMS[2] + BENCH_PARAMS[1]


def test_confluence_matches_direct_integration():
    # integrate the six-parameter system in the old frame, transport the
    # trajectory through the inverse substitution, and compare with a direct
    # integration of the substituted field at the same fixed epsilon
    eps_val = 0.1
    alphas = {f"a{i}": v for i, v in enumerate(BENCH_PARAMS)}
    consts = {**alphas, "eps": eps_val}
    sub = confluence()
    phase = ("x", "y", "z", "w")
    d51 = make_hamiltonian("d51")
    # the d51 parameters as a field keyed by their names; no image holds
    # one of them, so the state it is evaluated at is not read
    params, _ = compile_field({b: sub.inverse[b] for b in d51.params.symbols},
                              consts)
    betas = dict(zip(d51.params.symbols,
                     params(0j, (0j,) * len(d51.params.symbols))))
    # both directions in the same names: new coordinates keep the old ones
    to_old, _ = compile_field({v: sub.inverse[v] for v in phase}, consts)
    to_new, _ = compile_field({v: sub.forward[v] for v in phase}, betas)
    new_path = [1.0, 1.2]
    old_path = [-eps_val * s for s in new_path]
    new_x0 = [complex(v) for v in BENCH_STATE]
    old_x0 = to_old(new_path[0], new_x0)
    old = integrate(d51, [betas[s] for s in d51.params.symbols], old_x0,
                    old_path, samples=201)
    new = integrate_field(substitute_confluence(), consts, new_x0, new_path,
                          samples=201)
    assert len(old.times) == len(new.times)
    worst = 0.0
    for t_i, old_state, new_state in zip(old.times, old.states, new.states):
        for back, want in zip(to_new(t_i, old_state), new_state):
            worst = max(worst, abs(back - want))
    assert worst <= 1e-6


def test_trajectory_jsonl():
    traj = integrate(toy_system(), [], [0.0, 1.0], [1, 2], samples=5)
    lines = "\n".join(traj.rows()).splitlines()
    assert len(lines) == len(traj.times)
    row = json.loads(lines[0])
    assert set(row) == {"t_re", "t_im", "state"}
    assert row["state"][1] == [1.0, 0.0]


def check_trajectory_bytes(solving, cfg, digest, tmp_path, capsys):
    problem, _ = load_benchmark(cfg or {})
    jsonl = "\n".join(solving(problem)[0].rows()).encode()
    assert hashlib.sha256(jsonl).hexdigest() == digest
    # integrate -o streams the rows; the file is the same bytes and a newline
    argv = ["integrate", "-o", str(tmp_path / "t.jsonl")]
    if cfg:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv.insert(1, str(tmp_path / "cfg.json"))
    cli.run(argv)
    capsys.readouterr()
    assert (tmp_path / "t.jsonl").read_bytes() == jsonl + b"\n"


@pytest.mark.parametrize("cfg, digest", [
    # real: integrated in float arithmetic
    (None, "5b16f6101fda4f571d47aff658f8ee0432aa461f995dbfccf136d2aa773f7dcb"),
    # complex: the perfbench sweep loop
    ({"path": [1, 3, [3, 2], [1, 2], 1]},
     "8d897ff8c973aa008c98d2f2ee59dfac46872c4a9633924a7da27fe328284579"),
])
def test_trajectory_bytes_are_pinned(cfg, digest, tmp_path, capsys,
                                     monkeypatch):
    # one step per sample: every sample is a step's own state, so these are
    # the stepper's bytes with no sample from the continuous extension
    monkeypatch.setattr(numerics, "SAMPLES_PER_STEP", 1)
    # solve's cache holds trajectories of the default stepping
    monkeypatch.setattr(cli, "solve", numerics._solve)
    check_trajectory_bytes(numerics._solve, cfg, digest, tmp_path, capsys)


@pytest.mark.parametrize("cfg, digest", [
    (None, "354ad9e0de2d9818a793388889f9543bb727aab791270ebef71d7e7bea6de293"),
    ({"path": [1, 3, [3, 2], [1, 2], 1]},
     "ee6ce5733b1a874fd5c2565fcf02160c765422685f88ea8a3bfcc242fc38dd9c"),
])
def test_interpolated_trajectory_bytes_are_pinned(cfg, digest, tmp_path,
                                                  capsys):
    check_trajectory_bytes(solve, cfg, digest, tmp_path, capsys)


def test_load_benchmark_merges_defaults():
    problem, threshold = load_benchmark({"samples": 41})
    assert problem == Problem("d4", BENCH_PARAMS, BENCH_STATE, BENCHMARK.path,
                              samples=41)
    assert threshold == 1e-8
    assert load_benchmark({}) == (BENCHMARK, 1e-8)


def test_load_benchmark_reads_complex_nodes():
    # the shape of a sweep file: [re, im] nodes on a closed loop
    loop = [1, 3, [3, 2], [1, 2], 1]
    problem, threshold = load_benchmark({
        "path": loop, "samples": 8001,
        "initial_state": [[0.5, 0.01], [0.3, -0.02], 0.2, 0.1],
        "defect_threshold": 1e-7})
    # hashable, and the path echoes as the file wrote it
    assert isinstance(hash(problem), int)
    assert json.dumps(problem.path) == json.dumps(loop)
    assert problem.samples == 8001 and threshold == 1e-7


@pytest.mark.parametrize("path, samples", [
    ([1, 3, [3, 2], [1, 2], 1], 8001),        # the sweep loop
    ([1, 1.2, 1.2 + 0.3j, 1.6 + 0.3j], 4),    # one interval per segment
    ([1, 1.001, 3], 5),                       # a segment below its share
    ([1, 2, 2, 3], 6),                        # a zero-length segment
    ([1, 1], 3),
])
def test_integrate_returns_exactly_the_requested_samples(path, samples):
    traj = integrate(toy_system(), [], [0.0, 1.0], path, samples=samples)
    assert len(traj.times) == samples
    # a recorded segment holds the five-point stencil
    assert all(hi - lo >= 4 for lo, hi in traj.segments)


def test_fewer_samples_than_path_nodes_rejected():
    with pytest.raises(ValueError, match="samples"):
        integrate(toy_system(), [], [0.0, 1.0], [1, 2, 3], samples=2)


# prints the generated field source of every four-dimensional family
PRINT_FIELD_SOURCES = """\
from painleve4d.numerics import _field_parts
from painleve4d.systems import make_hamiltonian
for family in ("d4", "b4f", "b4s", "d52", "d51"):
    system = make_hamiltonian(family)
    f = system.vector_field()
    values = {s: 0.1 * (i + 1) for i, s in enumerate(system.params.symbols)}
    print(family, _field_parts(list(f.values()), tuple(f), values))
"""


def test_field_source_is_independent_of_hash_seed():
    # pivot ties in the Horner nesting must not follow set order, which
    # depends on PYTHONHASHSEED
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", PRINT_FIELD_SOURCES], env=env,
                              capture_output=True, text=True, check=True)
        out.append(done.stdout)
    assert len(out[0].splitlines()) == 5
    assert out[0] == out[1]


def looped_dopri_step(rhs, t_a, unit, s, state, h, k1, rtol, atol):
    """Reference Dormand-Prince step written as the textbook index loops,
    with the continuous extension's coefficients as CONTD5 forms them; an
    oracle for the generated straight-line step."""
    n = len(state)
    step = h * unit
    ks = [k1]
    for stage in range(1, 7):
        acc = list(state)
        for j, a in enumerate(_A[stage]):
            if a:
                for i in range(n):
                    acc[i] += step * a * ks[j][i]
        ks.append(rhs(t_a + (s + _C[stage] * h) * unit, tuple(acc)))
    new = list(state)
    for j, b in enumerate(_B5):
        if b:
            for i in range(n):
                new[i] += step * b * ks[j][i]
    err = 0.0
    for i in range(n):
        e = 0j
        for j, d in enumerate(_E):
            if d:
                e += d * ks[j][i]
        sc = atol + rtol * max(abs(state[i]), abs(new[i]))
        err = max(err, abs(e) * h / sc)
    dense = []
    for i in range(n):
        yd = new[i] - state[i]
        r3 = step * ks[0][i] - yd
        r4 = yd - step * ks[6][i] - r3
        weighted = None
        for j, d in enumerate(_D):
            if d:
                term = d * ks[j][i]
                weighted = term if weighted is None else weighted + term
        dense.append((state[i], yd, r3, r4, step * weighted))
    return tuple(new), ks[6], err, tuple(dense)


def nonlinear_field(n: int) -> tuple[dict, dict]:
    """y_i' = y_{i+1}^2 - t y_i + 1/(2 + y_i y_{i-1}) over the first n of
    x, y, z, w: a field whose denominators are in the phase variables, and
    its constants, none."""
    names = ("x", "y", "z", "w")[:n]
    y = [variable(v) for v in names]
    t = variable("t")
    exprs = [y[(i + 1) % n] ** 2 - t * y[i] + 1 / (2 + y[i] * y[i - 1])
             for i in range(n)]
    return dict(zip(names, exprs)), {}


def cataloged_field(family: str) -> tuple[dict, dict]:
    """The family's field and its parameters' benchmark values."""
    system = toy_system() if family == "toy" else make_hamiltonian(family)
    values = dict(zip(system.params.symbols, BENCH_PARAMS))
    return system.vector_field(), values


@pytest.mark.parametrize("name", ["1", "2", "4", "d4", "b4f", "d52", "toy"])
def test_generated_step_matches_looped_reference(name):
    # "1", "2", "4": the phase-denominator field in that dimension; the
    # cataloged fields at the benchmark parameters
    rng = random.Random(name)
    f, constants = (nonlinear_field(int(name)) if name.isdigit()
                    else cataloged_field(name))
    ev, step = compile_field(f, constants)
    base = [0j] * len(f) if name.isdigit() else [0.1 * c for c in range(len(f))]

    def draw():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    for _ in range(50):
        state = tuple(b + draw() for b in base)
        t_a, unit = draw() + 3, draw()
        unit /= abs(unit)
        s, h = rng.uniform(0, 1), 10 ** rng.uniform(-4, -1)
        k1 = ev(t_a + s * unit, state)
        args = (t_a, unit, s, state, h, k1, 1e-10, 1e-9)
        assert repr(step(*args)) == repr(looped_dopri_step(ev, *args))


@pytest.mark.parametrize("family", ["d4", "b4f", "b4s", "d52", "d51"])
def test_float_step_is_the_real_part_of_the_complex_step(family):
    # d52 and b4s square a phase variable: the square must be a product,
    # since float ** 2 may differ from the complex square in the last bit.
    # Such a difference seldom reaches the step's output, hence many draws,
    # and states of magnitude 1 to 3, where the squared terms weigh most.
    rng = random.Random(family)
    system = make_hamiltonian(family)
    values = {s: rng.uniform(-1, 1) for s in system.params.symbols}
    real, real_step = compile_field(system.vector_field(), values)
    cplx, cplx_step = compile_field(system.vector_field(),
                                    {s: complex(v) for s, v in values.items()})
    for _ in range(2000):
        state = tuple(rng.choice((-1, 1)) * rng.uniform(1, 3)
                      for _ in system.phase_vars())
        t_a, unit = rng.uniform(2, 4), rng.choice((-1.0, 1.0))
        s, h = rng.uniform(0, 1), 10 ** rng.uniform(-4, -2)
        t = t_a + s * unit
        got = real_step(t_a, unit, s, state, h, real(t, state), 1e-10, 1e-9)
        want = cplx_step(complex(t_a), complex(unit), s,
                         tuple(map(complex, state)), h,
                         cplx(complex(t), tuple(map(complex, state))),
                         1e-10, 1e-9)
        # the extension's coefficients, and a sample inside the step
        theta = rng.random()
        got_values = [*got[0], *got[1], got[2], *sum(got[3], ()),
                      *_extension(got[3], theta)]
        want_values = [*want[0], *want[1], want[2], *sum(want[3], ()),
                       *_extension(want[3], theta)]
        assert all(type(v) is float for v in got_values)
        assert got_values == [complex(v).real for v in want_values]


def test_benchmark_step_counts():
    stats = solve(BENCHMARK)[0].stats
    # one step per four samples, and a first step of one sample spacing
    assert stats == {"steps": 501, "rejections": 0, "guard_rejections": 0,
                     "evals": 3007}


@pytest.mark.parametrize("path", [(1, 1.00000000000001, 2),
                                  (1, 2, 2.00000000000001)])
def test_a_segment_too_short_to_step_carries_no_defect(path, tmp_path, capsys):
    # the segment of length 1e-14 is under the minimum step 1e-13: no step
    # crosses it, so its samples hold one state and its differences are not
    # a derivative; the rest of the path is stepped as [1, 2] is
    traj, defect = solve(replace(BENCHMARK, path=path))
    assert traj.stats == solve(BENCHMARK)[0].stats
    assert defect <= 1e-8
    (tmp_path / "short.json").write_text(json.dumps({"path": path}))
    assert cli.run(["integrate", str(tmp_path / "short.json")]) == 0
    assert json.loads(capsys.readouterr().out)["defect"] == defect


@pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6, 1e-3])
def test_a_short_leg_carries_no_defect(delta, tmp_path, capsys):
    # the first leg holds 2 to 4 samples, too few for the five-point
    # stencil; a two- or three-point one read its truncation or rounding,
    # from 1.9e-7 to 4.2e-5 on a run as accurate as [1, 2]'s
    (tmp_path / "short.json").write_text(json.dumps({"path": [1, 1 + delta, 2]}))
    assert cli.run(["integrate", str(tmp_path / "short.json")]) == 0
    assert json.loads(capsys.readouterr().out)["defect"] <= 1e-8


@pytest.mark.parametrize("path, sample", [
    ((1, 1.000001, 2), 1),  # shared by a 2-sample leg and its long neighbour
    ((1, 1.002, 2), 2),     # inside a 5-sample leg
])
def test_a_shifted_sample_is_seen_where_the_stencil_fits(path, sample):
    traj = solve(replace(BENCHMARK, path=path))[0]
    states = list(traj.states)
    states[sample] = (states[sample][0] + 1e-6,) + states[sample][1:]
    assert residual(replace(traj, states=states)) > 1e-3


def test_guard_trip_stops_the_step_at_the_tripping_stage():
    # (x, y/t): denominator 1 trips where the stage time is exactly 0, which
    # t_a = -c_k, s = 0, h = 1 puts at stage k
    x, y, t = variable("x"), variable("y"), variable("t")
    state = (0.5 + 0.1j, -1j)
    for stage in range(1, 6):
        ev, step = compile_field({"x": x, "y": y / t}, {})
        args = (-_C[stage], 1.0, 0.0, state, 1.0, state, 1e-10, 1e-10)
        with pytest.raises(GuardTrip) as fused:
            step(*args)
        calls = []

        def counted(*point):
            calls.append(point)
            return ev(*point)

        with pytest.raises(GuardTrip) as looped:
            looped_dopri_step(counted, *args)
        assert fused.value.stage == len(calls) == stage
        assert str(fused.value) == str(looped.value) == "denominator 1"


def test_a_step_onto_a_guarded_denominator_halves_until_underflow():
    # the factor x - 3/2 is not cancelled, so y' trips the guard where a
    # stage lands on x = t = 3/2, the fifth of nine samples on [1, 2]
    x = variable("x")
    pole = rational(3) / 2
    field = {"x": rational(1), "y": (x - pole) ** 2 / (x - pole)}
    with pytest.raises(StepFailure,
                       match="step underflow at denominator guard") as info:
        integrate_field(field, {}, [1.0, 0.0], [1, 2], samples=9)
    traj = info.value.trajectory
    assert len(traj.times) == 4
    stats = traj.stats
    assert stats == {"steps": 34, "rejections": 0, "guard_rejections": 56,
                     "evals": 389}
    # one evaluation at the start, six per step the guard let through (none
    # rejected here), and one to six for each step the guard stopped
    guarded = stats["evals"] - 1 - 6 * stats["steps"]
    assert stats["guard_rejections"] <= guarded <= 6 * stats["guard_rejections"]


def test_a_non_finite_error_estimate_rejects_until_underflow():
    # y' = y^2 from 1e200 overflows at the start, so every error estimate
    # is NaN, which no step accepts; each rejection cuts the step fivefold
    y = variable("y")
    ev, step = compile_field({"y": y * y}, {})
    _, _, err, _ = step(1.0, 1.0, 0.0, (1e200,), 0.25, ev(1.0, (1e200,)),
                        *DEFAULT_TOL)
    assert not math.isfinite(err)
    with pytest.raises(StepFailure,
                       match="step underflow near singularity") as info:
        integrate_field({"y": y * y}, {}, [1e200], [1, 2], samples=5)
    traj = info.value.trajectory
    assert len(traj.times) == 1
    assert traj.stats == {"steps": 0, "rejections": 18, "guard_rejections": 0,
                          "evals": 109}


def looped_residual(traj):
    """The defect as the row-wise loop over samples: an oracle for the
    column-wise residual, on the same field."""
    rhs = traj.evaluator
    worst = 0.0
    for lo, hi in traj.segments:
        if hi <= lo:
            continue
        step = (traj.times[hi] - traj.times[lo]) / (hi - lo)
        if step == 0:
            continue
        for i in range(lo, hi + 1):
            fd = [0j] * len(traj.states[0])
            for offset, coeff in _stencil(i, lo, hi):
                sample = traj.states[i + offset]
                for c in range(len(fd)):
                    fd[c] += coeff * sample[c]
            exact = rhs(traj.times[i], traj.states[i])
            for c in range(len(fd)):
                worst = max(worst, abs(fd[c] / step - exact[c]))
    return worst


def test_residual_matches_looped_reference():
    d4 = make_hamiltonian("d4")
    traj = fresh_benchmark()
    assert residual(traj) == looped_residual(traj)
    i = len(traj.states) // 2
    traj.states[i] = (traj.states[i][0] + 1e-3,) + traj.states[i][1:]
    assert residual(traj) == looped_residual(traj)
    # of segments of 2 to 5 samples only the one of five is recorded, where
    # every sample has its own edge stencil but the middle one
    short = integrate(d4, BENCH_PARAMS, BENCH_STATE,
                      [1, 1.2, 1.2 + 0.3j, 1.6 + 0.3j, 1.6 + 0.8j], samples=11)
    assert sorted(hi - lo + 1 for lo, hi in short.segments) == [5]
    assert residual(short) == looped_residual(short)


def test_residual_holds_no_field_values():
    # the peak grows by the four columns of references to the states per
    # sample (about 40 bytes), not by the four columns of differences
    # (about 130 more), which are held for one block of samples at a time,
    # nor by a list of field values (about 400 in all)
    traj = solve(BENCHMARK)[0]

    def peak(k):
        n = len(traj.states) * k
        tiled = replace(traj, times=[1 + i / (n - 1) for i in range(n)],
                        states=traj.states * k, segments=[(0, n - 1)])
        residual(tiled)
        tracemalloc.start()
        try:
            residual(tiled)
            return tracemalloc.get_traced_memory()[1], n
        finally:
            tracemalloc.stop()

    (small, n_small), (large, n_large) = peak(1), peak(4)
    assert (large - small) / (n_large - n_small) < 64

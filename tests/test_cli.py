import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from painleve4d import __version__, cli
from painleve4d.algebra import rational
from painleve4d.cli import run
from painleve4d.numerics import Trajectory


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, _ = invoke(capsys, *argv)
    return code, json.loads(out)


def test_list(capsys):
    code, doc = invoke_json(capsys, "list")
    assert code == 0
    assert "d4" in doc["families"]
    assert doc["generators"]["d4"] == ["s0", "s1", "s2", "s3", "s4",
                                       "pi1", "pi2", "pi3", "pi4"]
    assert doc["chart_sets"]["d52"] == ["r0", "r1", "r2", "r3", "r4"]


def test_show(capsys):
    code, doc = invoke_json(capsys, "show", "d4")
    assert code == 0
    assert doc["pairs"] == [["x", "y"], ["z", "w"]]
    assert doc["constraint"]["coeffs"]["a2"] == "2"


def test_apply_involution_roundtrip(capsys):
    point = "1/2,1/3,1/5,1/7,2"
    params = "1/8,1/8,1/8,1/4,1/4"
    code, doc = invoke_json(capsys, "apply", "d4", "s2", "s2",
                            "--point", point, "--params", params)
    assert code == 0
    assert doc["output"] == doc["input"]


def test_apply_symbolic(capsys):
    code, doc = invoke_json(capsys, "apply", "d4", "s1", "pi2")
    assert code == 0
    assert len(doc["letters"]) == 2


def test_apply_d4alt(capsys):
    # the d4alt generators act on the d4 phase space and parameters
    code, doc = invoke_json(capsys, "apply", "d4alt", "w1", "w1",
                            "--point", "1/2,1/3,1/5,1/7,2",
                            "--params", "1/8,1/8,1/8,1/4,1/4")
    assert code == 0
    assert doc["output"] == doc["input"]
    code, doc = invoke_json(capsys, "apply", "d4alt", "w2")
    assert code == 0
    assert doc["letters"][0]["label"] == "w2"


def test_apply_equivalence_maps(capsys):
    # the point lives on the first map's source phase space (d4)
    code, doc = invoke_json(capsys, "apply", "maps", "d4-to-b4f",
                            "--point", "1/2,1/3,1/5,1/7,2",
                            "--params", "1/8,1/8,1/8,1/4,1/4")
    assert code == 0
    # x' = 1/x, y' = -(x y + a1) x, a0' = (a0 - a1)/2
    assert doc["output"]["x"] == "2" and doc["output"]["y"] == "-7/48"
    assert doc["output"]["a0"] == "0" and doc["output"]["z"] == "1/5"
    code, doc = invoke_json(capsys, "apply", "maps", "d4-to-b4f", "b4f-to-b4s")
    assert code == 0
    assert [(m["family"], m["family_out"]) for m in doc["letters"]] == [
        ("d4", "b4f"), ("b4f", "b4s")]
    code, doc = invoke_json(capsys, "apply", "maps", "p3-to-p3t",
                            "--point", "1/2,1/3,2", "--params", "1/4,1/4,1/4")
    assert code == 0
    assert doc["output"]["q"] == "2"


def test_apply_dimension_mismatch(capsys):
    code, _, err = invoke(capsys, "apply", "d4", "s1", "--point", "1/2,1/3")
    assert code == 2
    assert "expected" in err


def test_verify_small_suite(capsys):
    code, doc = invoke_json(capsys, "verify", "--suite", "fields,integrals",
                            "--format", "json")
    assert code == 0
    names = [c["check"] for c in doc["checks"]]
    assert names == sorted(names)
    assert "fields/d4" in names and "integrals/toy/deg1" in names
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_family_filter(capsys):
    code, doc = invoke_json(capsys, "verify", "--suite", "symmetry",
                            "--family", "d51", "--format", "json")
    assert code == 0
    assert len(doc["checks"]) == 6
    assert all(c["check"].startswith("symmetry/d51/") for c in doc["checks"])


def test_family_filter_applies_to_every_suite(capsys):
    code, doc = invoke_json(capsys, "verify", "--suite",
                            "translations,integrals,confluence",
                            "--family", "d51", "--format", "json")
    assert code == 0
    assert {c["family"] for c in doc["checks"]} == {"d51"}
    assert {c["check"].split("/")[0] for c in doc["checks"]} == {"degeneration"}
    code, doc = invoke_json(capsys, "verify", "--suite", "translations,integrals",
                            "--family", "d4", "--format", "json")
    assert code == 0
    names = [c["check"] for c in doc["checks"]]
    assert "integrals/d4/deg2" in names and "translation/powers" in names
    assert "integrals/toy/deg1" not in names


@pytest.mark.parametrize("mode", ["random", "exact"])
@pytest.mark.parametrize("suite", cli.SUITES)
def test_every_row_carries_its_declared_family(suite, mode):
    # --family selects rows by their declared family alone, so that family
    # must be the one in the family field of every report the row makes
    rows = [(family, thunk) for name, family, thunk
            in cli._rows(mode, seed=0, samples=2) if name == suite]
    assert rows
    for family, thunk in rows:
        reports = thunk()
        assert reports
        assert {rep.family for rep in reports} == {family}


@pytest.mark.parametrize("mode", ["random", "exact"])
def test_row_table_lists_every_suite_in_order(mode):
    # verify selects from this one list, so every suite it accepts has rows
    # there, and the rows come in SUITES order, the order they run in
    suites = [suite for suite, _, _ in cli._rows(mode, seed=0, samples=2)]
    assert set(suites) == set(cli.SUITES)
    assert suites == sorted(suites, key=cli.SUITES.index)


def test_degenerate_reports_the_confluence_rows(capsys):
    _, degenerate = invoke_json(capsys, "degenerate", "--format", "json")
    _, verify = invoke_json(capsys, "verify", "--suite", "confluence",
                            "--mode", "exact", "--format", "json")
    for doc in (degenerate, verify):
        for check in doc["checks"]:
            check.pop("elapsed_ms")
    assert degenerate["checks"] == verify["checks"]
    assert len(degenerate["checks"]) > 1


def test_verify_deterministic(capsys):
    argv = ("verify", "--suite", "coxeter", "--family", "d4",
            "--mode", "random", "--seed", "7", "--samples", "4",
            "--format", "json")
    _, first = invoke_json(capsys, *argv)
    _, second = invoke_json(capsys, *argv)
    for doc in (first, second):
        for check in doc["checks"]:
            check.pop("elapsed_ms", None)
    assert first == second


def test_random_verify_is_independent_of_hash_seed():
    # set and dict iteration order depend on PYTHONHASHSEED, which an
    # in-process rerun cannot vary
    argv = [sys.executable, "-m", "painleve4d", "verify",
            "--suite", "coxeter,holomorphy,symmetry", "--mode", "random",
            "--seed", "42", "--format", "json"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    docs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              check=True)
        doc = json.loads(done.stdout)
        for check in doc["checks"]:
            check.pop("elapsed_ms", None)
        docs.append(doc)
    assert docs[0] == docs[1]


def _benchmark_file(tmp_path_factory, content: dict) -> str:
    # written outside tmp_path, which must stay empty
    path = tmp_path_factory.mktemp("bench") / "bench.json"
    path.write_text(json.dumps(content))
    return str(path)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_fewer_than_one_sample(capsys, samples):
    # zero samples would report every random check as a pass, checking nothing
    code, out, err = invoke(capsys, "verify", "--suite", "symmetry,coxeter",
                            "--family", "d4", "--mode", "random",
                            "--samples", samples, "--format", "json")
    assert code == 2
    assert out == ""
    assert "--samples" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("apply", "d4", "s0", "--point", "x=1"), "fractions"),
    (("search-integrals", "d4", "--deg", "1", "--twin", "a,b"), "--twin"),
    (("search-integrals", "d4", "--deg", "1", "--twin", "3,1"), "empty"),
    (("search-integrals", "d4", "--deg", "-1", "--twin", "0,1"), "--deg"),
    (("verify", "--suite", "fields", "-o", "{missing}/x.json"), "cannot write"),
    (("verify", "--family", "zz"), "unknown family"),
    (("integrate", "-o", "-"), "standard output"),
    (("apply", "d4", "s0", "--point", "1,1,3,4,1", "--params", "1,0,0,0,0"),
     "{a0=1, a1=0, a2=0, a3=0, a4=0, t=1, w=4, x=1, y=1, z=3}"),
    (("apply", "d4", "s2", "--point", "1,2,1,4,1", "--params", "0,0,1,0,0"),
     "pole of s2"),
    (("apply", "maps", "d4-to-b4f", "d4-to-b4s"),
     "cannot apply d4-to-b4s after d4-to-b4f: it acts on d4, not b4f"),
    (("verify", "--suite", "translations,integrals,confluence,numeric",
      "--family", "b4f"), "no checks for family(ies) b4f"),
    # a dict stands for a benchmark file with that content
    (("integrate", {"tol": [1e-10]}), "tol must be a list of two positive"),
    (("integrate", {"samples": "abc"}), "samples must be an integer"),
    (("integrate", {"path": [1]}), "path must be a list of at least two"),
    (("integrate", {"path": "ab"}), "path must be a list of at least two"),
    (("integrate", {"params": [1, 2]}), "params: expected 5 parameters"),
    (("integrate", {"params": [1, 1, 1, 1, 1]}), "normalization violated"),
    (("integrate", {"initial_state": [0.5, 0.1]}),
     "initial_state must be a list of 4"),
    (("integrate", {"samples": 1}), "samples must be an integer of at least 2"),
    (("integrate", {"sampels": 5}), "unknown key 'sampels'"),
    (("integrate", {"path": [1, 2, 3], "samples": 2}),
     "samples must be an integer of at least 3"),
    (("verify", "--suite", "extended", "--family", "d51"),
     "extended have no checks for family(ies) d51"),
    (("verify", "--suite", "translations", "--family", "b4f"),
     "translations have no checks for family(ies) b4f"),
    # the kernel's exponent overflow, reached from the options
    (("search-integrals", "d4", "--deg", "1", "--twin=-200,200"),
     "--deg 1 with --twin=-200,200 is beyond the kernel: exponent overflow"),
    (("search-integrals", "toy", "--deg", "130", "--twin=0,0"),
     "--deg 130 with --twin=0,0 is beyond the kernel: exponent overflow"),
    # parameters act only at a point; without one they were ignored
    (("apply", "d4", "s1", "--params", "1/8,1/8,1/8,1/4,1/4"),
     "--params needs --point"),
    # the field of d4 has t in its denominators
    (("integrate", {"path": [0, 1]}), "singular at start"),
    (("verify", "--suite", ","), "no suite selected"),
    # the largest ansatz term overflows before any other is built
    (("search-integrals", "d4", "--deg", "130", "--twin=0,0"),
     "--deg 130 with --twin=0,0 is beyond the kernel: exponent overflow"),
    # the normalization's residual overflows to NaN, which no bound admits
    (("integrate", {"params": [1e308, 1e308, -1e308, 0, 0], "path": [1, 2],
                    "samples": 3}),
     "params: normalization violated by nan"),
    # normalized, but the folded coefficient 2 a1 a3 of the field overflows
    (("integrate", {"family": "d52",
                    "params": [-1e200, 1e200, 0.5, 1e200, -1e200],
                    "initial_state": [0.5, 0.3, 0.2, 0.1], "path": [1, 2],
                    "samples": 3}),
     "params: a coefficient folds to (inf+0j), which is not finite"),
    # no segment holds the five-point stencil: four samples in all, or a
    # path shorter than the minimum step, whose defect read 0
    (("integrate", {"path": [1, 2], "samples": 4}),
     "the defect cannot be measured"),
    (("integrate", {"path": [1, 1.00000000000001]}),
     "the defect cannot be measured"),
    (("integrate", {"family": 4}), "family must be a family name"),
    (("integrate", {"defect_threshold": -1}),
     "defect_threshold must be a non-negative number"),
    # an integer too large for a float
    (("integrate", {"params": [10**400, 0, 0, 0, 0]}),
     "params must be a list of numbers"),
    (("apply", "d4", "s9"), "unknown name: 'd4/s9'"),
    # the human report prints no field, so the flag would do nothing
    (("degenerate", "--dump-field"), "--dump-field needs --format json"),
    (("degenerate", "--dump-field", "-o", "report.txt"),
     "--dump-field needs --format json"),
    # a name next to "all" is checked like any other
    (("verify", "--suite", "all,bogus"), "unknown suite(s): bogus"),
])
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, tmp_path_factory,
                                         monkeypatch, argv, message):
    argv = [_benchmark_file(tmp_path_factory, arg) if isinstance(arg, dict)
            else arg.format(missing=tmp_path / "missing") for arg in argv]
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_benchmark_file_nested_too_deeply_exits_2_with_one_line(capsys,
                                                                 tmp_path):
    # the JSON decoder recurses once per array and stops at the
    # interpreter's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = invoke(capsys, "integrate", str(deep))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not valid JSON (maximum recursion depth exceeded" in err


def test_unwritable_output_is_refused_before_any_check(capsys, tmp_path,
                                                        monkeypatch):
    def fail(*args, **extra):
        raise AssertionError("checks ran before the output path was checked")
    monkeypatch.setattr(cli, "_report", fail)
    code, out, err = invoke(capsys, "verify", "--suite", "all",
                            "-o", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == "" and "cannot write" in err


def test_output_check_leaves_no_file_behind(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = invoke(capsys, "verify", "--suite", "fields", "--family", "e8",
                        "-o", str(target))
    assert code == 2
    assert not target.exists()


def test_verify_alt_reflections_do_not_fail_run(capsys):
    code, doc = invoke_json(capsys, "verify", "--suite", "symmetry",
                            "--family", "d4alt", "--format", "json")
    assert code == 0
    statuses = {c["check"]: c["status"] for c in doc["checks"]}
    assert statuses["symmetry/d4alt/w2"] == "inconclusive"
    assert statuses["symmetry/d4alt/w0"] == "pass"
    assert {c["family"] for c in doc["checks"]} == {"d4alt"}


def test_human_report_format(capsys):
    # the default format: one line per check, the status upper-cased in a
    # column of 12, the witness in brackets, then the summary line
    code, out, err = invoke(capsys, "verify", "--suite", "symmetry",
                            "--family", "d4alt")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "PASS         symmetry/d4alt/w0",
        "PASS         symmetry/d4alt/w1",
        "INCONCLUSIVE symmetry/d4alt/w2  [observational, not asserted; "
        "(2*x*z*a2 + 2*a2) / (x*t - z*t)]",
        "PASS         symmetry/d4alt/w3",
        "PASS         symmetry/d4alt/w4",
        "5 checks: 4 pass, 0 fail, 1 inconclusive",
    ]
    assert out.endswith("inconclusive\n")
    code, out, _ = invoke(capsys, "probe-assumption-a", "d4")
    assert code == 0
    assert out.splitlines()[-1] == "5 checks: 4 pass, 0 fail, 1 inconclusive"
    code, out, _ = invoke(capsys, "degenerate")
    assert code == 0
    assert out.splitlines()[-1] == "6 checks: 6 pass, 0 fail, 0 inconclusive"


def test_verify_unknown_suite(capsys):
    code, _, err = invoke(capsys, "verify", "--suite", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_unknown_subcommand(capsys):
    assert invoke(capsys, "bogus")[0] == 2


def test_unknown_family(capsys):
    assert invoke(capsys, "show", "nope")[0] == 2


def test_degenerate(capsys):
    code, doc = invoke_json(capsys, "degenerate", "--format", "json",
                            "--dump-field")
    assert code == 0
    assert len(doc["checks"]) == 6
    assert {c["family"] for c in doc["checks"]} == {"d51"}
    assert doc["epsilon_field"]["time"] == "t"


def test_integrate_default(capsys, tmp_path):
    out = tmp_path / "traj.jsonl"
    code, doc = invoke_json(capsys, "integrate", "--output", str(out))
    assert code == 0
    assert doc["defect"] < 1e-8
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2001
    first = json.loads(lines[0])
    assert first["t_re"] == pytest.approx(1.0)


def test_integrate_threshold_failure(capsys, tmp_path):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"defect_threshold": 1e-15}))
    code, doc = invoke_json(capsys, "integrate", str(bench))
    assert code == 1
    assert doc["defect"] > 1e-15


@pytest.mark.parametrize("end", [30, 1000])
def test_integrate_blow_up_exits_1(capsys, tmp_path, end):
    # the solution has a pole near t = 4.86; the first step, over the whole
    # path, ends in a NaN state and must be rejected, not accepted into a
    # NaN trajectory whose defect reads 0
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"path": [1.0, end], "samples": 2}))
    traj = tmp_path / "traj.jsonl"
    code, out, err = invoke(capsys, "integrate", str(bench), "-o", str(traj))
    assert code == 1
    assert out == ""
    assert err == "integration aborted: step underflow near singularity\n"
    # the partial trajectory is still written: the start sample alone
    (line,) = traj.read_text().splitlines()
    assert json.loads(line)["t_re"] == 1.0


def test_integrate_writes_non_finite_samples_as_json_dumps(
        capsys, tmp_path, monkeypatch):
    nan, inf = math.nan, math.inf
    traj = Trajectory(times=[1.0, complex(2.0, -inf)],
                      states=[(nan, inf), (complex(-inf, nan), 0.5)],
                      segments=[(0, 1)], evaluator=None)
    monkeypatch.setattr(cli, "solve", lambda problem: (traj, 0.0))
    out = tmp_path / "traj.jsonl"
    code, _, _ = invoke(capsys, "integrate", "-o", str(out))
    assert code == 0
    assert out.read_text() == (
        '{"t_re": 1.0, "t_im": 0.0, "state": [[NaN, 0.0], [Infinity, 0.0]]}\n'
        '{"t_re": 2.0, "t_im": -Infinity, '
        '"state": [[-Infinity, NaN], [0.5, 0.0]]}\n')


def test_integrate_writes_in_memory_of_one_row(capsys, tmp_path):
    # about 0.3 MB of output; a writer that builds the whole file as one
    # string peaks at over 0.7 MB
    args = argparse.Namespace(benchmark=None, output=str(tmp_path / "t.jsonl"))
    assert cli._cmd_integrate(args) == 0  # solves, and warms the writer
    tracemalloc.start()
    try:
        code = cli._cmd_integrate(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert os.path.getsize(args.output) > 300_000
    assert peak < 64 * 1024


@pytest.mark.parametrize("content", [b'{"samples": 41', b"[1, 2]", b"\xff{}"])
def test_integrate_malformed_benchmark_exits_2(capsys, tmp_path, content):
    bench = tmp_path / "bad.json"
    bench.write_bytes(content)
    code, out, err = invoke(capsys, "integrate", str(bench))
    assert code == 2
    assert out == ""
    assert err.startswith("error: benchmark file ") and err.count("\n") == 1


def test_integrate_missing_benchmark_exits_2(capsys, tmp_path):
    code, out, err = invoke(capsys, "integrate", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: benchmark file ") and err.count("\n") == 1


def test_integrals_timer_covers_the_search(capsys, monkeypatch):
    def slow_search(system, degree_bound, window):
        time.sleep(0.05)
        return [rational(1)]

    monkeypatch.setattr(cli, "first_integral_search", slow_search)
    _, doc = invoke_json(capsys, "verify", "--suite", "integrals",
                         "--format", "json")
    assert len(doc["checks"]) == 2
    for entry in doc["checks"]:
        assert entry["elapsed_ms"] >= 50


REPORT_DIGESTS = {
    "random": "4cf5d16b41ef9ae4eedfb7c389cfb9c31c902c2acf3b00dc9f25c6f0c0c34ce0",
    "exact": "09a726a557781353556949379b58f54d41492f2c020616cabd94007ae369f510",
}


@pytest.mark.parametrize("mode", REPORT_DIGESTS)
def test_verify_report_is_pinned(mode, capsys):
    # every row's check, family, status, witness, seed and samples, and the
    # document around them; only the timings are left out
    code, doc = invoke_json(capsys, "verify", "--suite", "all", "--mode", mode,
                            "--seed", "42", "--format", "json")
    assert code == 0
    for entry in doc["checks"]:
        del entry["elapsed_ms"]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[mode]


APPLY_DIGESTS = {
    "maps d4-to-b4f":
        "12084f7806a18ca07ca2f44f0b9f15e80ed1951aba0547d8d4e187db9ff6c46f",
    "d4 s1 s2 pi3":
        "60dbf536e5b72414cb3c584f2b4cb96d807eca7d12da65df69922caea9b3b3ff",
}


@pytest.mark.parametrize("word", APPLY_DIGESTS)
def test_symbolic_apply_is_pinned(word, capsys):
    # the images and the printed parameter action, entry by entry
    code, out, _ = invoke(capsys, "apply", *word.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == APPLY_DIGESTS[word]


def test_family_filter_accepts_every_declared_family(capsys):
    # toy is no catalog family, but integrals/toy/deg1 declares it
    code, doc = invoke_json(capsys, "verify", "--suite", "integrals",
                            "--family", "toy", "--format", "json")
    assert code == 0
    assert [c["check"] for c in doc["checks"]] == ["integrals/toy/deg1"]
    code, out, err = invoke(capsys, "verify", "--suite", "integrals",
                            "--family", "nosuch")
    assert code == 2 and out == ""
    assert "unknown family(ies): nosuch" in err and "toy" in err


def test_search_integrals(capsys):
    code, doc = invoke_json(capsys, "search-integrals", "toy",
                            "--deg", "1", "--twin=-1,1")
    assert code == 0
    assert doc["count"] == 3


def test_probe_is_observational(capsys):
    code, doc = invoke_json(capsys, "probe-assumption-a", "d4",
                            "--format", "json")
    assert code == 0
    statuses = {c["check"]: c["status"] for c in doc["checks"]}
    assert statuses["holomorphy/open-probe/r2/d4"] == "inconclusive"
    assert statuses["holomorphy/open-probe/r1/d4"] == "pass"
    # the probe's reports do not pass through the verify rows; it sets the
    # probed family on them itself
    assert len(doc["checks"]) == 5
    assert {c["family"] for c in doc["checks"]} == {"d4"}


def test_probe_takes_the_four_dimensional_families(capsys):
    code, out, err = invoke(capsys, "probe-assumption-a", "p3")
    assert code == 2 and out == ""
    assert "four-dimensional" in err and "d4, b4f, b4s, d52, d51" in err
    code, doc = invoke_json(capsys, "probe-assumption-a", "d51",
                            "--format", "json")
    assert code == 0
    assert len(doc["checks"]) == 5
    assert {c["family"] for c in doc["checks"]} == {"d51"}


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0


def test_each_subcommand_help_describes_it(capsys):
    # the one-line summary listed by `painleve4d --help` heads each
    # subcommand's own --help too; argparse rewraps it, so compare words
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    summaries = {a.dest: a.help for a in sub._choices_actions}
    assert list(summaries) == list(sub.choices)
    for name, summary in summaries.items():
        code, out, _ = invoke(capsys, name, "--help")
        assert code == 0
        assert " ".join(summary.split()) in " ".join(out.split()), name


def test_version_is_the_package_version(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert out == __version__ + "\n"

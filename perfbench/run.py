"""Benchmark of the painleve4d command line, end to end and layer by layer.

    python3 perfbench/run.py --workload verify-random --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is not installed, so every
child is ``python -m painleve4d`` with ``PYTHONPATH`` set to the checkout's
``src``.  ``PAINLEVE4D_JOBS`` is removed from the child environment and
``--jobs`` is never passed.  It is a closed loop: one client, one child
process at a time, each command in a fresh process.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs each operation once untraced and once under
``perfbench/tracer.py``, checks that both give the same verdicts, and
reports the per-layer metrics.  Every run checks the verdicts against the
hand-written table in ``perfbench/expected.py`` (verify workloads) or the
exit code, defect and trajectory length (integrate-sweep).  The last line
of standard output is the JSON result; the lines before it give the
environment and every metric measured, by name and unit.  See
``perfbench/README.md`` for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from expected import expected_verdicts

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
PY = sys.executable
BUDGET_S = 170.0           # every run exits within 180 s
SETUP_REPEATS = 5          # fresh `painleve4d list` runs per run
TRACE_SOLVES = 4           # integrate-sweep solves per traced run
PROBE_PERIOD_S = 0.25      # speed probe: one chunk every 250 ms
REFERENCE_PROBE_S = 0.005  # one chunk's CPU time at the reference speed

WORKLOADS = ("verify-random", "verify-exact", "integrate-sweep")

# integrate-sweep: d4 states and parameters perturbed about the built-in
# benchmark, on a closed complex loop; 8001 samples keep the defect near
# 1e-10, far under the threshold.
BASE_STATE = (0.5, 1 / 3, 0.2, 1 / 7)
BASE_PARAMS = (0.125, 0.125, 0.125, 0.25, 0.25)
D4_WEIGHTS = (1, 1, 2, 1, 1)   # a0 + a1 + 2 a2 + a3 + a4 = 1
LOOP = [1, 3, [3, 2], [1, 2], 1]
SWEEP_SAMPLES = 8001
DEFECT_THRESHOLD = 1e-8

# Spans each workload must open (calls > 0) and must not open (calls == 0)
# in a traced run.
_ALGEBRA = ("algebra.exact_div", "algebra.poly_mul", "algebra.substitute",
            "algebra.normalise")
_VERIFY = _ALGEBRA + (
    "holomorphy.chart_field", "holomorphy.verify_chart_polynomiality",
    "holomorphy.verify_chart_hamiltonians", "transforms.verify_symmetry",
    "transforms.verify_equivalence", "transforms.compose",
    "transforms.pushforward_field", "weyl.verify_coxeter_relations",
    "weyl.verify_extended_relations", "degeneration.verify_confluence_field",
    "degeneration.verify_group_convergence", "systems.first_integral_search",
    "systems.vector_field", "numerics.integrate", "numerics.compile_field",
    "numerics.residual", "numerics.verify_backlund_numeric", "cli.run")
FIRES = {
    "verify-random": _VERIFY + ("algebra.eval_exact",
                                "holomorphy.polynomiality_random_check"),
    "verify-exact": _VERIFY + ("weyl.verify_translation_composition",),
    "integrate-sweep": ("numerics.integrate", "numerics.compile_field",
                        "numerics.residual", "systems.vector_field",
                        "algebra.normalise", "cli.run"),
}
SILENT = {
    "verify-random": ("weyl.verify_translation_composition",),
    "verify-exact": ("holomorphy.polynomiality_random_check",),
    "integrate-sweep": ("holomorphy.chart_field",
                        "weyl.verify_translation_composition",
                        "transforms.verify_symmetry",
                        "numerics.verify_backlund_numeric"),
}

# Per-layer metrics: (span, fields).  Each field becomes "<span>.<field>".
LAYER_SPANS = (
    ("algebra.exact_div", ("calls", "total_s", "self_s")),
    ("algebra.poly_mul", ("calls", "total_s", "self_s")),
    ("algebra.substitute", ("calls", "total_s", "self_s")),
    ("algebra.eval_exact", ("calls", "total_s", "self_s")),
    ("algebra.normalise", ("calls", "total_s", "self_s")),
    ("holomorphy.chart_field", ("calls", "total_s", "self_s")),
    ("holomorphy.verify_chart_polynomiality", ("total_s",)),
    ("holomorphy.verify_chart_hamiltonians", ("total_s",)),
    ("holomorphy.polynomiality_random_check", ("total_s",)),
    ("transforms.verify_symmetry", ("total_s",)),
    ("transforms.verify_equivalence", ("total_s",)),
    ("transforms.compose", ("calls", "total_s", "self_s")),
    ("transforms.pushforward_field", ("calls", "total_s", "self_s")),
    ("weyl.verify_coxeter_relations", ("total_s",)),
    ("weyl.verify_extended_relations", ("total_s",)),
    ("weyl.verify_translation_composition", ("total_s",)),
    ("degeneration.verify_confluence_field", ("total_s",)),
    ("degeneration.verify_group_convergence", ("total_s",)),
    ("systems.first_integral_search", ("total_s",)),
    ("systems.vector_field", ("calls",)),
    ("numerics.integrate", ("calls", "total_s", "self_s")),
    ("numerics.compile_field", ("total_s",)),
    ("numerics.residual", ("total_s",)),
    ("numerics.verify_backlund_numeric", ("total_s",)),
    ("cli.run", ("self_s",)),
)
FIELD_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


class Child(NamedTuple):
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


class Outcome:
    """What one benchmark run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.rss: list[float] = []

    def score(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and why:
            self.problems.append(why)

    def wrong(self, why: str) -> None:
        """A correctness check outside the counted operations failed."""
        self.problems.append(why)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PAINLEVE4D_JOBS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], stdout_path: Path, deadline: float) -> Child:
    """Run argv to completion (or kill it at the deadline); time it and
    take its peak resident memory from wait4."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 stdout_path.read_text(encoding="utf-8", errors="replace"))


def painleve4d(*args: str) -> list[str]:
    return [PY, "-m", "painleve4d", *args]


def traced(trace_path: Path, argv: list[str]) -> list[str]:
    """The same painleve4d command under the tracer, in a fresh process."""
    return [PY, str(HERE / "tracer.py"), str(trace_path), *argv[3:]]


# ---------------------------------------------------------------------------
# operations


def setup_op(work: Path, deadline: float, out: Outcome) -> Child:
    child = run_child(painleve4d("list"), work / "list.txt", deadline)
    try:
        ok = child.code == 0 and "d4" in json.loads(child.stdout)["families"]
    except (ValueError, KeyError, TypeError):
        ok = False
    out.score(1, 0 if ok else 1, f"`painleve4d list` failed (exit {child.code})")
    return child


def verify_argv(mode: str, seed: int, report: Path) -> list[str]:
    argv = painleve4d("verify", "--suite", "all", "--mode", mode)
    if mode == "random":
        argv += ["--seed", str(seed), "--samples", "8"]
    return argv + ["--format", "json", "-o", str(report)]


def _comparable(doc) -> object:
    """The report minus its elapsed-time fields."""
    if not isinstance(doc, dict) or not isinstance(doc.get("checks"), list):
        return None
    checks = [{k: v for k, v in c.items() if k != "elapsed_ms"}
              for c in doc["checks"] if isinstance(c, dict)]
    return {**doc, "checks": checks}


def verify_op(mode: str, seed: int, argv: list[str], report: Path,
              deadline: float, out: Outcome) -> tuple[Child, object]:
    """One verify process; each expected check is one operation, and a
    missing, extra or differing verdict is a failed one."""
    report.unlink(missing_ok=True)
    child = run_child(argv, report.with_suffix(".stdout"), deadline)
    try:
        doc = json.loads(report.read_text(encoding="utf-8"))
        got = {c["check"]: c["status"] for c in doc["checks"]}
    except (OSError, ValueError, KeyError, TypeError):
        doc, got = None, {}
    expected = expected_verdicts(mode)
    wrong = sorted(n for n, s in expected.items() if got.get(n) != s)
    extra = sorted(set(got) - set(expected))
    failed = len(wrong) + len(extra)
    if child.code != 0 and not failed:
        failed = 1
    out.score(len(expected) + len(extra), failed,
              f"verify --mode {mode}: exit {child.code}, wrong or missing "
              f"{wrong[:5]}, extra {extra[:5]}")
    return child, _comparable(doc)


def sweep_config(rng: random.Random) -> dict:
    """One integrate benchmark: a d4 state perturbed in C^4 and parameters
    perturbed on the d4 constraint."""
    state = [[x + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)]
             for x in BASE_STATE]
    params = [p + rng.uniform(-0.02, 0.02) for p in BASE_PARAMS[1:]]
    params.insert(0, 1.0 - sum(w * p for w, p in zip(D4_WEIGHTS[1:], params)))
    residual = sum(w * p for w, p in zip(D4_WEIGHTS, params)) - 1.0
    if abs(residual) > 1e-12:
        raise AssertionError(f"generated parameters miss the d4 constraint "
                             f"by {residual:.3e}")
    return {"family": "d4", "initial_state": state, "params": params,
            "path": LOOP, "tol": [1e-10, 1e-10], "samples": SWEEP_SAMPLES,
            "defect_threshold": DEFECT_THRESHOLD}


def integrate_op(cfg_path: Path, argv: list[str], deadline: float,
                 out: Outcome) -> tuple[Child, object]:
    """One integrate process: exit 0, defect under the threshold, and one
    trajectory line per reported sample."""
    traj = cfg_path.with_suffix(".jsonl")
    traj.unlink(missing_ok=True)
    child = run_child(argv, cfg_path.with_suffix(".stdout"), deadline)
    summary, ok = None, False
    try:
        summary = json.loads(child.stdout)
        with open(traj, "rb") as fh:
            lines = sum(1 for _ in fh)
        ok = (child.code == 0
              and summary["defect"] <= DEFECT_THRESHOLD
              and lines == summary["samples"]
              and abs(lines - SWEEP_SAMPLES) < len(LOOP))
    except (OSError, ValueError, KeyError, TypeError):
        pass
    out.score(1, 0 if ok else 1,
              f"integrate {cfg_path.name}: exit {child.code}, "
              f"summary {json.dumps(summary)[:200]}")
    return child, summary


class Workload:
    """Builds the argv of operation i and runs it."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.rng = random.Random(seed)
        self.configs: list[Path] = []

    def argv(self, i: int) -> list[str]:
        if self.name == "integrate-sweep":
            while len(self.configs) <= i:
                path = self.work / f"cfg{len(self.configs)}.json"
                path.write_text(json.dumps(sweep_config(self.rng)))
                self.configs.append(path)
            return painleve4d("integrate", str(self.configs[i]), "-o",
                              str(self.configs[i].with_suffix(".jsonl")))
        return verify_argv(self.mode, self.seed, self.work / "report.json")

    @property
    def mode(self) -> str:
        return self.name.split("-")[1]

    def run(self, argv: list[str], i: int, deadline: float,
            out: Outcome) -> tuple[Child, object]:
        if self.name == "integrate-sweep":
            return integrate_op(self.configs[i], argv, deadline, out)
        return verify_op(self.mode, self.seed, argv, self.work / "report.json",
                         deadline, out)


# ---------------------------------------------------------------------------
# runs


def _probe_chunk() -> None:
    """A fixed slice of pure-Python work like the program's own: rational
    arithmetic and dict updates keyed on small tuples."""
    acc, table = Fraction(0), {}
    for i in range(1, 1000):
        acc = (acc + Fraction(i % 7 + 1, i % 5 + 1)) % 97
        key = (i % 31, i % 13)
        table[key] = table.get(key, 0) + i


class SpeedProbe:
    """Samples how fast this CPU runs `_probe_chunk` while children run.

    The host's speed drifts by tens of percent within minutes, far more
    than the bounds a regression check needs.  The benchmark and its
    children share one CPU; every PROBE_PERIOD_S a thread times one chunk
    in thread CPU time (about 2 % of the CPU).  An operation's wall time is
    scaled by REFERENCE_PROBE_S over the mean chunk time during it, so it
    reads as seconds at a fixed reference speed.  The raw times are printed
    next to the scaled ones."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.thread_time()
            _probe_chunk()
            self.samples.append((time.monotonic(), time.thread_time() - start))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second of [start, end] (monotonic)."""
        during = [cpu for t, cpu in self.samples if start <= t <= end]
        during = during or [cpu for _, cpu in self.samples[-2:]]
        return REFERENCE_PROBE_S / statistics.fmean(during) if during else 1.0

    def run(self, op):
        """Call op(); return its value and the speed factor over the call."""
        start = time.monotonic()
        value = op()
        return value, self.factor(start, time.monotonic())


def measure_setup(probe: SpeedProbe, work: Path, deadline: float,
                  out: Outcome) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS runs: (raw, scaled)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        child, factor = probe.run(lambda: setup_op(work, deadline, out))
        raw.append(child.wall_s)
        scaled.append(child.wall_s * factor)
    return statistics.median(raw), statistics.median(scaled)


def untraced_run(wl: Workload, seconds: float, deadline: float,
                 out: Outcome) -> tuple[dict, dict]:
    # verify-random repeats its seed at least once: criterion-11 determinism
    min_ops = 2 if wl.name == "verify-random" else 1
    reports, scaled = [], []
    with SpeedProbe() as probe:
        raw_setup_s, setup_s = measure_setup(probe, wl.work, deadline, out)
        # no operation starts that would, at the last one's pace, end
        # after `seconds` (or near the deadline)
        end = time.monotonic() + seconds
        while len(scaled) < min_ops or time.monotonic() + out.walls[-1] < end:
            if scaled and time.monotonic() + 1.5 * out.walls[-1] > deadline:
                break
            i = len(scaled)
            (child, result), factor = probe.run(
                lambda: wl.run(wl.argv(i), i, deadline, out))
            out.walls.append(child.wall_s)
            out.rss.append(child.rss_mb)
            reports.append(result)
            scaled.append(child.wall_s * factor)
    if wl.name == "verify-random" and any(r != reports[0] for r in reports):
        out.wrong("criterion 11: reports for one seed differ between runs")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (statistics.median(out.rss), "MB"),
    }
    shown = {"raw_setup_s": (raw_setup_s, "s"),
             "raw_wall_s": (statistics.median(out.walls), "s"),
             "probes": (len(probe.samples), "count")}
    return metrics, shown


def merge_spans(traces: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for doc in traces:
        for name, stats in doc["spans"].items():
            acc = merged.setdefault(name, {})
            for key, value in stats.items():
                if key == "max_terms":
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    return merged


def layer_metrics(spans: dict, overhead: float) -> dict:
    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    metrics = {}
    for name, fields in LAYER_SPANS:
        for key in fields:
            metrics[f"{name}.{key}"] = (get(name, key), FIELD_UNITS[key])
    calls = get("algebra.exact_div", "calls")
    metrics["algebra.exact_div.useful_ratio"] = (
        get("algebra.exact_div", "useful") / calls if calls else 0.0, "ratio")
    metrics["algebra.exact_div.max_terms"] = (
        get("algebra.exact_div", "max_terms"), "terms")
    steps = get("numerics.integrate", "steps")
    tries = (steps + get("numerics.integrate", "rejections")
             + get("numerics.integrate", "guard_rejections"))
    for key in ("steps", "rejections", "evals"):
        metrics[f"numerics.{key}"] = (get("numerics.integrate", key), "count")
    metrics["numerics.step_accept_ratio"] = (steps / tries if tries else 0.0,
                                             "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def traced_run(wl: Workload, deadline: float,
               out: Outcome) -> tuple[dict, dict]:
    """Each operation untraced, then traced; same outputs required.  Span
    times are scaled to reference speed like the end-to-end times."""
    ops = TRACE_SOLVES if wl.name == "integrate-sweep" else 1
    plain, tracing, traces = [], [], []
    with SpeedProbe() as probe:
        _, setup_s = measure_setup(probe, wl.work, deadline, out)
        for i in range(ops):
            argv = wl.argv(i)
            (child, base), factor = probe.run(
                lambda: wl.run(argv, i, deadline, out))
            plain.append(child.wall_s * factor)
            out.walls.append(child.wall_s)
            out.rss.append(child.rss_mb)
            trace_path = wl.work / f"trace{i}.json"
            trace_path.unlink(missing_ok=True)
            (child, result), factor = probe.run(
                lambda: wl.run(traced(trace_path, argv), i, deadline, out))
            tracing.append(child.wall_s * factor)
            if result != base:
                out.wrong(f"{wl.name} op {i}: traced output differs from "
                          f"untraced")
            try:
                doc = json.loads(trace_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                out.wrong(f"{wl.name} op {i}: no trace written")
                continue
            if doc.get("open_spans") != 0 or doc.get("missing_targets"):
                out.wrong(f"{wl.name} op {i}: trace written with open spans "
                          f"or missing targets {doc.get('missing_targets')}")
            for stats in doc["spans"].values():
                stats["total_s"] *= factor
                stats["self_s"] *= factor
            traces.append(doc)
    spans = merge_spans(traces)
    for name in FIRES[wl.name]:
        if not spans.get(name, {}).get("calls"):
            out.wrong(f"{wl.name}: span {name} predicted to fire did not")
    for name in SILENT[wl.name]:
        if spans.get(name, {}).get("calls"):
            out.wrong(f"{wl.name}: span {name} predicted silent fired")
    metrics = layer_metrics(spans, sum(tracing) / sum(plain))
    shown = {"setup_s": (setup_s, "s"),
             "wall_s": (statistics.median(plain), "s"),
             "peak_rss_mb": (statistics.median(out.rss), "MB"),
             "traced_wall_s": (statistics.median(tracing), "s")}
    return metrics, shown


# ---------------------------------------------------------------------------
# environment and output


def _git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "painleve4d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "commit": _git_commit(),
            "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "client": "closed loop, 1 client, 1 process at a time"}


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this kind of run."""
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "painleve4d" / "__main__.py").is_file():
        sys.stderr.write(f"error: no painleve4d sources under {SRC}; run "
                         "from the root of a painleve4d checkout\n")
        return 2
    started = time.monotonic()
    deadline = started + BUDGET_S
    # one CPU for the benchmark and its children, so the speed probe
    # measures the CPU the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    out = Outcome()
    try:
        wl = Workload(args.workload, args.seed, work)
        if args.trace:
            metrics, shown = traced_run(wl, deadline, out)
        else:
            metrics, shown = untraced_run(wl, args.seconds, deadline, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        out.wrong(f"metrics differ from BENCHMARK.json: "
                  f"{sorted(declared ^ set(metrics))}")
    shown["ops"] = (len(out.walls), "count")
    shown = {**shown, **metrics,
             "fail_ratio": (out.failed / max(out.attempted, 1), "ratio"),
             "run_s": (time.monotonic() - started, "s")}
    print("env " + json.dumps(environment(args), sort_keys=True))
    for name, (value, unit) in shown.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    for problem in out.problems:
        print(f"problem: {problem}")
    result = {"correct": not out.problems,
              "attempted": max(out.attempted, 1),
              "failed": out.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

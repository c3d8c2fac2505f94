"""Tests of the benchmark itself: run with

    python3 -m pytest cadbench/tests
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cadkit  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generators -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    first = generate(cadkit, wl, 7, 4)
    assert first == generate(cadkit, wl, 7, 4)
    assert first[:2] == generate(cadkit, wl, 7, 2)     # independent of pool
    assert first != generate(cadkit, wl, 8, 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_text_parses(name):
    wl = WORKLOADS[name]
    for problem in generate(cadkit, wl, 3, 5):
        order, parsed = wl.parse(cadkit, problem)
        assert tuple(order.names) == tuple(problem["order"])
        assert parsed


def test_poly_text():
    text = workloads.poly_text([(1, "x^2"), (-3, "x*y"), (2, "y"), (-1, "")])
    assert text == "x^2 - 3*x*y + 2*y - 1"
    assert workloads.poly_text([(-1, "x")]) == "-x"


def test_dh_problem_carries_its_line():
    problem = generate(cadkit, WORKLOADS["dh"], 1, 1)[0]
    a, b = problem["a"], problem["b"]
    assert 2 <= abs(a) <= workloads.DH_A and b != 0
    assert problem["formula"].startswith("exists z2.")


# -- span arithmetic ----------------------------------------------------------

def _span(name, start, end, parent, problem=0, size=-1):
    return (name, start, end, parent, problem, size)


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("a", 0, 100, -1),
        _span("b", 10, 40, 0),
        _span("c", 20, 30, 1),
        _span("d", 50, 90, 0),
    ]
    assert tracer.self_times(spans) == [30, 20, 10, 40]


def test_outermost_counts_recursion_once():
    spans = [
        _span("f", 0, 100, -1),
        _span("f", 10, 50, 0),
        _span("g", 20, 30, 1),
        _span("f", 60, 70, 0),
        _span("f", 110, 120, -1),
    ]
    assert tracer.outermost(spans) == [True, False, True, False, True]
    summary = tracer.SpanSummary(spans, [0])
    assert summary.seconds("f") == pytest.approx(110e-9)
    assert summary.count("f") == 4
    assert summary.self_seconds("f") == pytest.approx((50 + 30 + 10 + 10) * 1e-9)


def test_summary_keeps_only_selected_problems():
    spans = [
        _span("f", 0, 10, -1, problem=1, size=3),
        _span("f", 20, 50, -1, problem=2, size=5),
        _span("f", 60, 61, -1, problem="setup"),
    ]
    summary = tracer.SpanSummary(spans, [2, "setup"])
    assert summary.count("f") == 2
    assert summary.size("f") == 5
    assert summary.seconds("f") == pytest.approx(31e-9)


def test_tracer_wraps_imported_names_and_restores_them():
    original = cadkit.polynomial.squarefree_part
    assert cadkit.cadcore.squarefree_part is original
    t = tracer.Tracer()
    t.install()
    try:
        assert cadkit.cadcore.squarefree_part is cadkit.polynomial.squarefree_part
        assert cadkit.cadcore.squarefree_part is not original
        t.problem = "p"
        order = cadkit.VarOrder(("x",))
        cadkit.isolate_roots(cadkit.parse_poly("x^2 - 2", order))
    finally:
        t.uninstall()
    assert cadkit.cadcore.squarefree_part is original
    names = [s[tracer.NAME] for s in t.spans]
    assert "polynomial.parse_poly" in names
    iso = [s for s in t.spans if s[tracer.NAME] == "realalg.isolate_roots"]
    assert len(iso) == 1 and iso[0][tracer.SIZE] == 2
    assert all(s[tracer.PROBLEM] == "p" for s in t.spans)
    inner = [s for s in t.spans if s[tracer.NAME] == "polynomial.poly_gcd"]
    assert inner and all(s[tracer.PARENT] >= 0 for s in inner)


def test_per_layer_names_match_benchmark_json():
    summary = tracer.SpanSummary([], [])
    names = set(tracer.per_layer(summary, {}, 0)) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


# -- end-to-end arithmetic ----------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_failed_problems_rank_slowest_and_count_their_time():
    outs = [run.Outcome("ok", 1.0), run.Outcome("ok", 2.0),
            run.Outcome("timeout", 5.0), run.Outcome("wrong", 0.5)]
    m = run.end_to_end(outs, limit=5.0)
    assert m["problems_per_s"] == pytest.approx(2 / 8.5)
    assert m["latency_p50_s"] == pytest.approx(3.5)
    assert m["failed_ratio"] == pytest.approx(0.5)


def test_speed_normalization_scales_by_calibration(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CHUNK_REF_S)
    value, scale, spent = run.calibrated(lambda: 42)
    assert value == 42 and scale == pytest.approx(0.5) and spent == 0
    assert run.Outcome("ok", 3.0, scale=scale).normalized == pytest.approx(1.5)


def test_calibration_samples_inside_long_calls():
    def busy():
        t0 = time.process_time()
        while time.process_time() - t0 < 3 * run.SAMPLE_EVERY_S:
            pass

    _, scale, spent = run.calibrated(busy)
    assert scale > 0 and spent > 0


# -- failures -------------------------------------------------------------------

@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_time_limit_turns_a_hang_into_a_failed_problem(alarm):
    def forever(cadkit, parsed, timings):
        while True:
            pass

    wl = workloads.Workload("spin", 0.2, 1, 1, None, None, forever, None,
                            None)
    out = run.run_one(cadkit, wl, None, limit=0.2)
    assert out.status == "timeout" and 0.2 <= out.seconds < 2


def test_known_lifting_hang_ends_within_the_limit(alarm):
    # an arrangement that hits the refine_coord hang (see README); whether
    # or not the library is fixed, the benchmark must not hang on it
    problem = {"order": ("x", "y"),
               "polys": ["-5*x^2 + 4*x + 7*y", "9*y^2 - x - 8*y"]}
    wl = WORKLOADS["plane"]
    out = run.run_one(cadkit, wl, wl.parse(cadkit, problem), limit=1.0)
    assert out.status in ("ok", "timeout") and out.seconds < 3


def test_library_exception_is_a_failed_problem(alarm):
    def boom(cadkit, parsed, timings):
        raise cadkit.NotWellOriented((1,), "p")

    wl = workloads.Workload("boom", 1, 1, 1, None, None, boom, None, None)
    assert run.run_one(cadkit, wl, None, limit=1.0).status == \
        "NotWellOriented"


# -- each workload's check catches a known-wrong answer ---------------------

def _circle_line():
    order = cadkit.VarOrder(("x", "y"))
    polys = [cadkit.parse_poly(t, order) for t in ("x^2 + y^2 - 4", "x - y")]
    return polys, cadkit.build_cad(
        polys, cadkit.ProjectionConfig("mccallum", order))


def test_plane_check_catches_a_wrong_sign():
    _, cad = _circle_line()
    assert workloads.check_plane(cadkit, None, cad, random.Random(1)) is None
    key = str(cad.splitters[2][0])
    for cell in cad.cells(2):
        if cell.dimension == 2:
            cell.signs[key] = -cell.signs[key]
    assert "not invariant" in workloads.check_plane(
        cadkit, None, cad, random.Random(1))


def test_plane_check_catches_an_even_stack():
    _, cad = _circle_line()
    cad.cells_by_level[2] = cad.cells(2)[:-1]
    assert workloads.check_plane(cadkit, None, cad, random.Random(1))


def test_dh_check_catches_a_wrong_formula():
    problem = {"order": tuple(cadkit.meta.dh_order(2).names), "a": 1,
               "b": 0}
    formula, order = cadkit.generate_dh(2, "y1 = x1")
    result = cadkit.qe(formula, order)
    assert workloads.check_dh(cadkit, problem, result,
                              random.Random(1)) is None
    wrong = dict(problem, b=1)
    assert workloads.check_dh(cadkit, wrong, result, random.Random(1))


def test_project_check_catches_bad_levels():
    order = cadkit.VarOrder(("x", "y", "z"))
    polys = [cadkit.parse_poly(t, order)
             for t in ("x^2 + y^2 + z^2 - 1", "x*z - y + 2")]
    levels = cadkit.project_all(polys,
                                cadkit.ProjectionConfig("mccallum", order))
    rng = random.Random(1)
    assert workloads.check_project(cadkit, None, levels, rng) is None
    p = levels.at_level(2)[0]
    for bad in ([p * p], [p, p * levels.at_level(1)[0]]):
        levels.by_level[2] = bad
        assert workloads.check_project(cadkit, None, levels, rng)
    levels.by_level[2] = [levels.at_level(1)[0]]
    assert "not at level" in workloads.check_project(cadkit, None, levels,
                                                     rng)


# -- the command ------------------------------------------------------------

def _run(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "cadbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=root)


def test_command_prints_the_declared_metrics():
    done = _run(ROOT, "--workload", "project", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0


def test_traced_command_prints_the_per_layer_metrics():
    done = _run(ROOT, "--workload", "project", "--seed", "2",
                "--seconds", "2", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["polynomial.poly_gcd_calls"]["value"] > 0


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "cadbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "plane", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout

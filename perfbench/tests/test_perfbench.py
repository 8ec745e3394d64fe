"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ascart import GF, Poly, invariants, theorem_a_value, validate  # noqa: E402
from ascart.finite_field import FieldElement  # noqa: E402
from ascart.ratfunc import PartialFraction  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(curves=2, trace_curves=2, setup_probes=1, import_probes=1)


def tiny_run(name, seed=1, trace=False):
    return run.run(name, seed, 0, trace, **TINY)


def test_spec_lists_exactly_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


def test_record_matches_workloads_and_metrics():
    record = json.loads((BENCH / "record.json").read_text())
    for name, w in workloads.WORKLOADS.items():
        r = record["workloads"][name]
        assert (r["p"], r["k"], tuple(r["orders"]), r["D"], r["g"], r["a"], r["s"]) == (
            w.p, w.k, w.orders, w.D, w.g, w.a, w.s)
    mapped = [m for row in record["layer_map"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(run.LAYER_UNITS)
    baseline = record["baseline"]
    assert set(baseline["end_to_end"]) == set(baseline["per_layer_seed_1"]) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert set(baseline["end_to_end"][name]) == set(run.E2E_UNITS)
        assert set(baseline["per_layer_seed_1"][name]) == set(run.LAYER_UNITS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_constants_match_closed_forms(name):
    w = workloads.WORKLOADS[name]
    inv = validate(workloads.make_curves(w, 0, 1)[0])
    assert (inv.orders, inv.D, inv.g, inv.s) == (w.orders, w.D, w.g, w.s)
    assert theorem_a_value(w.p, w.orders) == w.a


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(name, trace):
    result = tiny_run(name, trace=trace)
    assert result["correct"] and result["failed"] == 0, result["problems"]
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for m in result["metrics"].values():
        assert isinstance(m["value"], float | int)


def test_e2e_metrics_are_positive():
    metrics = tiny_run("sweep_ext")["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())


def test_equal_seeds_give_equal_digests():
    assert tiny_run("sweep_ext", 3)["digest"] == tiny_run("sweep_ext", 3)["digest"]


def test_different_seeds_give_different_curves():
    w = workloads.WORKLOADS["oracle_ext"]
    a, b = workloads.make_curves(w, 1, 4), workloads.make_curves(w, 2, 4)
    assert a != b
    assert tiny_run("oracle_ext", 1)["digest"] != tiny_run("oracle_ext", 2)["digest"]


def _with_compute(name, fn):
    return {**workloads.WORKLOADS, name: replace(workloads.WORKLOADS[name], compute=fn)}


def test_wrong_a_number_is_caught(monkeypatch):
    original = workloads.WORKLOADS["sweep_ext"].compute

    def bumped(spec):
        g, M, r, s = original(spec)
        return g, M, r - 1, s  # a = g - r comes out one too large

    monkeypatch.setattr(workloads, "WORKLOADS", _with_compute("sweep_ext", bumped))
    result = tiny_run("sweep_ext")
    assert result["failed"] == result["attempted"] == 2  # 2 curves, 1 pass
    assert not result["correct"]
    assert "a = 7, expected 6" in result["problems"][0]


def test_exception_is_counted_and_run_continues(monkeypatch):
    calls = []
    original = workloads.WORKLOADS["zeta_enum"].compute

    def flaky(spec):
        calls.append(spec)
        if len(calls) == 1:  # curve 0; curve 1 must still run
            raise ArithmeticError("injected")
        return original(spec)

    monkeypatch.setattr(workloads, "WORKLOADS", _with_compute("zeta_enum", flaky))
    result = tiny_run("zeta_enum")
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "curve 0: ArithmeticError: injected" in result["problems"][0]


def test_pipeline_disagreement_is_caught(monkeypatch):
    original = workloads.WORKLOADS["oracle_ext"].compute

    def skewed(spec):
        g, rational, local, r = original(spec)
        row = (rational.entries[0][0] + 1,) + rational.entries[0][1:]
        return g, replace(rational, entries=(row,) + rational.entries[1:]), local, r

    monkeypatch.setattr(workloads, "WORKLOADS", _with_compute("oracle_ext", skewed))
    result = tiny_run("oracle_ext")
    assert result["failed"] == result["attempted"]
    assert "disagree" in result["problems"][0]


def test_result_changing_between_passes_is_caught():
    original = workloads.WORKLOADS["zeta_enum"].compute
    calls = []

    def drifting(spec):
        calls.append(spec)
        g, L, newton, verdict = original(spec)
        if len(calls) > 2:  # second pass: a result the checks do not look at
            newton = replace(newton, slopes=())
        return g, L, newton, verdict

    w = replace(workloads.WORKLOADS["zeta_enum"], compute=drifting)
    loop = run.Loop(w, workloads.make_curves(w, 1, 2))
    loop.one_pass()
    loop.one_pass()
    assert (loop.attempted, loop.failed) == (4, 2)
    assert "differs from the first pass" in loop.problems[0]


def test_loop_makes_whole_passes():
    w = workloads.WORKLOADS["oracle_ext"]
    loop = run.Loop(w, workloads.make_curves(w, 1, 3)).run(0.05)
    assert loop.passes >= 1
    assert loop.attempted == 3 * loop.passes


def test_times_are_scaled_to_reference_speed(monkeypatch):
    w = workloads.WORKLOADS["zeta_enum"]
    loop = run.Loop(w, workloads.make_curves(w, 1, 1))
    monkeypatch.setattr(run, "reference_ns", lambda: 2 * run.REFERENCE_NS)  # a host at half speed
    loop.one(0)
    assert loop.scaled_ns == [loop.wall_ns[0] / 2]


def test_reference_kernel_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert run.reference_ns() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        run.reference_ns()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_traced_counts_repeat_exactly():
    def counts():
        metrics = tiny_run("sweep_prime", trace=True)["metrics"]
        return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}

    assert counts() == counts()


def test_layers_touched_only_where_predicted():
    def metric(name, key):
        return tiny_run(name, trace=True)["metrics"][key]["value"]

    for name in ("sweep_prime", "sweep_ext", "zeta_enum"):
        assert metric(name, "ratfunc.partial_fractions_per_curve") == 0
    assert metric("oracle_ext", "ratfunc.partial_fractions_per_curve") > 0
    for name in ("sweep_prime", "sweep_ext", "oracle_ext"):
        assert metric(name, "zeta.count_points_per_curve") == 0
    assert metric("zeta_enum", "zeta.elements_per_curve") == 5 + 25 + 125 + 625


def test_tracer_restores_every_patched_name():
    import ascart.cartier
    import ascart.zeta

    before = (
        dict(vars(FieldElement)), dict(vars(Poly)), dict(vars(PartialFraction)),
        dict(vars(ascart.cartier)), dict(vars(ascart.zeta)), dict(vars(invariants)),
    )
    tracer = tracing.Tracer()
    with tracer:
        assert FieldElement.__mul__ is not before[0]["__mul__"]
        assert ascart.cartier.validate is not before[3]["validate"]
        GF(5, 2).gen * GF(5, 2).gen
    assert tracer.counts["mul"] == 1
    after = (
        dict(vars(FieldElement)), dict(vars(Poly)), dict(vars(PartialFraction)),
        dict(vars(ascart.cartier)), dict(vars(ascart.zeta)), dict(vars(invariants)),
    )
    assert after == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [("outer", 0, 100, -1), ("inner", 10, 40, 0), ("inner", 50, 60, 0)]
    totals = tracer.span_totals()
    assert totals["outer"] == {"calls": 1, "total_ns": 100, "self_ns": 60}
    assert totals["inner"] == {"calls": 2, "total_ns": 40, "self_ns": 40}


def test_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / f).write_text((BENCH / f).read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zeta_enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

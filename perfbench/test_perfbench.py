"""Tests of the benchmark itself; they are not part of the program's suite.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import checkout

checkout.use_checkout_source()

import torusclass.cli  # noqa: E402,F401  (loads every module, as the worker does)
from torusclass import intpoly, isosearch, quotient  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYER_FUNCTIONS, Tracer  # noqa: E402
from clock import ScaledClock  # noqa: E402
from worker import run_pass  # noqa: E402

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def sized_inputs(w):
    return getattr(w, "descriptors", w.items)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_determines_inputs(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(5, 0), cls(5, 0), cls(6, 0)
    assert first.items == again.items
    assert first.items != other.items
    assert len(sized_inputs(first)) == len(sized_inputs(other))
    assert first.items != cls(5, 1).items


def test_default_seed_is_grid4():
    grid4 = [(fam, ell, rho, k1, k2)
             for fam in "AB" for ell in range(1, 5) for rho in range(-3, 4)
             for k1 in range(1, 5) for k2 in range(1 if fam == "A" else 0, 5 - k1)]
    sweep = workloads.OracleSweep(workloads.DEFAULT_SEED, 0)
    assert [(d.family, d.ell, d.rho, d.k1, d.k2) for d in sweep.descriptors] == grid4
    assert len(sweep.items) == 100_128
    assert len(workloads.ComparePairs(workloads.DEFAULT_SEED, 0).items) == 2_710


def _namespaces():
    modules = {n: m for n, m in sys.modules.items()
               if n == "torusclass" or n.startswith("torusclass.")}
    return {**{n: dict(vars(m)) for n, m in modules.items()},
            "GradedPoly": dict(vars(intpoly.GradedPoly))}


def _small_table_pass():
    w = workloads.TableGrid(3, 0)
    w.items = w.items[:40]
    return w


def test_wrappers_reach_every_namespace_and_are_removed():
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            assert getattr(sys.modules[module], attr) is not before[module][attr], name
        assert isosearch.normal_form is quotient.normal_form
        assert isosearch.normal_form is not before["torusclass.quotient"]["normal_form"]
        record = run_pass(_small_table_pass(), ScaledClock(), tracer)
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    for space, names in before.items():
        assert after[space].keys() == names.keys(), space
        for key, value in names.items():
            assert after[space][key] is value, f"{space}.{key}"
    assert record["failed"] == 0
    assert tracer.counts["invariants.pontrjagin.calls"] == 40


def test_traced_outputs_equal_untraced_and_self_time_fits():
    with ScaledClock() as clock:
        plain = run_pass(_small_table_pass(), clock)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(_small_table_pass(), ScaledClock(), tracer)
    finally:
        tracer.uninstall()
    assert traced["digest"] == plain["digest"]
    assert sum(tracer.self_s.values()) <= sum(traced["durations"])
    assert {s[4] for s in tracer.spans} == set(range(tracer.span_items))


def _run(*args, cwd=checkout.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run("--workload", "large_descriptors", "--seed", "1", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(checkout.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "table_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

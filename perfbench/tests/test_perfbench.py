"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Smoke-size runs go through the real command line, as the benchmark is
run; plan and tracer tests import the modules directly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from tracer import LAYERS, ROOT as ROOT_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, seed: int = 1, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.splitlines()
    report = [json.loads(l)["report"] for l in lines if l.startswith('{"report"')]
    final = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, report[0] if report else None, final


def test_workload_names_agree():
    import run

    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run.NAMES) == names and sorted(WORKLOADS) == sorted(names)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_statement_sequence(name):
    workload = WORKLOADS[name]()
    assert workload.plan(7, 40) == workload.plan(7, 40)
    assert workload.plan(7, 40) != workload.plan(8, 40)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_answer_checks(name):
    proc, report, final = _run(name, trace=0)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert final["correct"] is True and report["problems"] == []
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    for name_, metric in report["end_to_end"].items():
        assert metric["value"] > 0, name_
        assert metric["samples"] >= 1, name_
    for entry in report["classes"].values():
        assert entry["samples"] >= 0


def test_etl_reports_the_known_rollback_defect():
    """A rolled-back first write leaves a segfile behind; the retried
    load then fails with FileAlreadyExists and is counted, not hidden."""
    proc, report, final = _run("etl_refresh", trace=0)
    assert proc.returncode == 0
    assert final["failed"] > 0
    assert report["classes"]["write"]["errors"] == {
        "FileAlreadyExists": final["failed"] // 2
    }
    assert report["classes"]["txn"]["errors"] == {
        "TransactionError": final["failed"] // 2
    }


def test_traced_run_reports_every_layer_and_self_times_add_up():
    proc, report, final = _run("etl_refresh", trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    layer = report["per_layer"]
    selfs = [layer[f"{name}.self_s"]["value"] for name in LAYERS]
    assert min(selfs) >= 0
    assert sum(selfs) == pytest.approx(report["traced_total_s"], rel=1e-9)
    assert sum(layer[f"{name}.share"]["value"] for name in LAYERS) == (
        pytest.approx(1.0)
    )
    assert layer["sql.calls"]["value"] > 0
    assert 0 < layer["trace_overhead"]["value"] <= 2


def test_tracer_self_time_excludes_children_and_uninstall_restores(monkeypatch):
    import repro.sql.parser as parser

    original = parser.parse_sql
    tracer = Tracer()
    tracer.install()
    try:
        assert parser.parse_sql is not original
        tracer.root(lambda: parser.parse_statement("SELECT 1"))
    finally:
        tracer.uninstall()
    assert parser.parse_sql is original
    totals, total = tracer.layer_totals()
    assert totals["sql"]["calls"] == 1 and totals[ROOT_LAYER]["calls"] == 1
    assert all(entry["self_s"] >= 0 for entry in totals.values())
    assert sum(e["self_s"] for e in totals.values()) == pytest.approx(total)
    root = tracer.spans[0]
    child = tracer.spans[1]
    assert child[4] == 0 and root[4] == -1
    assert root[2] <= child[2] <= child[3] <= root[3]


def test_generator_spans_time_each_resumption():
    closed = []

    def blocks():
        try:
            yield from range(3)
        finally:
            closed.append(True)

    tracer = Tracer()
    tracer.active = True
    traced = tracer._wrap("storage", "blocks", blocks)
    assert list(traced()) == [0, 1, 2]
    # Three items plus the resumption that ends the generator.
    assert [span[0] for span in tracer.spans] == ["storage"] * 4
    partial = traced()
    next(partial)
    partial.close()  # an abandoned scan still closes its generator
    assert closed == [True, True]


def test_fails_without_the_engine_sources(tmp_path):
    """In a directory holding only the benchmark, it must exit non-zero
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, report, final = _run("streams8", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert final is None and report is None

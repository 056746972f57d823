"""Tests of the benchmark itself, at configs/smoke.yaml scale.

    python3 -m pytest -q perfbench

Each workload path runs end to end through the entry point, in both trace
modes; every metric named in BENCHMARK.json must print with its unit; a
tampered output must trip the checks; and a directory without the program
must make the entry point fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_entry(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_names()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    proc = run_entry(ROOT, "--workload", workload, "--seed", "5",
                     "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expect = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expect}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(lines[-2])
    assert record["environment"]["blas_threads"] == 1
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expect)


def test_traced_run_accounts_for_its_wall_time():
    proc = run_entry(ROOT, "--workload", "reference_run", "--seed", "1",
                     "--seconds", "0.5", "--trace", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert 0.9 < metrics["trace.top_level_share"]["value"] <= 1.0
    assert metrics["harness.run_seed.calls"]["value"] == 2
    assert metrics["numcore.adam_step.calls"]["value"] == \
        metrics["numcore.backward.calls"]["value"]
    assert 0.0 < metrics["numcore.reforward_rows_share"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_entry(tmp_path, "--workload", "reference_run", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ------------------------------------------------- tampered outputs

@pytest.fixture(scope="module")
def run_unit(tmp_path_factory):
    """Runs one smoke unit of a workload; returns (workload, ctx, raw, outdir)."""
    def go(name):
        work = tmp_path_factory.mktemp(name)
        workload = bench.WORKLOADS[name]
        ctx = workload.setup(0, True, work)
        out = work / "unit"
        out.mkdir()
        raw = workload.unit(ctx, out)
        return workload, ctx, raw, out
    return go


def test_run_checks_catch_tampered_report(run_unit):
    workload, config, report, out = run_unit("reference_run")
    assert all(workload.inspect(config, report, out).checks.values())

    report.cells[0]["metrics"]["ood"]["auc"] += 0.01
    checks = workload.inspect(config, report, out).checks
    assert not checks["auc_oracle"] and not checks["report_roundtrip"]

    report.cells[1]["status"] = "failed"
    assert not workload.inspect(config, report, out).checks["cells_ok"]


def test_first_seed_alone_matches_the_unit(run_unit):
    workload, config, report, out = run_unit("large_batch")
    sample = workload.inspect(config, report, out).sample
    alone = workload.alone(config, out)
    assert alone == sample
    sample[0]["curve"][0]["mean_loss"] += 1e-12
    assert alone != sample


def test_first_cell_alone_matches_the_plots(run_unit):
    workload, ctx, report, out = run_unit("report_plots")
    curves, roc = workload.inspect(ctx, report, out).sample
    assert workload.alone(ctx, out) == (curves, roc)
    assert len(curves) > 1 and len(roc) > 1


def test_plot_checks_catch_tampered_tsv(run_unit):
    workload, ctx, report, out = run_unit("report_plots")
    unit = workload.inspect(ctx, report, out)
    assert all(unit.checks.values())

    roc = out / "roc.tsv"
    lines = roc.read_text().splitlines(keepends=True)
    roc.write_text("".join(lines[:-1]))
    assert not workload.inspect(ctx, report, out).checks["roc_rows"]

    first = lines[1].split("\t")
    first[4] = repr(float(first[4]) + 0.5)
    roc.write_text("".join([lines[0], "\t".join(first)] + lines[2:]))
    checks = workload.inspect(ctx, report, out).checks
    assert checks["roc_rows"] and not checks["roc_oracle"]


def test_oracles_agree_with_hadcl_on_ties():
    scores = [0.1, 0.4, 0.4, 0.4, 0.9, 0.2, 0.9]
    labels = [0, 1, 0, 1, 1, 0, 0]
    from hadcl import harness, metrics
    assert bench.oracle_auc(scores, labels) == pytest.approx(
        metrics.auc(metrics.ScoredOutcomes(scores, labels)), abs=1e-15)
    want = [f"{t!r}\t{f!r}\t{p!r}" for t, f, p in harness.roc_points(scores, labels)]
    assert bench.oracle_roc_rows(scores, labels) == want


def test_a_failed_check_fails_the_run(monkeypatch):
    workload = bench.WORKLOADS["report_plots"]
    inspect = workload.inspect

    def tampered(ctx, report, outdir):
        unit = inspect(ctx, report, outdir)
        unit.checks["curves_rows"] = False
        return unit

    monkeypatch.setattr(workload, "inspect", tampered)
    result = bench.run_workload("report_plots", 0, 0.1, False, smoke=True)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "unit0.curves_rows" in result["detail"]["failed_checks"]
    assert result["metrics"]["ok_share"]["value"] < 1.0

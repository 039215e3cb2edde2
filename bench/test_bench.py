"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_package()

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _main(*argv: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def _package_functions() -> dict[tuple[str, str], object]:
    return {
        (mod.__name__, attr): value
        for mod in tracing._package_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_rebound_name():
    before = _package_functions()
    result = _main("--workload", "scaling", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert result["metrics"]["transfer.hinf_norm.calls"]["value"] > 0
    after = _package_functions()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_tracer_rebinds_imported_references_and_nests_spans(tmp_path):
    import qfeedback as qf
    import qfeedback.coherent as coherent

    original = qf.hinf_norm
    tracer = tracing.Tracer(layers.OBSERVERS)
    with tracer:
        assert qf.hinf_norm is not original
        assert coherent.hinf_norm is qf.hinf_norm  # the name coherent imported
        op = workloads.Scaling(5, tmp_path).round(0)[0]
        record = run.run_op(op, tracer, 0)
    assert qf.hinf_norm is original and coherent.hinf_norm is original
    assert not record.unexpected
    names = {span[0] for span in tracer.spans}
    assert {"bench.op", "transfer.hinf_norm", "linalg.solve_care_hermitian"} <= names
    selfs = tracing.self_times(tracer.spans)
    op_span = next(i for i, s in enumerate(tracer.spans) if s[0] == "bench.op")
    in_op = sum(dt for s, dt in zip(tracer.spans, selfs) if s[4] == 0)
    duration = tracer.spans[op_span][2] - tracer.spans[op_span][1]
    assert in_op == pytest.approx(duration, rel=1e-9)
    assert duration <= record.wall


def _c1_ops(seed: int, tmp_path):
    return [op for op in workloads.Suites(seed, tmp_path).round(0) if op.label == "C1"]


def test_injected_wrong_answer_raises_failed_ratio(tmp_path, monkeypatch):
    clean = [run.run_op(op) for op in _c1_ops(11, tmp_path)]
    assert run.failure_summary(clean)["failed_ratio"] == 0.0
    assert run.checks_ok_ratio(clean) == 1.0

    real = workloads.qf.verify_zero_gain

    def wrong(*args, **kwargs):
        report = real(*args, **kwargs)
        return type(report)(report.theorem, False, report.evidence, report.narrative)

    monkeypatch.setattr(workloads.qf, "verify_zero_gain", wrong)
    injected = [run.run_op(op) for op in _c1_ops(11, tmp_path)]
    summary = run.failure_summary(injected)
    assert summary["failed_ratio"] == 1.0
    assert summary["unexpected_failures"] == len(injected)
    assert run.checks_ok_ratio(injected) == 0.0


def test_known_defect_is_counted_but_expected(tmp_path):
    records = [run.run_op(op) for op in workloads.Scaling(7, tmp_path).round(0)]
    summary = run.failure_summary(records)
    assert summary["failed_ratio"] > 0.0
    assert summary["known_defect_checks"].get("lossless-minimality", 0) > 0
    assert summary["unexpected_failures"] == 0


def _spec_names(kind: str) -> list[str]:
    return [m["name"] for m in SPEC[kind]]


def test_metric_lists_match_benchmark_json():
    assert _spec_names("per_layer") == layers.metric_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in workloads.WORKLOADS.values():
        assert len(w.PARTS) == len(run.part_metric_names())


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    result = _main("--workload", "scaling", "--seed", "2", "--seconds", "0.1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == _spec_names(kind)
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
    if trace == "1":
        assert result["metrics"]["trace.sum_over_wall"]["value"] == pytest.approx(1.0, abs=0.1)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

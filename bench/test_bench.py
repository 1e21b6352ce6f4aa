"""Tests of the benchmark itself: run with `python3 -m pytest bench`.

Tiny-size runs of every workload must emit every metric BENCHMARK.json
names, tampered outputs must be counted as failures, and the tracer must
degrade rather than crash when a traced name disappears.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from crossemb import dataset, harness, kinematics  # noqa: E402
from crossemb.embodiments import humanoid_b_config  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run_tiny(workload: str, trace: int, cwd: Path = REPO):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def tiny_results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run_tiny(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tiny_results, workload, trace):
    detail, result = tiny_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)), m["name"]
    for key in ("nproc", "numpy", "blas", "blas_threads"):
        assert detail[key]


def test_tiny_runs_print_every_workload_metric(tiny_results):
    common = {"setup_s", "wall_s", "error_rate"}
    expected = {
        "cotrain": common | {"ood_success", "id_success"},
        "retarget": common | {"actions_per_s", "retarget_p50_ms", "retarget_p99_ms",
                              "unreachable_p50_ms"},
        "ingest_train": common | {"ingest_frames_per_s", "train_samples_per_s", "final_loss"},
    }
    for workload, names in expected.items():
        figures = tiny_results[workload, 0][0]["figures"]
        assert names <= set(figures), workload
        assert figures["error_rate"]["value"] == 0.0


def test_traced_layers_stay_in_their_workloads(tiny_results):
    layers = {w: tiny_results[w, 1][1]["metrics"] for w in WORKLOADS}
    assert layers["ingest_train"]["kinematics.ik_solve.calls"]["value"] == 0
    assert layers["retarget"]["policy.train.steps"]["value"] == 0
    assert layers["retarget"]["kinematics.ik_solve.calls"]["value"] > 0
    assert layers["ingest_train"]["policy.train.steps"]["value"] > 0
    assert layers["cotrain"]["harness.rollout.calls"]["value"] > 0


def test_self_times_sum_to_traced_wall(tiny_results):
    for workload in WORKLOADS:
        figures = tiny_results[workload, 1][0]["figures"]
        self_total = sum(v for k, v in figures.items()
                         if k.endswith(".self_s") or k == "dataset.sampler.next_s")
        wall = figures["trace.wall_s"]
        assert abs(self_total + figures["trace.bench_self_s"] - wall) <= 0.05 * wall


def _check(workload, result):
    check = workload.check(result)
    figures = run.end_to_end(workload, [result], [check], setup=[0.1])
    return check, figures["error_rate"]["value"]


def test_tampered_cotrain_report_counts_as_failed(monkeypatch):
    original = harness.cotraining_experiment

    def tampered(**kwargs):
        report = original(**kwargs)
        del report["rows"]
        return report

    monkeypatch.setattr(harness, "cotraining_experiment", tampered)
    workload = workloads.Cotrain(0, "tiny")
    check, error_rate = _check(workload, workload.execute())
    assert check.failed == 1 and error_rate == 1.0


def test_tampered_retarget_command_counts_as_failed(monkeypatch):
    original = kinematics.retarget_action

    def tampered(action, config, q_prev, *args):
        cmd, diag = original(action, config, q_prev, *args)
        if diag.right.status == kinematics.STATUS_CONVERGED:
            q = cmd.right_arm_q.copy()
            q[3] = np.clip(q[3] - 0.2, *config.right_arm.joints[3].limits)
            cmd = kinematics.RobotCommand(cmd.left_arm_q, q, cmd.neck_q,
                                          cmd.left_hand, cmd.right_hand)
        return cmd, diag

    monkeypatch.setattr(kinematics, "retarget_action", tampered)
    workload = workloads.Retarget(0, "tiny")
    check, error_rate = _check(workload, workload.execute())
    assert check.failed >= len(workload.streams[0]) and 0.0 < error_rate < 1.0


def test_tampered_read_back_and_raising_ingest_count_as_failed(monkeypatch, tmp_path):
    original_read, original_ingest = dataset.read_dataset, dataset.ingest

    def tampered_read(directory):
        manifest, episodes = original_read(directory)
        episodes[0].states[0, 0] += 1e-12
        return manifest, episodes

    def raising_ingest(raw, config=None, options=None):
        if raw.kind == "robot":
            raise ValueError("injected")
        return original_ingest(raw, config=config, options=options)

    monkeypatch.setattr(dataset, "read_dataset", tampered_read)
    monkeypatch.setattr(dataset, "ingest", raising_ingest)
    workload = workloads.IngestTrain(0, tmp_path, "tiny")
    check, error_rate = _check(workload, workload.execute())
    assert check.failed == 2 and error_rate > 0.0


def test_missing_trace_target_yields_null_metrics():
    targets = (*layertrace.TARGETS,
               layertrace.Target("kinematics.renamed_away", "kinematics.renamed_away"))
    tracer = layertrace.Tracer(targets)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    try:
        with tracer.root():
            kinematics.forward_kinematics(humanoid_b_config().right_arm, np.zeros(7))
    finally:
        tracer.uninstall()
    assert any("kinematics.renamed_away" in str(w.message) for w in caught)
    metrics = tracer.metrics()
    assert metrics["kinematics.renamed_away.calls"] is None
    assert metrics["kinematics.forward_kinematics.calls"] == 1
    assert not hasattr(kinematics.forward_kinematics, "__wrapped__")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(REPO / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_tiny(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

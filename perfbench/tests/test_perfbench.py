"""Tiny-size runs of every workload, plus the checks the results rest on.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stacksolver import eqlang
from perfbench import harness
from perfbench.checks import Checks, DecodeRecord
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

TRAIN_NAMED = {
    "train_problems_per_s": "problems/s", "batch_step_ms_p50": "ms",
    "batch_step_ms_p90": "ms", "final_loss": "nats", "answer_accuracy": "fraction",
}
ALL_NAMED = {
    "decode_problems_per_s": "problems/s", "decode_ms_p50": "ms",
    "decode_ms_p99": "ms", "setup_s": "s", "peak_rss_mb": "MiB",
    "fail_ratio": "failed/attempted",
}


def tiny_run(workload, trace, tmp_path, seed=3):
    return harness.run(workload, seed, 0.01, trace, tiny=True, out_dir=tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    report, result = tiny_run(workload, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and math.isfinite(metric["value"])
    named = dict(ALL_NAMED, **(TRAIN_NAMED if workload != "decode_fuzz" else {}))
    assert {k: v["unit"] for k, v in report["metrics"].items()} == named
    assert report["metrics"]["fail_ratio"]["value"] == 0.0
    assert report["metrics"]["decode_ms_p99"]["samples"] > 0
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "cpu_model",
                "loadavg_before", "loadavg_after", "seed", "commit"):
        assert key in report["env"]
    json.dumps(report)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload, tmp_path):
    report, result = tiny_run(workload, True, tmp_path)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.PER_LAYER
    assert {k: v["unit"] for k, v in report["metrics"].items()} == harness.LAYER_UNITS
    values = {k: v["value"] for k, v in report["metrics"].items()}
    assert values["trace_overhead_ratio"] > 0
    for name, unit in harness.PER_LAYER.items():
        if unit in ("ms", "us", "s"):
            assert values[name] > 0, name
    if workload == "decode_fuzz":
        assert values["numerics.backward_ms"] == 0.0
    else:
        assert values["numerics.backward_ms"] > 0 and values["numerics.adam_step_ms"] > 0
        assert 0 < values["numerics.backward_share"] < 1
        assert values["numerics.tape_ops_per_problem"] > 0
    shares = sum(values[f"{m}.self_share"] for m in harness.MODULES)
    assert shares == pytest.approx(1.0)
    for layer in report["layers"].values():
        assert 0 <= layer["self_s"] <= layer["total_s"] + 1e-9
    assert (tmp_path / Path(report["spans_file"]).name).is_file()


def test_same_seed_gives_the_same_fingerprint(tmp_path):
    first, _ = tiny_run("train_b1", False, tmp_path)
    second, _ = tiny_run("train_b1", False, tmp_path)
    assert first["fingerprint"] == second["fingerprint"]
    assert math.isfinite(first["fingerprint"]["final_loss"])


def _record(actions, history=None, equations=None):
    constants = [eqlang.parse_rational("2"), eqlang.parse_rational("3")]
    outcome = None
    if history is None:
        outcome = eqlang.execute(actions, constants)
    return DecodeRecord(
        problem_id="p", constants=constants, gold_answer=None, actions=actions,
        equations=equations if equations is not None else outcome.equations,
        stack_history=history if history is not None else outcome.stack_history,
        status="solved", answer=None)


def test_checks_count_a_decode_that_replays():
    checks = Checks()
    actions = [eqlang.GEN_VAR, eqlang.Push(eqlang.UNKNOWN_REF),
               eqlang.Push(eqlang.ConstRef(0)), eqlang.APPLY_EQUAL]
    checks.decode(_record(actions), max_steps=40)
    assert (checks.attempted, checks.failed) == (1, 0)


def test_checks_fail_a_decode_whose_actions_do_not_replay():
    checks = Checks()
    underflow = [eqlang.GEN_VAR, eqlang.Push(eqlang.ConstRef(0)), eqlang.Apply("+")]
    checks.decode(_record(underflow, history=[(), (), ()], equations=[]), max_steps=40)
    mirrored = [eqlang.GEN_VAR, eqlang.Push(eqlang.ConstRef(1))]
    wrong_history = [(), (eqlang.Const(eqlang.parse_rational("2")),)]
    checks.decode(_record(mirrored, history=wrong_history, equations=[]), max_steps=40)
    assert (checks.attempted, checks.failed) == (2, 2)
    assert checks.fail_ratio == 1.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_b1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER


def test_reference_covers_every_checked_op():
    reference = oracle.load_reference()
    for app, iterations in workloads.reference_keys():
        oracle.require(reference, app, iterations)


def test_digest_is_type_exact_and_array_tolerant():
    import numpy as np
    assert oracle.digest([1.0, 2.0], []) == \
        oracle.digest(np.array([1.0, 2.0]), [])
    assert oracle.digest([1, 2], []) == oracle.digest(np.array([1, 2]), [])
    assert oracle.digest([1, 2], []) != oracle.digest([1.0, 2.0], [])
    assert oracle.digest([1.0], [2.0]) != oracle.digest([1.0, 2.0], [])


def _last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_corrupt_reference_digest_fails_the_run(tmp_path, monkeypatch,
                                                capsys):
    data = json.loads(oracle.REFERENCE_PATH.read_text())
    key = oracle.ref_key("FMRadio", workloads.COMPILE_SHORT_ITERATIONS)
    data["digests"][key] = "0" * 32
    corrupt = tmp_path / "reference.json"
    corrupt.write_text(json.dumps(data))
    monkeypatch.setattr(oracle, "REFERENCE_PATH", corrupt)
    code = run.main(["--workload", "compile-short", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    assert code != 0
    result = _last_json(out)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0
    assert "FAILED FMRadio: outputs differ" in out


def test_missing_probe_function_marks_metric_absent(monkeypatch, capsys):
    absent = "serve.shm_roundtrip_ms.large"
    monkeypatch.setattr(
        workloads, "optional_api",
        lambda module, name: None if name == "stage_result_shm"
        else getattr(__import__(module, fromlist=[name]), name))
    code = run.main(["--workload", "serve-mix", "--seed", "1",
                     "--seconds", "1", "--trace", "1"])
    out = capsys.readouterr().out
    assert code == 0
    result = _last_json(out)
    assert absent not in result["metrics"]
    assert len(result["metrics"]) == len(layers.PER_LAYER) - 1
    assert out.strip().splitlines()[-2] \
        == f"absent (probe function missing): {absent}"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "steady-long", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

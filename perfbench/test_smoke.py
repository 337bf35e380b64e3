"""Smoke test of the benchmark itself: tiny inputs, every workload, both modes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_unit_and_direction(results, workload, trace):
    _, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert m["better"] in ("lower", "higher")
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_run_record(results):
    record, _ = results["eval-batch", 0]
    for key in ("schema_version", "commit", "python", "numpy", "scipy", "nproc", "blas", "eval_workers"):
        assert key in record
    assert results["eval-batch", 1][0]["eval_workers"] == 1


def test_exact_counts_match_the_code(results):
    modset = results["modset-scan", 1][1]["metrics"]
    scanned = modset["modset.stft_calls"]["value"] - 2 * modset["modset.candidates"]["value"]
    assert 0 < scanned <= modset["modset.calls"]["value"]
    assert modset["beamformer.solves"]["value"] == 0

    enhance = results["enhance-long", 1][1]["metrics"]
    frames = enhance["stft.frames"]["value"] / enhance["stft.stft_calls"]["value"]
    assert enhance["beamformer.solves"]["value"] == 512 * frames
    assert enhance["modset.calls"]["value"] == 0

    batch = results["eval-batch", 1][1]["metrics"]
    assert batch["modset.estimates_per_file"]["value"] == 2
    assert batch["dataset.tasks"]["value"] == 4 and batch["dataset.skipped"]["value"] == 0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

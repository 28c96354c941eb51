"""Smoke runs of every workload on tiny inputs, in both modes.

Each run must emit every metric named in BENCHMARK.json with its unit,
pass its own output checks, and print the report lines before the JSON.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace, workdir, smoke=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--workdir", str(workdir)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _run(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    report = "\n".join(lines[:-1])
    for m in expected:
        assert m["name"] in report
    if not trace:
        for name in ("iter_ms", "iter_ms_p90", "fail_ratio", "samples"):
            assert name in report
    assert "# environment: " in report
    # scratch work directories are removed; only results remain
    assert [p.name for p in tmp_path.iterdir()] == ["results"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "lda-cavi", 0, tmp_path / "scratch", smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

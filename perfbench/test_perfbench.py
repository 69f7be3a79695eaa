"""Quick checks of the benchmark harness itself: `python -m pytest perfbench`.

They run the small self-test workloads, not the timed benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(args, root=HERE.parent, timeout=300):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=timeout)


def test_selftest_small_workloads():
    for workload in ("sweep", "replay"):
        proc = _run(["--selftest", "--workload", workload])
        assert proc.returncode == 0, proc.stderr
        assert f"selftest {workload}: ok" in proc.stdout


def test_result_line_shape():
    for trace in ("0", "1"):
        proc = _run(["--workload", "replay", "--seed", "3", "--seconds", "1",
                     "--trace", trace])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = bench["per_layer" if trace == "1" else "end_to_end"]
        assert {m["name"] for m in declared} == set(result["metrics"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                root=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

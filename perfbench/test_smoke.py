"""Smoke test of the benchmark itself on a tiny generated grid.

Runs every workload, untraced and traced, on the grid ``run.py --tiny``
selects (delta = 0.2, x_max = 8) against tiny references made on the fly
(``make_refs.py --tiny``), and checks that each run passes its output checks
and emits exactly the metrics ``BENCHMARK.json`` names.  Takes well under a
minute:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def run_bench(root, workload, trace=0, tiny=True):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def tiny_refs():
    subprocess.run([sys.executable, str(BENCH / "make_refs.py"), "--tiny"],
                   cwd=ROOT, check=True, timeout=120)
    return ROOT / ".perfbench_work" / "tiny-refs"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(tiny_refs, workload, trace):
    proc = run_bench(ROOT, workload, trace)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]} if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_failed_setup_solve_is_a_failed_command(tmp_path, tiny_refs):
    """A set-up solve that fails its checks reads as a failure, not a crash."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    refs = tmp_path / ".perfbench_work" / "tiny-refs"
    shutil.copytree(tiny_refs, refs)
    meta = json.loads((refs / "ex1.json").read_text())
    meta["component_counts"] = {k: v + 1 for k, v in meta["component_counts"].items()}
    (refs / "ex1.json").write_text(json.dumps(meta))
    result = result_of(run_bench(tmp_path, "check-exp"))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert result["metrics"]["ok_ratio"]["value"] == 0
    assert set(result["metrics"]) == set(END_TO_END)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "solve-exp", tiny=False)
    assert proc.returncode != 0
    assert proc.stdout == ""

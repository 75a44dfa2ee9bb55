"""Smoke test of the benchmark: the smallest rung of each workload, one seed.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ladder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_rung_reports_every_metric(workload, trace, kind):
    done = _bench(ROOT, "--workload", workload, "--trace", str(trace),
                  "--max-rung", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert "error_rate = 0 " in done.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for metric in SPEC[kind]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert f"{metric['name']} = {reported['value']:.6g} " \
               f"{metric['unit']}" in done.stdout


def test_several_workloads_prefix_their_metrics():
    workloads = [w["name"] for w in SPEC["workloads"]]
    done = _bench(ROOT, "--workload", *workloads, "--trace", "0",
                  "--max-rung", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in workloads
                                      for m in SPEC["end_to_end"]}


def test_ladder_depends_on_the_seed_alone(tmp_path):
    for workload in ladder.WORKLOADS:
        digests = []
        for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
            (tmp_path / sub).mkdir()
            digests.append(ladder.build_ladder(workload, seed).write(
                str(tmp_path / sub)))
            shutil.rmtree(tmp_path / sub)
        assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "check", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

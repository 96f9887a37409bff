"""Smoke test of the benchmark itself, at the tiny profile.

  python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for a few ops, traced and untraced, and checks that every
metric BENCHMARK.json names is printed with its unit, that perturbed
references are reported as failed ops, and that a directory without the
library's sources gives a non-zero exit and no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# restore runs by hand and inside every run's eval phase, not as a
# BENCHMARK.json workload.
WORKLOADS = ["train_base", "finetune_lora", "restore"]


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def bench(*args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, str(run), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    path = tmp_path_factory.mktemp("refs") / "tiny.npz"
    proc = bench("--write-references", path, "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(refs, workload, trace):
    res = result(bench("--workload", workload, "--seed", 3, "--ops", 4, "--trace", trace,
                       "--profile", "tiny", "--references", refs))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 4
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    if not trace:
        assert res["metrics"]["ok_rate"]["value"] == 1.0


def test_all_prints_every_metric_per_workload_with_verdict(refs):
    proc = bench("--workload", "all", "--seed", 3, "--ops", 2, "--trace", 0, "--profile", "tiny", "--references", refs)
    res = result(proc)
    assert res["correct"] is True
    lines = proc.stdout.splitlines()
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert any(line.split()[:2] == [w, m["name"]] and line.split()[-1] == m["unit"] for line in lines)
        assert any(line.startswith(w) and "verdict: correct" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_counts_failed_ops(refs, tmp_path, workload):
    with np.load(refs) as f:
        data = dict(f)
    for key in data:
        if key.endswith(".losses"):
            data[key] = data[key] * 1.01
    data["eval.pixels"] = data["eval.pixels"] + 0.01
    bad = tmp_path / "bad.npz"
    np.savez(bad, **data)
    res = result(bench("--workload", workload, "--seed", 3, "--ops", 2, "--trace", 0,
                       "--profile", "tiny", "--references", bad))
    n_eval = len(data["eval.pixels"])
    n_loss = len(data.get(workload + ".losses", ()))
    assert res["correct"] is False
    assert res["failed"] == n_eval + n_loss
    assert res["metrics"]["ok_rate"]["value"] == pytest.approx(1 - res["failed"] / res["attempted"])


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "restore", "--seed", 1, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path, run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

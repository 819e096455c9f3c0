"""Smoke test of the benchmark at a tiny schedule.

Run from the root of a source checkout::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that a corrupted measurement file fails the output check (so the gate can
fire), and that the benchmark refuses to run without the sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = (4, 2)


def _tiny(name):
    return dataclasses.replace(WORKLOADS[name], schedule=TINY)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(name, trace, kind):
    result, detail = run.measure(_tiny(name), seed=5, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_measurements_fail_the_output_check():
    def corrupt(verb, workdir):
        if verb != "simulate":
            return
        path = workdir / "measurements.json"
        doc = json.loads(path.read_text())
        for entry in doc["entries"]:
            if entry["k"] == 0:
                entry["re"] *= 1.5
                entry["im"] *= 1.5
        path.write_text(json.dumps(doc))

    result, detail = run.measure(_tiny("cli_series_M"), seed=5, seconds=0, trace=False,
                                 after_verb=corrupt)
    assert result["failed"] > 0 and not result["correct"]
    assert any("k=0 relative error" in e for e in detail["errors"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "oracle_S",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's own tests.

Run with ``python3 -m pytest -q perfbench/selftest.py`` from the
repository root (about a minute: two traced rounds per workload).  The
file is named so that the repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, strip_ms

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request):
    return run.trace(WORKLOADS[request.param], seed=0, seconds=0)


def test_strip_ms_removes_only_the_ms_member():
    report = '{"checked": 3, "violations": [], "ms": 12.5}\n'
    assert strip_ms(report) == '{"checked": 3, "violations": []}\n'
    assert strip_ms('{"ms": 1e-05, "n": 2}') == '{"n": 2}'
    assert strip_ms('{"n":7,"pairs":"0-1,0-2"}') == '{"n":7,"pairs":"0-1,0-2"}'


def test_traced_run_is_correct(traced_run):
    assert traced_run["problems"] == []
    assert traced_run["correct"] and traced_run["failed"] == 0


def test_traced_output_matches_untraced(traced_run):
    digests = traced_run["samples"]["output_sha256"]
    assert len(digests["traced"]) >= 2 and digests["untraced"]
    assert len({d for ds in digests.values() for d in ds}) == 1


def test_layer_self_times_fit_in_the_wall(traced_run):
    samples = traced_run["samples"]
    for table, wall in zip(samples["spans"], samples["raw_wall_s"]["traced"]):
        layers: dict[str, float] = {}
        for name, row in table.items():
            layers[spans.LAYER_OF[name]] = layers.get(spans.LAYER_OF[name], 0.0) + row["self_s"]
            assert row["self_s"] >= -1e-9, name
        assert sum(layers.values()) <= wall + 1e-6


def test_counts_repeat_between_traced_passes(traced_run):
    first, *rest = traced_run["samples"]["counts"]
    assert rest and all(counts == first for counts in rest)
    assert first["enumeration.families"] > 0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-m12",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

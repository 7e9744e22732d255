"""Self-test of the benchmark: every workload once at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
from repro.core.service import ConfidentialAuditingService  # noqa: E402
from repro.shard import ShardedAuditingService  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(capsys, workload: str, trace: int) -> tuple[int, list[str]]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        scale=TINY,
    )
    return code, capsys.readouterr().out.strip().splitlines()


def test_benchmark_json_matches_the_runner():
    assert sorted(NAMES) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_listed_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, lines = _run(capsys, workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["end_to_end"] if trace == 0 else BENCHMARK["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if trace == 0:
            assert printed["value"] > 0, metric["name"]


def _with_bogus_glsn(result):
    return dataclasses.replace(result, glsns=[*result.glsns, max(result.glsns, default=0) + 7])


CORRUPTED = {
    "audit-2048": (ConfidentialAuditingService, "query", _with_bogus_glsn),
    "fanout-64": (
        ShardedAuditingService,
        "query_many",
        lambda results: [_with_bogus_glsn(results[0]), *results[1:]],
    ),
    "ingest-durable": (ConfidentialAuditingService, "query", _with_bogus_glsn),
}


@pytest.mark.parametrize("workload", NAMES)
def test_a_corrupted_answer_fails_the_run(capsys, monkeypatch, workload):
    owner, attr, corrupt = CORRUPTED[workload]
    original = getattr(owner, attr)
    monkeypatch.setattr(
        owner, attr, lambda self, *a, **k: corrupt(original(self, *a, **k))
    )
    code, lines = _run(capsys, workload, 0)
    assert code == 1
    assert not any(line.startswith("{") for line in lines)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Every report the benchmark has a golden record for, byte for byte.

The configs are rebuilt from ``bench/workloads.py`` as ``bench/run.py
--record-golden`` builds them (the default and held-out seeds, and for
``full_large`` every config any seed can draw); each must give the recorded
exit code and the SHA-256 of the recorded JSON line.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bunpic.cli import RunConfig, emit, run_report

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_lines(workload: str) -> list:
    """The distinct config lines of the golden record, in generation order."""
    lines = {}
    for seed in (WORKLOADS.DEFAULT_SEED, WORKLOADS.HELD_OUT_SEED):
        for case in WORKLOADS.WORKLOADS[workload](seed):
            lines[case.line] = None
    if workload == "full_large":
        for case in WORKLOADS.full_large_space():
            lines[case.line] = None
    return list(lines)


@pytest.mark.parametrize("workload", ["full_large", "sweep_small", "big_coeff"])
def test_reports_match_the_golden_record(workload):
    golden = json.loads((BENCH / "golden" / f"{workload}.json").read_text())["reports"]
    lines = golden_lines(workload)
    assert sorted(sha256(line) for line in lines) == sorted(golden)
    differ = []
    for line in lines:
        code, report = run_report(RunConfig.from_json(json.loads(line)))
        if golden[sha256(line)] != {"exit": code, "sha256": sha256(emit(report, "json"))}:
            differ.append(line)
    assert differ == []

"""Tests of the benchmark itself:  python3 -m pytest -q bench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    gen = workloads.WORKLOADS[name]
    first = [c.line for c in gen(7)]
    assert first == [c.line for c in gen(7)]
    assert first != [c.line for c in gen(8)]
    assert len(first) == len(set(first))


def test_big_coeff_primes_are_in_range_and_prime():
    for case in workloads.big_coeff(3):
        p = case.prime
        assert workloads.PRIME_LO <= p < workloads.PRIME_HI and workloads.is_prime(p)
        fam = case.config["family"]
        assert fam["delta"] == p and (fam["genus"] - 1) % p == 0
        assert all(d % p == 0 for d in case.config["delta"])
    assert not workloads.is_prime(10 ** 11 + 1) and workloads.is_prime(999999999989)


def test_full_large_space_covers_every_seed():
    space = {c.line for c in workloads.full_large_space()}
    for seed in range(20):
        assert {c.line for c in workloads.full_large(seed)} <= space


def test_tracer_leaves_output_bytes_unchanged():
    from bunpic import cli
    from bunpic.exact_algebra import IntMatrix
    from bunpic.root_datum import smith_normal_form

    originals = (cli.run_report, smith_normal_form, IntMatrix.mul)
    configs = [cli.RunConfig.from_json(json.loads(c.line))
               for c in workloads.sweep_small(1)[:12]]
    configs.append(cli.RunConfig.from_json(workloads.WARMUP))
    plain = [cli.emit(cli.run_report(cfg)[1], "json") for cfg in configs]
    with Tracer() as tracer:
        traced = [cli.emit(cli.run_report(cfg)[1], "json") for cfg in configs]
    assert traced == plain
    summary = tracer.summary()
    assert summary["calls"]["cli.run_report"] == len(configs)
    assert summary["calls"]["exact_algebra.smith_normal_form"] > 0
    assert summary["calls"]["exact_algebra.IntMatrix.mul"] > 0
    assert sum(summary["layer_self_s"].values()) > 0
    from bunpic.root_datum import smith_normal_form as after
    assert (cli.run_report, after, IntMatrix.mul) == originals


def test_self_time_subtracts_children():
    tracer = Tracer()
    # [id, name, layer, start, end, parent, report, cpu]
    tracer.spans = [[0, "cli.run_report", "cli", 0.0, 10.0, None, 0, 4.0],
                    [1, "exact_algebra.smith_normal_form", "exact_algebra", 1.0, 4.0, 0, 0, None],
                    [2, "exact_algebra.hermite_normal_form", "exact_algebra", 2.0, 3.0, 1, 0, None],
                    [3, "root_datum.cross_diagram", "root_datum", 5.0, 7.0, 0, 0, None]]
    s = tracer.summary()
    assert s["layer_self_s"]["cli"] == 5.0
    assert s["self_s"]["exact_algebra.smith_normal_form"] == 2.0
    assert s["layer_self_s"]["exact_algebra"] == 3.0
    assert s["wait_s"] == {"cli.run_report": 6.0}


@pytest.mark.parametrize("n,expected", [(9, None), (99, None), (100, 90.0), (999, 90.0),
                                        (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        samples = list(range(n))
        beyond = [x for x in samples if x > run.percentile(samples, expected)]
        assert len(beyond) >= 10


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(name, trace):
    proc = _run_bench(ROOT, "--workload", name, "--seed", "0", "--seconds", "0",
                      "--trace", trace, "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert "golden digests checked: 2" in proc.stdout
    names = [m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["per_layer" if trace == "1" else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "sweep_small", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

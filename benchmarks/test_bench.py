"""Checks on the benchmark itself.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import CLASS_COUNTS, WORKLOADS, load_class_reps  # noqa: E402


def test_frozen_representatives_match_the_enumerator():
    from ybekit import setsolutions
    from ybekit.enumeration import EnumerationConfig, enumerate_solutions
    frozen = load_class_reps(SimpleNamespace(setsolutions=setsolutions))
    assert sorted(frozen) == [1, 2, 3, 4]
    for n, published in CLASS_COUNTS.items():
        derived = enumerate_solutions(EnumerationConfig(n, dedupe=True))
        assert len(derived) == published
        assert frozen[n] == derived


def test_benchmark_json_names_what_the_runner_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("count, q, value, beyond", [
    (20, 95.0, 18.05, 1), (40, 65.0, 25.35, 14), (41, 50.0, 20.0, 20), (1, 95.0, 0.0, 0)])
def test_tail_is_the_fixed_percentile_and_counts_the_samples_beyond_it(count, q, value, beyond):
    got_value, got_beyond = run.tail([float(v) for v in reversed(range(count))], q)
    assert got_value == pytest.approx(value)
    assert got_beyond == beyond


def _traced(workload: str, seed: int, work_dir: Path) -> dict:
    """Two items of the workload's traced run, in this process."""
    w = WORKLOADS[workload]
    lib = run.Library()
    inputs = w.prepare(lib, seed, work_dir)
    run.OUT.mkdir(exist_ok=True)
    result, _, detail = run.measure_traced(w, lib, inputs, 2, seed)
    assert result.failed == 0, result.problems
    return detail


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_and_another_seed_changes_the_inputs(workload, tmp_path):
    first, again, other = (_traced(workload, seed, tmp_path) for seed in (11, 11, 12))
    assert first["counters"] == again["counters"]
    assert first["items_digest"] == again["items_digest"]
    assert first["outputs_digest"] == again["outputs_digest"]
    assert first["outputs_digest"] == first["untraced_outputs_digest"]
    assert other["items_digest"] != first["items_digest"]


def test_without_the_library_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "theorem_a_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

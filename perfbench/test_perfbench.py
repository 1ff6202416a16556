"""The benchmark's own tests: a short run of every workload, all checks on.

    python3 -m pytest perfbench -q        # about three minutes on two cores
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_references_agree_with_the_program_shapes():
    from chordscan import reading, shapes

    for name in workloads.BUILTINS:
        assert reference.check_shape(name, shapes.builtin(name), reference.builtin_closed_form(name)) == []
    for c, mask in reading.LETTER_MASKS.items():
        assert reference.check_shape(c, reading.letter_shape(c, 1.0), reference.mask_closed_form(mask)) == []
    for w in workloads.WORDS:
        expected = reference.word_closed_form(w, reading.LETTER_MASKS)
        assert reference.check_shape(w, reading.word_shape(w, 1.0).shape, expected) == []
    # a wrong reference is caught
    assert reference.check_shape("square", shapes.builtin("square"), (1.0, 4.1))


# --seconds 0 runs one pass. Operations per round: 7 shapes x 2 samplers +
# the billiard chain; 5 calibrations + letters + 2 convergence studies;
# 2 words x 2 strategies.
PER_ROUND = {"bulk": 15, "replicates": 8, "read-words": 4}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = bench(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    per_round = PER_ROUND[workload]
    assert result["attempted"] % per_round == 0
    # the billiard-chain operation in bulk is the only one expected to fail
    expected_failed = result["attempted"] // per_round if workload == "bulk" else 0
    assert result["failed"] == expected_failed, proc.stdout
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for key, v in result["metrics"].items():
        assert math.isfinite(v["value"]), key
        if not trace:
            assert v["value"] > 0, key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(["--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

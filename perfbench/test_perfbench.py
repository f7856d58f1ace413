"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They take about half a minute: two short certify runs and one certify job.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Certify, BallLarge

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


def test_declared_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_names_match_benchmark_json(trace, section):
    proc = _bench("--workload", "certify", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 500 * (1 + int(trace))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def certify_job():
    workload = run.make_workload("certify", 11)
    return workload, workload.job()


@pytest.mark.parametrize("kind", ["normgen", "factor"])
def test_flipped_letter_counts_as_failure(certify_job, kind):
    workload, job = certify_job
    clean = run.summarize(workload, job, traced=False)
    assert clean["failures"] == [] and clean["ops"] == 500

    index = next(
        i for i, op in enumerate(job.ops) if op.kind == kind and workload.letters(op) > 0
    )
    op = job.ops[index]
    cert = op.output[3] if kind == "normgen" else op.output
    letter = cert["letters"][0]
    letter["e"] = -letter["e"]
    try:
        tampered = run.summarize(workload, job, traced=False)
    finally:
        letter["e"] = -letter["e"]
    assert len(tampered["failures"]) == 1
    assert "do not multiply to the target" in tampered["failures"][0]


def test_certify_inputs_are_byte_identical_for_a_seed(certify_job):
    workload, _ = certify_job
    prog = workload.prog
    again = Certify(prog, 11, run.WORKDIR).inputs_bytes()
    assert again == workload.inputs_bytes()
    assert Certify(prog, 12, run.WORKDIR).inputs_bytes() != again


def test_ball_generators_are_byte_identical_for_a_seed(certify_job):
    prog = certify_job[0].prog
    path = Path(BallLarge(prog, 5, run.WORKDIR).argvs[0][-1])
    first = path.read_bytes()
    path.unlink()
    assert Path(BallLarge(prog, 5, run.WORKDIR).argvs[0][-1]).read_bytes() == first


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__")
    )
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

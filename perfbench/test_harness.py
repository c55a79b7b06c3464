"""Tiny-scale self-test of the benchmark harness.

    python3 -m pytest perfbench

Runs every workload in-process on small inputs: a second (held-out) seed
gives the same op counts and metric names and passes every check, the
traced run reproduces the untraced digest with exactly repeating counts,
and the exact checks reject a wrong output.
"""
import dataclasses
import json
from pathlib import Path

import pytest

import worker
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]} - {"setup_s"}  # run.py adds setup_s
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT_DIR", tmp_path)


def run(capsys, workload, seed, trace):
    code = worker.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                        "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_same_shape_and_checks_pass(capsys, workload):
    first, second = run(capsys, workload, 1, 0), run(capsys, workload, 2, 0)
    for rep in (first, second):
        assert rep["correct"] and rep["failed"] == 0 and rep["attempted"] >= 1
        assert set(rep["metrics"]) == END_TO_END
        assert all(m["value"] > 0 for m in rep["metrics"].values())
    assert first["ops_per_pass"] == second["ops_per_pass"]
    assert first["digest"] != second["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_keeps_digest_and_counts(capsys, workload):
    plain = run(capsys, workload, 3, 0)
    traced = run(capsys, workload, 3, 1)
    again = run(capsys, workload, 3, 1)
    assert traced["correct"] and traced["digest"] == plain["digest"]
    assert set(traced["metrics"]) == PER_LAYER
    counts = {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in again["metrics"].items() if v["unit"] == "count"}


def test_changed_digest_fails_the_run():
    assert worker.record_digest("power/1/tiny/src", "a")
    assert worker.record_digest("power/1/tiny/src", "a")
    assert not worker.record_digest("power/1/tiny/src", "b")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_wrong_output(workload):
    op = workloads.make_pass(workload, 4, 0, tiny=True)[-1]
    out = workloads.run_op(op)
    workloads.check_op(op, out)
    if op.kind == "qf":
        bad = (out[0], out[1], [out[2][0] + 1])
    elif op.kind.startswith("power"):
        bad = (out[0], dataclasses.replace(out[1], achieved=out[1].achieved - 1))
    elif op.kind == "wreach":
        bad = (out[0], out[1], [out[2][0] + 1] + out[2][1:])
    else:
        bad = (dataclasses.replace(out[0], epsilon_claimed=2 * workloads.EPS),) + out[1:]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_op(op, bad)

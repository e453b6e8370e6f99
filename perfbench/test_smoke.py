"""Smoke test of the benchmark at toy sizes.

Checks the output contract only: every declared metric is emitted with
its unit, the run is correct, reruns with one seed give the same output
digest, and the model check rejects the `init_params` defaults. No
wall-clock value is asserted, so timing noise can never fail it.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ["train", "eval", "deblur"]


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    declared = _declared()
    lines, result = _run(workload, 0)
    _check_result(result, declared["end_to_end"])
    for name in ("failed_ops_frac", "isnr_db", "op_s.tail"):
        assert any(line.startswith(name) for line in lines), name
    digest = [line for line in lines if line.startswith("output digest")]
    again = [line for line in _run(workload, 0)[0]
             if line.startswith("output digest")]
    assert digest and digest == again


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    declared = _declared()
    _, result = _run(workload, 1)
    _check_result(result, declared["per_layer"])
    nodes = result["metrics"]["autodiff.tape_nodes"]["value"]
    assert (nodes > 0) == (workload == "train")
    assert result["metrics"]["spectral.fft_points"]["value"] > 0


def test_declared_per_layer_names_match_the_tracer():
    declared = [(m["name"], m["unit"], m["better"])
                for m in _declared()["per_layer"]]
    assert declared == spans.per_layer_names()


def test_model_check_rejects_init_params_defaults(tmp_path):
    from unrolled_deblur import training

    sizes = inputs.TOY["eval"]
    record = inputs.write_records(str(tmp_path), 0, sizes, 1)[0]
    config = inputs.train_config(0, sizes)
    with pytest.raises(inputs.ModelCheckFailed):
        inputs.check_model(training.init_params(config), record.blurred)
    surviving = inputs.check_model(inputs.generate_model(config),
                                   record.blurred)
    assert 0.0 < surviving < 1.0

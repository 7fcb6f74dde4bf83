"""Self-test of the benchmark harness (not part of tier-1).

Run with ``python -m pytest bench -q``.  Drives the suite once in
``--smoke`` mode (4 rounds per workload, 1 repeat, probes at 3 calls) and
checks the shape of what comes out, not the numbers.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from workloads import SMOKE_ROUNDS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def contract():
    return bench.load_contract()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as fh:
        return json.load(fh), str(out), done.stdout


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["bench"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert len(contract["workloads"]) == 6
    assert len(contract["end_to_end"]) == 7
    assert len(contract["per_layer"]) < 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_golden_covers_every_workload():
    golden = bench.load_golden()
    assert set(golden) == set(WORKLOADS)
    for name, entry in golden.items():
        assert entry["rounds"] == WORKLOADS[name].rounds
        assert entry["rounds_to_target"] is not None
        assert entry["trajectory"][-1][1] == entry["final_train_loss"]


def test_smoke_emits_every_metric(smoke, contract):
    results, _, stdout = smoke
    assert set(results["workloads"]) == set(WORKLOADS)
    for name, w in results["workloads"].items():
        assert w["failed_ops"] == 0, w["failures"]
        assert w["attempted_ops"] > w["rounds"] == SMOKE_ROUNDS
        for metric in contract["end_to_end"]:
            summary = w["end_to_end"][metric["name"]]
            assert summary["n"] == 1
            assert math.isfinite(summary["median"]) and summary["median"] != 0
            assert metric["name"] in stdout
        for metric in contract["per_layer"]:
            value = w["per_layer"].get(metric["name"], results["probes"].get(metric["name"]))
            assert value is not None and math.isfinite(value), (name, metric["name"])
        assert w["per_layer"]["trace.overhead_ratio"] > 0
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "loadavg_start",
                "loadavg_end", "git_sha"):
        assert key in results["machine"]


def test_spans_share_round_ids_and_tile(smoke):
    results, _, _ = smoke
    for name, w in results["workloads"].items():
        tiling = w["tiling"]
        assert tiling["rounds"] == SMOKE_ROUNDS
        # Every span carrying a round id lies inside a span with the same
        # id, so the self times under an id add up to its round span.
        assert tiling["orphans"] == 0, name
        assert tiling["max_error"] <= 0.05, name


def test_layers_separate_on_smoke(smoke):
    layers = {n: w["per_layer"] for n, w in smoke[0]["workloads"].items()}
    plain = layers["paper_synth_serial"]
    assert plain["comms.encode_ms"] == plain["faults.execute_self_ms"] == 0
    assert plain["telemetry.emit_ms"] == plain["datasets.store_get_ms"] == 0
    assert layers["scale_od_sampled"]["datasets.store_get_ms"] > 0
    busy = layers["async_qsgd_ledger"]
    assert min(busy["comms.encode_ms"], busy["faults.execute_self_ms"],
               busy["telemetry.emit_ms"]) > 0
    assert layers["parallel_topk_ipc"]["comms.decode_ms"] > 0


def test_single_measurement_contract(contract):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "paper_synth_serial", "--seed", "3",
                    "--seconds", "10", "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in contract[key]]
        for metric in contract[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    done = _run("--workload", "paper_synth_serial", "--seed", "0",
                "--seconds", "10", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_of_a_file_with_itself_is_clean(smoke):
    _, path, _ = smoke
    done = _run("compare", path, path)
    assert done.returncode == 0, done.stdout
    assert "worse" not in done.stdout and "same" in done.stdout


def _summary(values):
    return bench.summarize(list(values))


def test_verdicts():
    steady = _summary([10.0, 10.1, 10.2, 10.1, 10.0])
    assert bench.verdict(steady, _summary([10.1, 10.2, 10.0, 10.1, 10.2]), "lower", 0.1) == "same"
    assert bench.verdict(steady, _summary([12.0, 12.1, 12.2, 12.1, 12.0]), "lower", 0.1) == "worse"
    assert bench.verdict(steady, _summary([12.0, 12.1, 12.2, 12.1, 12.0]), "higher", 0.1) == "better"
    noisy = _summary([8.0, 10.0, 12.0, 9.0, 11.0])
    assert bench.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert bench.verdict(noisy, _summary([20.0, 21.0, 22.0, 23.0, 24.0]), "lower", 0.1) == "worse"
    assert bench.verdict(noisy, _summary([2.0, 2.5, 3.0, 3.5, 4.0]), "lower", 0.1) == "better"


def test_compare_flags_a_regression(smoke, tmp_path):
    results, path, _ = smoke
    slower = json.loads(json.dumps(results))
    summary = slower["workloads"]["charlstm_serial"]["end_to_end"]["rounds_per_s"]
    for key in ("median", "q1", "q3"):
        summary[key] *= 0.5
    summary["values"] = [v * 0.5 for v in summary["values"]]
    other = tmp_path / "slower.json"
    other.write_text(json.dumps(slower))
    done = _run("compare", path, str(other))
    assert done.returncode == 1
    assert "worse" in done.stdout

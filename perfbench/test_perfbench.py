"""Tests of the benchmark itself: toy-size runs and planted faults.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import als  # noqa: E402
import checks  # noqa: E402
import serve  # noqa: E402
from common import tile  # noqa: E402
from inputs import make_tensor, read_tns, write_tns  # noqa: E402
from repro.cpd import cp_als  # noqa: E402
from repro.engines import create_engine  # noqa: E402
from repro.tensor import CooTensor  # noqa: E402

TOY_ALS = als.Size(nnz=3000, rank=4, iterations=3)
TOY_SERVE = serve.Size(nnz=400, seeds=2, min_jobs=1)


def _children() -> list:
    pid = os.getpid()
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return fh.read().split()


def _shm() -> set:
    return {n for n in os.listdir("/dev/shm") if n.startswith("repro-")}


@pytest.fixture(scope="module")
def decomposed():
    """A small real decomposition and one iteration of its MTTKRPs."""
    indices, values, shape = make_tensor("uber", 2000, 3)
    tensor = CooTensor.from_arrays(indices, values, shape)
    with create_engine("stef", tensor, 4, num_threads=2) as engine:
        result = cp_als(tensor, 4, engine=engine, max_iters=3, tol=0.0, seed=1)
        outputs = engine.iteration_results(result.model.factors)
    return indices, values, result, outputs


# -- every check accepts working output and rejects its planted fault ------

def test_mttkrp_check_rejects_one_perturbed_entry(decomposed):
    indices, values, result, outputs = decomposed
    factors = result.model.factors
    checks.check_mttkrp(outputs, indices, values, factors)
    bad = [(m, a.copy()) for m, a in outputs]
    big = np.unravel_index(np.argmax(np.abs(bad[1][1])), bad[1][1].shape)
    bad[1][1][big] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match="relative error"):
        checks.check_mttkrp(bad, indices, values, factors)
    with pytest.raises(checks.CheckFailed, match="cover"):
        checks.check_mttkrp(outputs[1:], indices, values, factors)


def test_fit_check_rejects_a_shifted_fit(decomposed):
    indices, values, result, _ = decomposed
    args = (indices, values, result.model.weights, result.model.factors)
    checks.check_fit(result.fits[-1], *args)
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_fit(result.fits[-1] + 1e-7, *args)


def test_monotone_check_rejects_a_decreasing_fit(decomposed):
    _, _, result, _ = decomposed
    checks.check_monotone(result.fits, 3)
    with pytest.raises(checks.CheckFailed, match="fell"):
        checks.check_monotone([0.1, 0.3, 0.2], 3)
    with pytest.raises(checks.CheckFailed, match="fits for"):
        checks.check_monotone(result.fits[:2], 3)
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_monotone([0.1, float("nan"), 0.2], 3)


def test_identity_and_traffic_checks_reject_one_difference(decomposed):
    _, _, _, outputs = decomposed
    same = [(m, a.copy()) for m, a in outputs]
    checks.check_identical(outputs, same, "copy")
    same[0][1][0, 0] = np.nextafter(same[0][1][0, 0], np.inf)
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_identical(outputs, same, "ulp")
    checks.check_equal_traffic({"reads": 4.0}, {"reads": 4.0}, "same")
    with pytest.raises(checks.CheckFailed, match="reads"):
        checks.check_equal_traffic({"reads": 4.0}, {"reads": 5.0}, "off")


def test_served_check_rejects_one_ulp_and_wrong_state(decomposed):
    _, _, result, _ = decomposed
    weights, factors = result.model.weights, result.model.factors
    job = {"job_id": "j", "state": "done", "result": {
        "iterations": 3, "fits": list(result.fits),
        "weights": weights.tolist(), "factors": [f.tolist() for f in factors]}}
    checks.check_served(job, 3, weights, factors)
    nudged = [f.copy() for f in factors]
    nudged[2][1, 1] = np.nextafter(nudged[2][1, 1], -np.inf)
    with pytest.raises(checks.CheckFailed, match="mode 2"):
        checks.check_served(job, 3, weights, nudged)
    with pytest.raises(checks.CheckFailed, match="iterations"):
        checks.check_served(job, 4, weights, factors)
    with pytest.raises(checks.CheckFailed, match="failed"):
        checks.check_served({**job, "state": "failed"}, 3, weights, factors)


# -- inputs -----------------------------------------------------------------

def test_inputs_depend_only_on_the_seed(tmp_path):
    a = make_tensor("enron", 3000, 7)
    b = make_tensor("enron", 3000, 7)
    c = make_tensor("enron", 3000, 8)
    assert all(np.array_equal(x, y) for x, y in zip(a[:2], b[:2]))
    assert not np.array_equal(a[1], c[1])
    indices, values, shape = a
    assert indices.shape == (4, 3000) and all(
        indices[m].max() < n for m, n in enumerate(shape))
    path = str(tmp_path / "t.tns")
    write_tns(path, indices, values)
    back_indices, back_values = read_tns(path)
    assert np.array_equal(back_indices, indices)
    assert np.array_equal(back_values, values)


# -- whole workloads at toy size ---------------------------------------------

@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_als_workload_runs_and_tiles(backend):
    shm = _shm()
    out = als.run(backend, seed=2, seconds=0.0, trace=True, size=TOY_ALS)
    assert out.correct, out.wrong
    assert (out.attempted, out.failed) == (3, 0)
    assert set(out.metrics) >= {"setup_s", "decompose_s", "nnz_iters_per_s"}
    assert all(v > 0 for v in out.metrics.values())
    rows = out.table["rows"]
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(
        out.table["wall_s"])
    assert out.layers["parallel.task_s"] > 0
    assert _children() == [] and _shm() == shm


def test_als_workload_reports_a_wrong_mttkrp(monkeypatch):
    real = als.create_engine

    def create(*args, **kwargs):
        engine = real(*args, **kwargs)
        results = engine.iteration_results

        def perturbed(factors):
            outs = results(factors)
            outs[0][1][0, 0] += 1.0
            return outs

        engine.iteration_results = perturbed
        return engine

    monkeypatch.setattr(als, "create_engine", create)
    out = als.run("serial", seed=2, seconds=0.0, trace=False, size=TOY_ALS)
    assert not out.correct and out.failed == 0
    assert all("MTTKRP" in w for w in out.wrong)


def test_als_workload_counts_an_operation_that_raises(monkeypatch):
    real = als.create_engine

    def create(name, tensor, *args, **kwargs):
        if name == "stef2" and tensor.nnz == TOY_ALS.nnz:  # not the warm-up
            raise RuntimeError("planted")
        return real(name, tensor, *args, **kwargs)

    monkeypatch.setattr(als, "create_engine", create)
    out = als.run("processes", seed=2, seconds=0.0, trace=False, size=TOY_ALS)
    assert (out.attempted, out.failed) == (3, 1) and out.correct
    assert _children() == []


def test_serve_workload_runs_and_tiles(tmp_path):
    out = serve.run(seed=4, seconds=0.0, trace=True, tmp=str(tmp_path),
                    src=os.path.join(ROOT, "src"), size=TOY_SERVE)
    assert out.correct, out.wrong
    assert (out.attempted, out.failed) == (12, 0)
    # One miss per tensor; a hit may turn into a bypass if both
    # connections hold the same tensor at once.
    assert 0.0 < out.layers["serve.cache_hit_ratio"] <= 0.5
    assert all(v > 0 for v in out.metrics.values())
    rows = out.table["rows"]
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(
        out.table["wall_s"])
    assert _children() == []
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".sock")]


def test_serve_workload_reports_a_one_ulp_difference(tmp_path, monkeypatch):
    real = serve._reference

    def nudged(path, size, seeds):
        ref = real(path, size, seeds)
        weights, factors = ref["models"][1]
        factors = [f.copy() for f in factors]
        factors[0][0, 0] = np.nextafter(factors[0][0, 0], np.inf)
        ref["models"][1] = (weights, factors)
        return ref

    monkeypatch.setattr(serve, "_reference", nudged)
    out = serve.run(seed=4, seconds=0.0, trace=False, tmp=str(tmp_path),
                    src=os.path.join(ROOT, "src"), size=TOY_SERVE)
    assert not out.correct and out.failed == 0
    assert len(out.wrong) == len(serve.TENSORS)  # seed 1 of every tensor


# -- the runner ----------------------------------------------------------------

def test_tile_adds_up_to_the_wall():
    table = tile(2.0, {"a": 0.5, "b": 1.0})
    assert table["rows"]["other"]["self_s"] == pytest.approx(0.5)
    assert sum(r["share"] for r in table["rows"].values()) == pytest.approx(1.0)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "als-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_metric_once():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == [
        "als-serial", "als-processes", "serve-restarts"]

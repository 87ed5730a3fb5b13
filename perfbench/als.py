"""``als-serial`` and ``als-processes``: CP-ALS time to solution.

One round decomposes three Table-I look-alikes, each with the engine the
paper's results favour for it.  An operation is one cell:
``CooTensor.from_arrays`` + ``create_engine`` (the set-up) followed by
``cp_als`` with a fixed iteration count.  The checks run after the timed
part, on the still-open engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Dict, List, Tuple

import numpy as np

import checks
from common import Outcome, median, p90, tile, vm_hwm_mb
from inputs import make_tensor
from repro.core import plan_decomposition
from repro.cpd import cp_als
from repro.engines import create_engine
from repro.parallel import MACHINES, shutdown_worker_pools
from repro.parallel.counters import TrafficCounter
from repro.tensor import CooTensor, CsfTensor, default_mode_order
from repro.trace import NULL_TRACER, Tracer

#: (tensor, engine): uber is the tensor where memoizing the biggest
#: partial hurts, enron has long word-mode fibres, and nell-2's leaf-mode
#: MTTKRP is the case STeF2's second CSF was made for.
CELLS = (("uber", "stef"), ("enron", "stef"), ("nell-2", "stef2"))

#: Layers that an ALS run does not pass through.
NOT_EXERCISED = (
    "serve.queue_wait_p50_s", "serve.execute_hit_p50_s",
    "serve.execute_miss_p50_s", "serve.als_p50_s", "serve.reply_p50_s",
    "serve.reply_p90_s", "serve.cache_hit_ratio",
)


@dataclass(frozen=True)
class Size:
    nnz: int = 200_000
    rank: int = 32
    iterations: int = 4
    num_threads: int = 2
    machine: str = "intel-clx-18"


class TimedEngine:
    """Times each ``mttkrp_level`` call and forwards everything else."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.calls: List[Tuple[int, float, float]] = []

    def mttkrp_level(self, factors, level):
        t0 = time.perf_counter()
        out = self._engine.mttkrp_level(factors, level)
        self.calls.append((level, t0, time.perf_counter()))
        return out

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _traffic(counter: TrafficCounter) -> Dict[str, float]:
    totals = {"reads": counter.reads, "writes": counter.writes,
              "flops": counter.flops}
    totals.update(counter.by_category)
    return totals


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()
            if v - before.get(k, 0.0)}


def _covered(lo: float, hi: float, spans: List[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by at least one span."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in spans
                       if b > lo and a < hi):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def _serial_reference(name: str, indices: np.ndarray, values: np.ndarray,
                      shape, size: Size, factors):
    """One iteration's MTTKRPs and their traffic from a serial engine."""
    machine = MACHINES[size.machine]
    counter = TrafficCounter(cache_elements=machine.cache_elements)
    tensor = CooTensor.from_arrays(indices, values, shape)
    with create_engine(name, tensor, size.rank, machine=machine,
                       num_threads=size.num_threads, exec_backend="serial",
                       counter=counter) as ref:
        outs = ref.iteration_results(factors)
    return outs, _traffic(counter)


def _warm_up(backend: str, size: Size) -> None:
    """Fork the worker pool and touch every code path once, untimed."""
    indices, values, shape = make_tensor("uber", 2000, 0)
    tensor = CooTensor.from_arrays(indices, values, shape)
    for _, engine_name in CELLS:
        with create_engine(engine_name, tensor, size.rank,
                           machine=MACHINES[size.machine],
                           num_threads=size.num_threads,
                           exec_backend=backend) as engine:
            cp_als(tensor, size.rank, engine=engine, max_iters=1, tol=0.0)


def run(backend: str, seed: int, seconds: float, trace: bool,
        size: Size = Size()) -> Outcome:
    out = Outcome()
    machine = MACHINES[size.machine]
    inputs = {name: make_tensor(name, size.nnz, seed) for name, _ in CELLS}
    try:
        _warm_up(backend, size)
        rounds: List[Dict[str, float]] = []
        cells: List[Dict[str, float]] = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            this = {"setup": 0.0, "decompose": 0.0}
            layer_round = {"from_arrays": 0.0, "csf": 0.0, "plan": 0.0,
                           "create": 0.0}
            for tensor_name, engine_name in CELLS:
                indices, values, shape = inputs[tensor_name]
                out.attempted += 1
                try:
                    cell = _decompose(out, tensor_name, engine_name, backend,
                                      indices, values, shape, size, machine,
                                      seed, trace)
                except Exception:
                    out.fail(f"{backend} {tensor_name}/{engine_name}")
                    continue
                cells.append(cell)
                this["setup"] += cell["from_arrays"] + cell["create"]
                this["decompose"] += cell["wall"]
                for key in layer_round:
                    layer_round[key] += cell.get(key, 0.0)
            rounds.append({**this, **layer_round})
        peak = vm_hwm_mb()
    finally:
        shutdown_worker_pools()
        # Shared memory starts multiprocessing's resource tracker, a child
        # that would outlive the run: end it and wait for it.
        resource_tracker._resource_tracker._stop()
    if not cells:
        return out
    walls = [c["wall"] for c in cells]
    als_wall = sum(c["cp_als"] for c in cells)
    out.metrics = {
        "setup_s": median([r["setup"] for r in rounds]),
        "decompose_s": median([r["decompose"] for r in rounds]),
        "nnz_iters_per_s": sum(c["nnz"] * c["iterations"] for c in cells) / als_wall,
        "peak_rss_mb": peak,
        "jobs_per_s": len(cells) / sum(walls),
        "job_latency_p50_s": median(walls),
        "job_latency_p90_s": p90(walls),
    }
    if trace:
        _layers(out, rounds, cells)
    return out


def _decompose(out: Outcome, tensor_name: str, engine_name: str,
               backend: str, indices: np.ndarray, values: np.ndarray, shape,
               size: Size, machine, seed: int, trace: bool) -> Dict[str, float]:
    """One timed cell, then its checks; returns the cell's timings."""
    counter = TrafficCounter(cache_elements=machine.cache_elements)
    tracer: Tracer = Tracer() if trace else NULL_TRACER
    t0 = time.perf_counter()
    tensor = CooTensor.from_arrays(indices, values, shape)
    t1 = time.perf_counter()
    engine = create_engine(engine_name, tensor, size.rank, machine=machine,
                           num_threads=size.num_threads, exec_backend=backend,
                           counter=counter, tracer=tracer)
    t2 = time.perf_counter()
    with engine:
        timed = TimedEngine(engine) if trace else engine
        tracer.clear()
        result = cp_als(tensor, size.rank, engine=timed,
                        max_iters=size.iterations, tol=0.0, seed=seed,
                        tracer=tracer)
        t3 = time.perf_counter()
        cell = {"from_arrays": t1 - t0, "create": t2 - t1, "cp_als": t3 - t2,
                "wall": t3 - t0, "nnz": float(values.size),
                "iterations": float(result.iterations),
                "iter_sum": float(sum(result.seconds_per_iteration)),
                "als_seconds": result.seconds}
        before = _traffic(counter)
        if trace:
            cell.update(_cell_layers(timed.calls, tracer, before))
        factors = result.model.factors
        outputs = engine.iteration_results(factors)
        traffic = _delta(before, _traffic(counter))
    out.check(checks.check_monotone, result.fits, size.iterations)
    out.check(checks.check_mttkrp, outputs, indices, values, factors)
    out.check(checks.check_fit, result.fits[-1], indices, values,
              result.model.weights, factors)
    if backend != "serial":
        ref_outputs, ref_traffic = _serial_reference(
            engine_name, indices, values, shape, size, factors)
        out.check(checks.check_identical, outputs, ref_outputs,
                  f"{tensor_name} {backend} vs serial MTTKRP")
        out.check(checks.check_equal_traffic, traffic, ref_traffic,
                  f"{tensor_name} {backend} vs serial")
    if trace:
        # The engine built the CSF and planned inside create_engine; time
        # the same two calls on their own to split that set-up.
        tensor = CooTensor.from_arrays(indices, values, shape)
        t0 = time.perf_counter()
        csf = CsfTensor.from_coo(tensor, default_mode_order(tensor.shape))
        t1 = time.perf_counter()
        decision = plan_decomposition(csf, size.rank, machine,
                                      consider_swap=tensor.ndim >= 3)
        t2 = time.perf_counter()
        cell.update(csf=t1 - t0, plan=t2 - t1,
                    predicted=decision.best.predicted_traffic)
    return cell


def _cell_layers(calls: List[Tuple[int, float, float]], tracer: Tracer,
                 traffic: Dict[str, float]) -> Dict[str, float]:
    """Split the MTTKRP calls into worker-task time and dispatch."""
    tasks = [(r.t0 + tracer.epoch, r.t1 + tracer.epoch)
             for r in tracer.spans("executor.task")]
    cell = {"mode0": 0.0, "levels": 0.0, "mode0_busy": 0.0,
            "levels_busy": 0.0, "task": sum(b - a for a, b in tasks),
            "reads": traffic["reads"], "writes": traffic["writes"],
            "flops": traffic["flops"]}
    for level, t0, t1 in calls:
        key = "mode0" if level == 0 else "levels"
        cell[key] += t1 - t0
        cell[key + "_busy"] += _covered(t0, t1, tasks)
    return cell


def _layers(out: Outcome, rounds: List[Dict[str, float]],
            cells: List[Dict[str, float]]) -> None:
    iters = sum(c["iterations"] for c in cells)

    def per_iter(key: str) -> float:
        return sum(c[key] for c in cells) / iters

    mttkrp = sum(c["mode0"] + c["levels"] for c in cells)
    busy = sum(c["mode0_busy"] + c["levels_busy"] for c in cells)
    iter_sum = sum(c["iter_sum"] for c in cells)
    fit = sum(c["als_seconds"] - c["iter_sum"] for c in cells)
    out.layers = {
        "tensor.from_arrays_s": median([r["from_arrays"] for r in rounds]),
        "tensor.csf_build_s": median([r["csf"] for r in rounds]),
        "core.plan_s": median([r["plan"] for r in rounds]),
        "engines.create_s": median([r["create"] for r in rounds]),
        "core.mttkrp_mode0_s": per_iter("mode0"),
        "core.mttkrp_levels_s": per_iter("levels"),
        "cpd.algebra_s": (iter_sum - mttkrp) / iters,
        "cpd.fit_s": fit / iters,
        "parallel.task_s": per_iter("task"),
        "parallel.dispatch_s": (mttkrp - busy) / iters,
        "kernels.reads": per_iter("reads"),
        "kernels.writes": per_iter("writes"),
        "kernels.flops": per_iter("flops"),
        "core.predicted_traffic": sum(c["predicted"] * c["iterations"]
                                      for c in cells) / iters,
    }
    csf = sum(c["csf"] for c in cells)
    plan = sum(c["plan"] for c in cells)
    out.table = tile(sum(c["wall"] for c in cells), {
        "tensor.from_arrays": sum(c["from_arrays"] for c in cells),
        "tensor.csf_build": csf,
        "core.plan": plan,
        "engines.create (rest)": sum(c["create"] for c in cells) - csf - plan,
        "core.mttkrp_mode0 (tasks)": sum(c["mode0_busy"] for c in cells),
        "core.mttkrp_levels (tasks)": sum(c["levels_busy"] for c in cells),
        "parallel.dispatch": mttkrp - busy,
        "cpd.algebra": iter_sum - mttkrp,
        "cpd.fit": fit,
    })
    out.table["operations"] = len(cells)

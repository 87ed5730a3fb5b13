"""``serve-restarts``: random restarts of six small tensors through
``repro serve``.

A round spawns a daemon (2 workers, default cache), sends every job of
the round from two closed-loop client connections, reads the daemon's
peak RSS and shuts it down.  Jobs are ordered seed-major: seeds
``0..SEEDS-1`` of each of the six tensors, so each tensor misses the
engine cache once per round and hits it afterwards.  Every served model
is compared, after the round, with a direct ``create_engine`` +
``cp_als`` run on the tensor read back from the same ``.tns`` file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import checks
from common import Outcome, median, p90, tile, vm_hwm_mb
from inputs import read_tns, tns_paths
from repro.core import plan_decomposition
from repro.cpd import cp_als
from repro.engines import create_engine
from repro.parallel import MACHINES
from repro.serve import JobSpec, ServeClient, wait_for_socket
from repro.tensor import CooTensor, CsfTensor, default_mode_order

TENSORS = ("uber", "nell-2", "nips", "chicago-crime-comm",
           "vast-2015-mc1-3d", "enron")

#: Every per-layer metric has a value on this workload.
NOT_EXERCISED = ()


@dataclass(frozen=True)
class Size:
    nnz: int = 5000
    rank: int = 8
    iterations: int = 3
    seeds: int = 6          # jobs per round = seeds * len(TENSORS)
    min_jobs: int = 100     # a run goes on until it has sent this many
    clients: int = 2
    workers: int = 2
    machine: str = "intel-clx-18"


class Daemon:
    """A ``python -m repro serve`` child in its own spool directory."""

    def __init__(self, cwd: str, name: str, src: str, workers: int) -> None:
        self.spool = os.path.join(cwd, name)
        self.socket = os.path.relpath(os.path.join(cwd, f"{name}.sock"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self._log = open(os.path.join(cwd, f"{name}.log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             f"{name}.sock", "--spool", name, "--workers", str(workers)],
            cwd=cwd, env=env, stdout=self._log, stderr=subprocess.STDOUT)
        try:
            wait_for_socket(self.socket, timeout=60.0)
            with ServeClient(self.socket, timeout=60.0) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(str(self.proc.pid))

    def stop(self) -> None:
        """Shut down over the socket; terminate, then kill, if that fails."""
        if self.proc.poll() is None:
            try:
                with ServeClient(self.socket, timeout=10.0) as client:
                    client.shutdown()
                self.proc.wait(timeout=30.0)
            except (OSError, ValueError, RuntimeError,
                    subprocess.TimeoutExpired):
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self._log.close()


def _traffic(daemon: Daemon, specs: List[JobSpec], clients: int
             ) -> Tuple[float, List[Tuple[float, Optional[dict], JobSpec]]]:
    """Send ``specs`` from ``clients`` closed-loop connections.  Returns
    the window from first submit to last reply and, per job, the latency
    seen by the client with the job record (``None`` if it raised)."""
    queue = list(reversed(specs))
    lock = threading.Lock()
    replies: List[Tuple[float, Optional[dict], JobSpec]] = []

    def connection() -> None:
        with ServeClient(daemon.socket, timeout=120.0) as client:
            while True:
                with lock:
                    if not queue:
                        return
                    spec = queue.pop()
                t0 = time.perf_counter()
                try:
                    job = client.submit(spec, wait=True)
                except Exception as exc:  # counted as failed by the caller
                    print(f"perfbench: submit failed: {exc!r}", file=sys.stderr)
                    job = None
                latency = time.perf_counter() - t0
                with lock:
                    replies.append((latency, job, spec))

    threads = [threading.Thread(target=connection, daemon=True)
               for _ in range(clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0, replies


def _reference(path: str, size: Size, seeds: int) -> Dict[str, object]:
    """Direct runs on the tensor read back from ``path`` (a ``.tns``
    carries no shape, so this is the tensor the daemon decomposes), with
    the set-up calls timed one by one."""
    indices, values = read_tns(path)
    machine = MACHINES[size.machine]
    t0 = time.perf_counter()
    tensor = CooTensor.from_arrays(indices, values)
    t1 = time.perf_counter()
    csf = CsfTensor.from_coo(tensor, default_mode_order(tensor.shape))
    t2 = time.perf_counter()
    decision = plan_decomposition(csf, size.rank, machine,
                                  consider_swap=tensor.ndim >= 3)
    t3 = time.perf_counter()
    models = {}
    with create_engine("stef", tensor, size.rank, machine=machine,
                       exec_backend="serial") as engine:
        for seed in range(seeds):
            result = cp_als(tensor, size.rank, engine=engine,
                            max_iters=size.iterations, tol=0.0, seed=seed)
            models[seed] = (result.model.weights, result.model.factors)
    return {"nnz": float(values.size), "models": models,
            "from_arrays": t1 - t0, "csf": t2 - t1, "plan": t3 - t2,
            "predicted": decision.best.predicted_traffic}


def _log_seconds(spool: str, job_id: str) -> Dict[str, float]:
    """The ``.seconds`` sums of a job's request log (the daemon's own
    ``repro.trace`` spans)."""
    path = os.path.join(spool, "logs", f"{job_id}.jsonl")
    with open(path) as fh:
        last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
    metrics = json.loads(last)
    return {k[:-len(".seconds")]: v for k, v in metrics.items()
            if k.endswith(".seconds")}


def run(seed: int, seconds: float, trace: bool, tmp: str, src: str,
        size: Size = Size()) -> Outcome:
    out = Outcome()
    paths = tns_paths(tmp, TENSORS, size.nnz, seed)
    names = {os.path.basename(p): name for name, p in paths.items()}
    specs = [JobSpec(tensor=os.path.basename(paths[name]), engine="stef",
                     rank=size.rank, machine=size.machine,
                     exec_backend="serial", max_iters=size.iterations,
                     tol=0.0, seed=s, client="perfbench")
             for s in range(size.seeds) for name in TENSORS]
    refs: Dict[str, Dict[str, object]] = {}
    rounds: List[Dict[str, float]] = []
    jobs: List[Dict[str, float]] = []
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < seconds
           or out.attempted < size.min_jobs):
        try:
            daemon = Daemon(tmp, f"round-{len(rounds)}", src, size.workers)
        except Exception:
            out.attempted += len(specs)
            out.fail("daemon start", count=len(specs))
            break
        try:
            window, replies = _traffic(daemon, specs, size.clients)
            peak = daemon.peak_rss_mb()
            logs = {}
            if trace:
                logs = {job["job_id"]: _log_seconds(daemon.spool, job["job_id"])
                        for _, job, _ in replies
                        if job is not None and job.get("state") == "done"}
        finally:
            daemon.stop()
        round_plan = 0.0
        for latency, job, spec in replies:
            out.attempted += 1
            if job is None or job.get("state") != "done":
                out.failed += 1
                if job is not None:
                    print(f"perfbench: job {job['job_id']} is {job['state']}: "
                          f"{job.get('error')}", file=sys.stderr)
                continue
            name = names[spec.tensor]
            if name not in refs:
                refs[name] = _reference(paths[name], size, size.seeds)
            weights, factors = refs[name]["models"][spec.seed]
            out.check(checks.check_served, job, size.iterations, weights, factors)
            row = {
                "latency": latency,
                "queue": job["started_at"] - job["submitted_at"],
                "execute": job["finished_at"] - job["started_at"],
                "als": job["result"]["seconds"],
                "hit": float(job["cache"] == "hit"),
                "nnz_iters": refs[name]["nnz"] * job["result"]["iterations"],
                "iterations": float(job["result"]["iterations"]),
                "predicted": refs[name]["predicted"],
            }
            row["reply"] = latency - (job["finished_at"] - job["submitted_at"])
            for key in ("reads", "writes", "flops"):
                row[key] = job["result"]["traffic"].get(key, 0.0)
            if trace:
                spans = logs[job["job_id"]]
                row["mode0"] = spans.get("mttkrp.mode0", 0.0)
                row["levels"] = spans.get("mttkrp.mode_level", 0.0)
                row["task"] = spans.get("executor.task", 0.0)
                row["iter_sum"] = spans.get("als.iteration", 0.0)
                round_plan += spans.get("serve.plan", 0.0)
            jobs.append(row)
        rounds.append({"setup": daemon.setup_s, "window": window,
                       "peak": peak, "plan": round_plan})
        shutil.rmtree(daemon.spool, ignore_errors=True)
    if not jobs:
        return out
    windows = sum(r["window"] for r in rounds)
    latencies = [j["latency"] for j in jobs]
    out.metrics = {
        "setup_s": median([r["setup"] for r in rounds]),
        "decompose_s": median([r["window"] for r in rounds]),
        "nnz_iters_per_s": sum(j["nnz_iters"] for j in jobs) / windows,
        "peak_rss_mb": median([r["peak"] for r in rounds]),
        "jobs_per_s": len(jobs) / windows,
        "job_latency_p50_s": median(latencies),
        "job_latency_p90_s": p90(latencies),
    }
    if trace:
        _layers(out, rounds, jobs, refs)
    return out


def _layers(out: Outcome, rounds, jobs, refs) -> None:
    iters = sum(j["iterations"] for j in jobs)

    def total(key: str) -> float:
        return sum(j[key] for j in jobs)

    def p50(key: str, where=lambda j: True) -> float:
        values = [j[key] for j in jobs if where(j)]
        return median(values) if values else 0.0

    mttkrp = total("mode0") + total("levels")
    ref_rows = list(refs.values())
    out.layers = {
        "tensor.from_arrays_s": sum(r["from_arrays"] for r in ref_rows),
        "tensor.csf_build_s": sum(r["csf"] for r in ref_rows),
        "core.plan_s": sum(r["plan"] for r in ref_rows),
        "engines.create_s": median([r["plan"] for r in rounds]),
        "core.mttkrp_mode0_s": total("mode0") / iters,
        "core.mttkrp_levels_s": total("levels") / iters,
        "cpd.algebra_s": (total("iter_sum") - mttkrp) / iters,
        "cpd.fit_s": (total("als") - total("iter_sum")) / iters,
        "parallel.task_s": total("task") / iters,
        # Serial tasks do not overlap, so their sum is the time covered.
        "parallel.dispatch_s": (mttkrp - total("task")) / iters,
        "kernels.reads": total("reads") / iters,
        "kernels.writes": total("writes") / iters,
        "kernels.flops": total("flops") / iters,
        "core.predicted_traffic": sum(j["predicted"] * j["iterations"]
                                      for j in jobs) / iters,
        "serve.queue_wait_p50_s": p50("queue"),
        "serve.execute_hit_p50_s": p50("execute", lambda j: j["hit"]),
        "serve.execute_miss_p50_s": p50("execute", lambda j: not j["hit"]),
        "serve.als_p50_s": p50("als"),
        "serve.reply_p50_s": p50("reply"),
        "serve.reply_p90_s": p90([j["reply"] for j in jobs]),
        "serve.cache_hit_ratio": total("hit") / len(jobs),
    }
    out.table = tile(sum(j["latency"] for j in jobs), {
        "serve.queue_wait": total("queue"),
        "serve.execute (outside cp_als)": total("execute") - total("als"),
        "core.mttkrp (daemon spans)": mttkrp,
        "cpd.algebra": total("iter_sum") - mttkrp,
        "cpd.fit": total("als") - total("iter_sum"),
        "serve.reply": total("reply"),
    })
    out.table["operations"] = len(jobs)

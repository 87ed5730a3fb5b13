"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload als-serial --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A traced run also writes the layer table, whose
self-times tile the measured wall, to ``.perfbench/layers-<workload>.json``.
Scratch files live under ``.perfbench/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("als-serial", "als-processes", "serve-restarts")


def _run(workload: str, seed: int, seconds: float, trace: bool, tmp: str):
    if workload == "serve-restarts":
        import serve
        return serve.run(seed, seconds, trace, tmp, SRC), serve.NOT_EXERCISED
    import als
    backend = workload.split("-", 1)[1]
    return als.run(backend, seed, seconds, trace), als.NOT_EXERCISED


def _print_table(workload: str, table: dict) -> None:
    print(f"layer table for {workload}: {table['operations']} operations, "
          f"wall {table['wall_s']:.3f} s", file=sys.stderr)
    for name, row in table["rows"].items():
        print(f"  {name:34s} {row['self_s']:10.4f} s  {100 * row['share']:6.2f} %",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)
    # The driver ends a run with SIGTERM; unwind so that every finally
    # block reaps the daemon, the worker pool and the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        outcome, not_exercised = _run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = outcome.layers if args.trace else outcome.metrics
    if args.trace and measured:
        measured = {**dict.fromkeys(not_exercised, 0.0), **measured}
    names = [m["name"] for m in wanted]
    complete = sorted(measured) == sorted(names)
    if measured and not complete:
        print(f"perfbench: measured {sorted(measured)}, declared {sorted(names)}",
              file=sys.stderr)
    if args.trace and outcome.table:
        with open(os.path.join(scratch, f"layers-{args.workload}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": outcome.layers, "table": outcome.table},
                      fh, indent=1)
        _print_table(args.workload, outcome.table)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in measured},
    }))
    return 0 if outcome.correct and complete else 1


if __name__ == "__main__":
    sys.exit(main())

"""What every workload shares: operation tallies, statistics, RSS."""

from __future__ import annotations

import statistics
import sys
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from checks import CheckFailed


@dataclass
class Outcome:
    """One run of one workload: counts, metrics and the layer table."""

    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    table: Dict[str, object] = field(default_factory=dict)

    def fail(self, what: str, count: int = 1) -> None:
        """``count`` operations raised: they count as failed, the run
        goes on."""
        self.failed += count
        print(f"perfbench: {what} failed:\n{traceback.format_exc()}",
              file=sys.stderr)

    def check(self, fn, *args) -> None:
        """Run one correctness check; a wrong output is recorded."""
        try:
            fn(*args)
        except CheckFailed as exc:
            self.wrong.append(str(exc))
            print(f"perfbench: check failed: {exc}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.wrong


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 90))


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set of a process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def tile(wall: float, parts: Dict[str, float]) -> Dict[str, object]:
    """Self-times that add up to ``wall``: the named parts plus an
    explicit ``other`` remainder, each with its share of the wall."""
    rows = dict(parts)
    rows["other"] = wall - sum(parts.values())
    return {
        "wall_s": wall,
        "rows": {name: {"self_s": sec, "share": sec / wall if wall else 0.0}
                 for name, sec in rows.items()},
    }

"""Seeded benchmark inputs: Table-I look-alike tensors and .tns files.

The generator lives here, not in the program, so a change to
``repro.tensor.synthetic`` cannot change what the benchmark measures.
Each spec keeps the paper's mode lengths, non-zero count and the skew
(an index is ``floor(n * u**skew)``, so skew 1 is uniform and larger
values concentrate mass near index 0).  ``burst`` gives one mode runs of
geometric mean length, i.e. long fibres along that mode; ``probs`` pins
a small mode's categorical distribution (vast's 947/53 split).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

STRUCTURAL_MODE_MAX = 1024
MAX_SCALED_DIM = 65536


@dataclass(frozen=True)
class Spec:
    name: str
    dims: Tuple[int, ...]
    nnz: int
    skews: Tuple[float, ...]
    probs: Dict[int, Tuple[float, ...]] = field(default_factory=dict)
    burst_mode: Optional[int] = None
    burst_mean: float = 1.0

    def scaled_dims(self, nnz: int) -> Tuple[int, ...]:
        """Shrink the non-structural modes by ``(nnz / paper nnz)^(1/d)``,
        then all of them alike so that none exceeds ``MAX_SCALED_DIM``."""
        ratio = (nnz / self.nnz) ** (1.0 / len(self.dims))
        big = [n * ratio for n in self.dims if n > STRUCTURAL_MODE_MAX]
        shrink = min(1.0, MAX_SCALED_DIM / max(big)) if big else 1.0
        return tuple(
            n if n <= STRUCTURAL_MODE_MAX
            else int(np.clip(round(n * ratio * shrink), 16, MAX_SCALED_DIM))
            for n in self.dims
        )


SPECS: Dict[str, Spec] = {s.name: s for s in [
    Spec("uber", (183, 24, 1_140, 1_717), 3_309_490, (1.3, 1.1, 1.5, 1.5)),
    Spec("enron", (6_066, 5_699, 244_268, 1_176), 54_202_099,
         (2.2, 2.2, 1.3, 1.6), burst_mode=2, burst_mean=12.0),
    Spec("nell-2", (12_092, 9_184, 28_818), 76_879_419, (1.6, 1.6, 1.4),
         burst_mode=2, burst_mean=12.0),
    Spec("nips", (2_482, 2_862, 14_036, 17), 3_101_609, (1.4, 1.4, 1.2, 1.1)),
    Spec("chicago-crime-comm", (6_186, 24, 77, 32), 5_330_673,
         (1.6, 1.2, 1.4, 1.2)),
    Spec("vast-2015-mc1-3d", (165_427, 11_374, 2), 26_021_854,
         (1.2, 1.3, 1.0), probs={2: (0.947, 0.053)}),
]}


def _draw(rng: np.random.Generator, n: int, count: int, skew: float,
          probs: Optional[Tuple[float, ...]]) -> np.ndarray:
    if probs is not None:
        return rng.choice(n, size=count, p=np.asarray(probs)).astype(np.int64)
    return np.minimum(np.floor(n * rng.random(count) ** skew), n - 1).astype(np.int64)


def make_tensor(name: str, nnz: int, seed: int
                ) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """``(indices (d, nnz), values (nnz,), shape)`` with exactly ``nnz``
    distinct coordinates, lexicographically sorted, log-normal values.
    The same ``(name, nnz, seed)`` always gives the same arrays."""
    spec = SPECS[name]
    dims = spec.scaled_dims(nnz)
    rng = np.random.default_rng([seed, sum(map(ord, name)), nnz])
    over = int(nnz * 1.5) + 64
    if spec.burst_mode is None:
        cols = [_draw(rng, n, over, spec.skews[m], spec.probs.get(m))
                for m, n in enumerate(dims)]
    else:
        prefixes = max(1, int(over / spec.burst_mean))
        runs = rng.geometric(1.0 / spec.burst_mean, size=prefixes)
        cols = [
            _draw(rng, n, int(runs.sum()), spec.skews[m], None)
            if m == spec.burst_mode
            else np.repeat(_draw(rng, n, prefixes, spec.skews[m],
                                 spec.probs.get(m)), runs)
            for m, n in enumerate(dims)
        ]
    coords = np.unique(np.vstack(cols), axis=1)  # sorted, duplicates dropped
    if coords.shape[1] < nnz:
        raise ValueError(f"{name}: only {coords.shape[1]} distinct coordinates "
                         f"for nnz={nnz}")
    keep = np.sort(rng.choice(coords.shape[1], size=nnz, replace=False))
    values = rng.lognormal(0.0, 1.0, size=nnz)
    return np.ascontiguousarray(coords[:, keep]), values, dims


def write_tns(path: str, indices: np.ndarray, values: np.ndarray) -> None:
    """FROSTT text: 1-based coordinates, then the value in ``repr`` form
    so that it reads back bit-exactly."""
    with open(path, "w") as fh:
        for col, val in zip((indices + 1).T.tolist(), values.tolist()):
            fh.write(" ".join(map(str, col)) + " " + repr(val) + "\n")


def read_tns(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """``(indices, values)`` of a file written by :func:`write_tns`; the
    extents are left for the reader to infer, as a ``.tns`` carries none."""
    data = np.loadtxt(path, dtype=np.float64, ndmin=2)
    return np.ascontiguousarray(data[:, :-1].astype(np.int64).T - 1), data[:, -1].copy()


def tns_paths(directory: str, names, nnz: int, seed: int) -> Dict[str, str]:
    """Write one ``<name>.tns`` per tensor under ``directory``."""
    paths = {}
    for name in names:
        indices, values, _ = make_tensor(name, nnz, seed)
        paths[name] = os.path.join(directory, f"{name}.tns")
        write_tns(paths[name], indices, values)
    return paths

"""Correctness checks, computed apart from the program.

Each check raises :class:`CheckFailed` with a one-line reason.  The
references are plain NumPy over the COO arrays the benchmark generated,
or properties CP-ALS must have; none compares against stored output.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

#: Relative Frobenius error allowed between an engine's MTTKRP and the
#: COO scatter-add (the largest seen on working code is about 3e-14).
MTTKRP_RTOL = 1e-9
#: Absolute gap allowed between the reported and the recomputed fit.
FIT_ATOL = 1e-8
#: Fit may drop by this much between iterations (rounding, not descent).
FIT_SLACK = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def coo_mttkrp(indices: np.ndarray, values: np.ndarray,
               factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
    """``M[i, r] = Σ_nz x · Π_{m≠mode} A_m[i_m, r]`` by scatter-add."""
    rows = np.repeat(values[:, None], factors[0].shape[1], axis=1)
    for m, factor in enumerate(factors):
        if m != mode:
            rows *= factor[indices[m]]
    out = np.zeros((factors[mode].shape[0], rows.shape[1]))
    np.add.at(out, indices[mode], rows)
    return out


def check_mttkrp(outputs: Sequence[Tuple[int, np.ndarray]],
                 indices: np.ndarray, values: np.ndarray,
                 factors: Sequence[np.ndarray]) -> None:
    """Every ``(mode, M)`` of one iteration matches the scatter-add."""
    if sorted(mode for mode, _ in outputs) != list(range(len(factors))):
        raise CheckFailed(f"MTTKRP modes {[m for m, _ in outputs]} do not "
                          f"cover all {len(factors)} modes")
    for mode, got in outputs:
        want = coo_mttkrp(indices, values, factors, mode)
        if got.shape != want.shape:
            raise CheckFailed(f"mode {mode} MTTKRP shape {got.shape}, "
                              f"expected {want.shape}")
        err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
        if not err <= MTTKRP_RTOL:
            raise CheckFailed(f"mode {mode} MTTKRP relative error {err:.3e} "
                              f"> {MTTKRP_RTOL:g}")


def recomputed_fit(indices: np.ndarray, values: np.ndarray,
                   weights: np.ndarray, factors: Sequence[np.ndarray]) -> float:
    """``1 - ‖X - M‖ / ‖X‖`` with ``‖X - M‖² = ‖X‖² - 2⟨X,M⟩ + λᵀ(⊛AᵀA)λ``."""
    x_sq = float(values @ values)
    rows = np.repeat(weights[None, :], values.shape[0], axis=0)
    for m, factor in enumerate(factors):
        rows *= factor[indices[m]]
    inner = float(values @ rows.sum(axis=1))
    gram = np.ones((weights.size, weights.size))
    for factor in factors:
        gram *= factor.T @ factor
    resid_sq = x_sq - 2.0 * inner + float(weights @ gram @ weights)
    return 1.0 - float(np.sqrt(max(0.0, resid_sq)) / np.sqrt(x_sq))


def check_fit(reported: float, indices: np.ndarray, values: np.ndarray,
              weights: np.ndarray, factors: Sequence[np.ndarray]) -> None:
    want = recomputed_fit(indices, values, weights, factors)
    if not abs(reported - want) <= FIT_ATOL:
        raise CheckFailed(f"reported fit {reported!r} differs from the "
                          f"recomputed {want!r} by more than {FIT_ATOL:g}")


def check_monotone(fits: Sequence[float], iterations: int) -> None:
    """One fit per iteration, finite, never decreasing beyond rounding."""
    if len(fits) != iterations:
        raise CheckFailed(f"{len(fits)} fits for {iterations} iterations")
    if not np.all(np.isfinite(fits)):
        raise CheckFailed(f"non-finite fit in {list(fits)}")
    for i in range(1, len(fits)):
        if fits[i] < fits[i - 1] - FIT_SLACK:
            raise CheckFailed(f"fit fell from {fits[i - 1]!r} to {fits[i]!r} "
                              f"at iteration {i + 1}")


def check_identical(got: Sequence[Tuple[int, np.ndarray]],
                    want: Sequence[Tuple[int, np.ndarray]], what: str) -> None:
    """Same modes in the same order, bit-identical arrays."""
    if [m for m, _ in got] != [m for m, _ in want]:
        raise CheckFailed(f"{what}: modes {[m for m, _ in got]} != "
                          f"{[m for m, _ in want]}")
    for (mode, a), (_, b) in zip(got, want):
        if a.shape != b.shape or a.dtype != b.dtype or not np.array_equal(a, b):
            raise CheckFailed(f"{what}: mode {mode} differs from the reference")


def check_equal_traffic(got: Dict[str, float], want: Dict[str, float],
                        what: str) -> None:
    if got != want:
        keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        raise CheckFailed(f"{what}: traffic differs on {keys}")


def check_served(job: dict, iterations: int, weights: np.ndarray,
                 factors: Sequence[np.ndarray]) -> None:
    """A served job is done, ran ``iterations`` iterations, and its model
    is bit-identical to a direct run on the same file."""
    if job.get("state") != "done":
        raise CheckFailed(f"job {job.get('job_id')} is {job.get('state')}: "
                          f"{job.get('error')}")
    result = job["result"]
    if result["iterations"] != iterations:
        raise CheckFailed(f"job {job['job_id']} ran {result['iterations']} "
                          f"iterations, asked for {iterations}")
    check_monotone(result["fits"], iterations)
    got = [(-1, np.asarray(result["weights"], dtype=np.float64))]
    got += [(m, np.asarray(f, dtype=np.float64))
            for m, f in enumerate(result["factors"])]
    want = [(-1, weights)] + list(enumerate(factors))
    check_identical(got, want, f"job {job['job_id']} model")

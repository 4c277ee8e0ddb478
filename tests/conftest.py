"""Shared fixtures and reference implementations for the test suite.

The float-GEMM reference (`reference_ld`) recomputes every LD quantity with
plain dense linear algebra — the ground truth every packed/blocked/popcount
path is checked against.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _isolated_run_registry(tmp_path, monkeypatch) -> None:
    """Point the cross-run registry at scratch: every ``ld --engine`` run
    appends a record, and tests must not write into ``~/.cache``."""
    monkeypatch.setenv("REPRO_RUNS_PATH", str(tmp_path / "runs.jsonl"))


@pytest.fixture
def instant_retries(monkeypatch) -> None:
    """Retry failed tiles at once: zero the engine's backoff base."""
    from repro.core import executors

    monkeypatch.setattr(executors, "RETRY_BACKOFF_BASE", 0.0)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test random generator."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_panel(rng: np.random.Generator) -> np.ndarray:
    """A small dense binary panel with awkward (non-multiple-of-64) sizes."""
    return rng.integers(0, 2, size=(137, 53)).astype(np.uint8)


@pytest.fixture
def tiny_panel(rng: np.random.Generator) -> np.ndarray:
    """A very small panel for the slow pure-Python reference paths."""
    return rng.integers(0, 2, size=(30, 12)).astype(np.uint8)


def reference_counts(dense: np.ndarray) -> np.ndarray:
    """Shared-derived-allele count matrix via float GEMM."""
    g = np.asarray(dense, dtype=np.float64)
    return np.rint(g.T @ g).astype(np.int64)


def reference_ld(dense: np.ndarray) -> dict[str, np.ndarray]:
    """All LD quantities via dense float linear algebra (ground truth)."""
    g = np.asarray(dense, dtype=np.float64)
    n = g.shape[0]
    h = (g.T @ g) / n
    p = g.mean(axis=0)
    d = h - np.outer(p, p)
    denom = np.outer(p * (1 - p), p * (1 - p))
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(denom > 0, d * d / denom, np.nan)
    return {"h": h, "p": p, "d": d, "r2": r2}


def reference_ld_cross(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    """Cross-matrix LD quantities via dense float linear algebra."""
    ga = np.asarray(a, dtype=np.float64)
    gb = np.asarray(b, dtype=np.float64)
    n = ga.shape[0]
    h = (ga.T @ gb) / n
    p = ga.mean(axis=0)
    q = gb.mean(axis=0)
    d = h - np.outer(p, q)
    denom = np.outer(p * (1 - p), q * (1 - q))
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(denom > 0, d * d / denom, np.nan)
    return {"h": h, "p": p, "q": q, "d": d, "r2": r2}


def assert_allclose_nan(actual: np.ndarray, expected: np.ndarray, **kw) -> None:
    """allclose that also requires NaN patterns to match."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    np.testing.assert_allclose(
        np.nan_to_num(actual), np.nan_to_num(expected), **kw
    )

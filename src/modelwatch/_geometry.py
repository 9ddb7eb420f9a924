"""Row geometry: the complete-matrix check, z-standardisation, squared
distances, row blocks, top-k selection, nearest rows and the PCA basis.

Two squared-distance forms: ``sq_dists`` expands |a|^2 + |b|^2 - 2 a.b into
one BLAS product, for the speed of ``nearest`` and energy/MMD;
``exact_sq_dists`` adds exact differences feature by feature, so LOF's and
k-means's bits do not depend on the BLAS and duplicate rows are exactly 0
apart (the expansion leaves up to ~6e-8 there on discrete data).

``row_blocks`` cuts the query rows into blocks of about ``_BLOCK_CELLS``
cells and ``top_k`` keeps the k best columns of each block row, with ties to
the lower column, so a k-nearest search never holds the full query x data
matrix. ``nearest`` and LOF use both, so their memory is O(block x n).

Kept with their callers on purpose: ``shift.mahalanobis``'s unfloored ridge
and pseudo-inverse fallback, and ``nn_match``'s Cholesky whitening with its
1e-12 ridge floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureFrame
from .errors import SchemaError


def complete_matrix(frame: FeatureFrame, what: str) -> np.ndarray:
    """The numeric matrix of ``frame``; no numeric column, or a NaN or ±inf
    cell, raises ``SchemaError`` naming ``what``."""
    X = frame.numeric_matrix()
    if X.shape[1] == 0:  # every distance would be 0: a clean result that means nothing
        raise SchemaError(f"{what} needs at least one numeric feature")
    if not np.isfinite(X).all():
        kind = "missing values; impute first" if np.isnan(X).any() else "infinite values"
        raise SchemaError(f"{what} requires a frame with no {kind}")
    return X


def standardize(ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and scales for ``(X - mean) / scale``: the population
    standard deviation, or 1 for a zero-variance column."""
    mean = ref.mean(axis=0)
    std = ref.std(axis=0)
    return mean, np.where(std > 0, std, 1.0)


_ADD_CELLS = 1 << 16  # cells of |a|^2 + |b|^2 formed at a time: 512 KB


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B, by the
    expansion |a|^2 + |b|^2 - 2 a.b, floored at 0 against rounding.

    The product's array is the only full-size one: |a|^2 + |b|^2 is formed
    a few rows at a time and added to -2 a.b, which gives the bits of
    (|a|^2 + |b|^2) - 2 a.b, since -y + x is x - y exactly. So a blocked
    pass frees one block-size array per block, not two, and the allocator
    keeps that memory for the next block instead of returning it."""
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    sq = A @ B.T
    sq *= -2.0
    step = max(1, _ADD_CELLS // max(len(B), 1))
    for start in range(0, len(A), step):
        sq[start : start + step] += aa[start : start + step] + bb
    return np.maximum(sq, 0.0, out=sq)


def exact_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B: exact
    differences, squared and added in feature order, which for up to 7
    features gives the bits of ``np.sum(diff ** 2, axis=-1)``. B's columns
    are read in place when B is Fortran-order, else from a transposed copy."""
    out = np.zeros((len(A), len(B)))
    diff = np.empty_like(out)
    for a, b in zip(A.T, np.ascontiguousarray(B.T)):
        np.subtract.outer(a, b, out=diff)
        diff *= diff
        out += diff
    return out


_BLOCK_CELLS = 1 << 20  # cells per query block: 8 MB of float64


def row_blocks(n: int, row_cells: int) -> list[tuple[int, int]]:
    """(start, stop) bounds of blocks over n rows of ``row_cells`` cells
    each: ``_BLOCK_CELLS // row_cells`` rows, at least 2, so an input of at
    most ``_BLOCK_CELLS`` cells is one block. A one-row remainder joins the
    block before it, since a one-row product takes the BLAS matrix-vector
    path."""
    step = max(2, _BLOCK_CELLS // max(row_cells, 1))
    bounds = [*range(0, max(n - 1, 1), step), n]
    return list(zip(bounds, bounds[1:]))


def top_k(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of ``dist``,
    smallest first: exactly ``np.argsort(dist, axis=1, kind="stable")[:, :k]``,
    so ties go to the lower column and NaN comes last.

    k = 1 takes the first minimum. k > 1 partitions to the k-th value; a
    row with exactly k entries at or below it stable-sorts just those, and
    a row with a tie at the k-th place or a NaN there is argsorted whole.
    """
    if k == 1:
        top = dist.argmin(axis=1)[:, None]  # the first minimum: the lower index
        # argmin stops at a NaN, which a stable argsort puts last
        for row in np.flatnonzero(np.isnan(np.take_along_axis(dist, top, axis=1)[:, 0])):
            top[row] = np.argsort(dist[row], kind="stable")[:1]
        return top
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    kept = dist <= kth  # no entry at all where the k-th value is NaN
    exact = np.count_nonzero(kept, axis=1) == k
    top = np.empty((len(dist), k), dtype=np.intp)
    cols = np.nonzero(kept[exact])[1].reshape(-1, k)  # ascending within each row
    order = np.argsort(np.take_along_axis(dist[exact], cols, axis=1), axis=1, kind="stable")
    top[exact] = np.take_along_axis(cols, order, axis=1)
    for row in np.flatnonzero(~exact):
        top[row] = np.argsort(dist[row], kind="stable")[:k]
    return top


def nearest(Zq: np.ndarray, Zd: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and Euclidean distances of the k nearest rows of Zd for each
    row of Zq, nearest first; ties go to the lower Zd index.

    Query rows are taken in ``row_blocks`` of len(Zd) cells a row, so memory
    is O(block x len(Zd)), and each block's picks come from ``top_k``.

    Bits: a block's distances equal the one-product kernel's only where the
    BLAS gives a cell the same bits whatever rows share its call. OpenBLAS
    0.3.31 on x86-64 does when len(Zd) is a multiple of its kernel width, 8;
    otherwise, beyond one block, the last len(Zd) % 8 columns can differ in
    the last bit (as they do with the BLAS thread count), which can change
    a reported distance and the pick between two rows that tie to rounding.
    """
    n = len(Zq)
    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k))
    for start, stop in row_blocks(n, len(Zd)):
        dist = sq_dists(Zq[start:stop], Zd)
        np.sqrt(dist, out=dist)
        top = top_k(dist, k)
        indices[start:stop] = top
        distances[start:stop] = np.take_along_axis(dist, top, axis=1)
    return indices, distances


@dataclass(frozen=True)
class PcaBasis:
    """Centered principal-component basis fitted on a reference matrix.

    ``components`` holds the retained components as rows, ordered by
    descending variance; ``variances`` are the matching per-component
    sample variances (ddof=1).
    """

    mean: np.ndarray
    components: np.ndarray
    variances: np.ndarray
    n_features: int

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return (X - self.mean) @ self.components.T

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        return self.transform(X) @ self.components + self.mean

    def reconstruction_errors(self, X: np.ndarray) -> np.ndarray:
        """Per-row squared Euclidean distance between X and its projection."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.sum((X - self.reconstruct(X)) ** 2, axis=1)


def fit_pca(X: np.ndarray, variance_fraction: float = 0.95) -> PcaBasis:
    """Fit a PCA basis retaining the smallest component count whose
    cumulative explained variance reaches ``variance_fraction``.

    Rank-deficient inputs retain all nonzero-variance components, never
    more. Component signs are fixed (largest-magnitude loading positive)
    so repeated fits are identical.
    """
    if not 0 < variance_fraction <= 1:
        raise ValueError("variance_fraction must be in (0, 1]")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = s**2 / max(n - 1, 1)

    nonzero = s > (s[0] * 1e-12 if s.size and s[0] > 0 else 0)
    n_nonzero = int(np.count_nonzero(nonzero))
    if n_nonzero == 0:
        # constant data: keep an empty basis, reconstruction is the mean
        return PcaBasis(mean=mean, components=np.empty((0, d)), variances=np.empty(0), n_features=d)

    total = variances[:n_nonzero].sum()
    cumulative = np.cumsum(variances[:n_nonzero]) / total
    k = int(np.searchsorted(cumulative, variance_fraction - 1e-12) + 1)
    k = min(k, n_nonzero)

    components = vt[:k].copy()
    # sign convention: largest-magnitude loading of each component positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1
    return PcaBasis(
        mean=mean, components=components, variances=variances[:k].copy(), n_features=d
    )

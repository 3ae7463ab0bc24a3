"""Simplex equiangular tight frames and angle statistics.

The classifier geometry used throughout this package: C unit vectors in
d >= C dimensions whose pairwise inner products all equal -1/(C-1). A frame
is built from a seeded random rotation so runs are reproducible, and scaled
by sqrt(E_W) to form the (fixed) classifier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "OrthoMatrix",
    "random_rotation",
    "make_etf",
    "mean_pairwise_angle",
]


def _frozen(a, dtype=np.float64) -> np.ndarray:
    """Own a copy of `a` as `dtype` and make it read-only."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OrthoMatrix:
    """Column-orthonormal d x C matrix (a rotation onto a C-dim subspace)."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))
        if self.entries.ndim != 2:
            raise ValueError("rotation must be a 2-D matrix")
        d, c = self.entries.shape
        if d < c:
            raise ValueError(f"orthonormal columns need d >= C, got d={d}, C={c}")
        gram = self.entries.T @ self.entries
        if np.max(np.abs(gram - np.eye(c))) > 1e-9:
            raise ValueError("matrix columns are not orthonormal (tol 1e-9)")

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def n_classes(self) -> int:
        return self.entries.shape[1]


def random_rotation(d: int, n_classes: int, seed) -> OrthoMatrix:
    """Seeded column-orthonormal d x C matrix.

    Draws a d x C standard-normal matrix, orthonormalizes its columns in index
    order, then fixes each column's sign so its first nonzero entry is
    positive. Deterministic for a fixed seed.
    """
    d = int(d)
    c = int(n_classes)
    if d < 1 or c < 1:
        raise ValueError(f"dimensions must be positive, got d={d}, C={c}")
    if d < c:
        raise ValueError(f"rotation needs d >= C, got d={d}, C={c}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((d, c))
    q, _ = np.linalg.qr(gauss)  # reduced QR == Gram-Schmidt on columns in order
    for j in range(c):
        nz = np.nonzero(q[:, j])[0]
        if nz.size and q[nz[0], j] < 0:
            q[:, j] = -q[:, j]
    return OrthoMatrix(entries=q)


def make_etf(d: int, n_classes: int, seed, e_w: float = 1.0) -> np.ndarray:
    """The d x C classifier sqrt(e_w) * m of the simplex frame
    m = sqrt(C/(C-1)) * U (I - 11^T/C).

    The columns of m are unit vectors summing to zero with pairwise inner
    products -1/(C-1); e_w = 1 gives m itself. diagnostics.verify_etf
    measures how far a matrix deviates from these identities.
    """
    c = int(n_classes)
    if c < 2:
        raise ValueError(f"invalid class count: need C >= 2, got C={c}")
    if not e_w > 0:
        raise ValueError(f"e_w must be positive, got {e_w}")
    u = random_rotation(d, c, seed)
    centering = np.eye(c) - np.full((c, c), 1.0 / c)
    m = math.sqrt(c / (c - 1.0)) * (u.entries @ centering)
    return math.sqrt(float(e_w)) * m


def mean_pairwise_angle(vectors, index_subset=None) -> float:
    """Mean angle in degrees over all unordered pairs of the selected vectors.

    `vectors` is an iterable of equal-length vectors (or an n x d array);
    `index_subset` selects rows (default: all). Cosines are clamped to
    [-1, 1] before arccos to absorb floating-point overshoot.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        v = np.atleast_2d(v)
    if index_subset is None:
        idx = list(range(v.shape[0]))
    else:
        idx = sorted(int(i) for i in index_subset)
    if len(idx) < 2:
        raise ValueError(f"insufficient vectors: need >= 2, got {len(idx)}")
    sub = v[idx]
    norms = np.linalg.norm(sub, axis=1)
    if np.any(norms == 0.0):
        bad = idx[int(np.argmin(norms))]
        raise ValueError(f"degenerate vector: index {bad} has zero norm")
    unit = sub / norms[:, None]
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    pairs = [cos[i, j] for i, j in combinations(range(len(idx)), 2)]
    return float(np.degrees(np.arccos(pairs)).mean())

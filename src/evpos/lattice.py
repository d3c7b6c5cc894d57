"""Finite-dimensional vector-lattice primitives.

The ambient space is R^n with the entrywise order.  Vectors and operators
are plain numpy arrays; closed ideals are coordinate masks; the principal
ideal of a nonnegative vector h carries the gauge norm, the least c with
|f| <= c*h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInIdeal

__all__ = [
    "as_vector",
    "as_matrix",
    "IdealMask",
    "GaugeContext",
    "gauge_norm",
]


def as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a 1-d vector with at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def as_matrix(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError("expected a square matrix")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class IdealMask:
    """Coordinate mask standing for the closed ideal span{e_i : i in members}."""

    members: frozenset
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        members = frozenset(int(i) for i in self.members)
        if any(i < 0 or i >= self.dim for i in members):
            raise ValueError("mask indices out of range")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, indices, dim: int) -> "IdealMask":
        return cls(frozenset(indices), dim)

    @classmethod
    def empty(cls, dim: int) -> "IdealMask":
        return cls(frozenset(), dim)

    @classmethod
    def full(cls, dim: int) -> "IdealMask":
        return cls(frozenset(range(dim)), dim)

    def complement(self) -> "IdealMask":
        return IdealMask(frozenset(range(self.dim)) - self.members, self.dim)

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.dim

    @property
    def is_trivial(self) -> bool:
        return self.is_empty or self.is_full

    def indicator(self) -> np.ndarray:
        v = np.zeros(self.dim)
        v[self.sorted_members()] = 1.0
        return v

    def sorted_members(self) -> list:
        return sorted(self.members)

    def __contains__(self, i) -> bool:
        return int(i) in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class GaugeContext:
    """A gauge vector h >= 0 together with its exact support mask."""

    h: np.ndarray
    support: IdealMask

    @classmethod
    def from_vector(cls, h) -> "GaugeContext":
        h = as_vector(h)
        if np.min(h) < 0:
            raise ValueError("gauge vector must be entrywise >= 0")
        support = IdealMask.of(np.flatnonzero(h > 0.0), h.size)
        return cls(h=h, support=support)


def gauge_norm(f, ctx: GaugeContext, tol: float = 0.0) -> float:
    """Least c >= 0 with |f| <= c*h on the support of h.

    Entries of f outside the support of h must vanish; `tol` is the
    membership slack for floating-point pipelines (default exact).
    Raises NotInIdeal otherwise.  Indices outside the support contribute
    nothing (no 0/0).
    """
    f = as_vector(f)
    h = ctx.h
    if f.size != h.size:
        raise ValueError("dimension mismatch")
    outside = h <= 0.0
    if outside.any():
        bad = np.abs(f[outside]) > tol
        if bad.any():
            idx = np.flatnonzero(outside)[np.argmax(bad)]
            raise NotInIdeal(
                f"entry {int(idx)} is {f[idx]:.3e} but the gauge vector vanishes there"
            )
    inside = ~outside
    if not inside.any():
        return 0.0
    return float(np.max(np.abs(f[inside]) / h[inside], initial=0.0))

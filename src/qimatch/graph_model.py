"""Labeled-graph image representation and the two pairwise similarity measures.

An image is a list of interest points (position, scale, orientation, unit
descriptor).  Feature similarity is the descriptor scalar product; geometric
similarity compares the relative pose of two point pairs after factoring out
global translation, rotation and uniform scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError

TWO_PI = 2.0 * math.pi

# Renormalizing an already-unit vector must be a bit-level no-op so that
# serialized graphs round-trip exactly.
_UNIT_NORM_TOL = 1e-12


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi).  Idempotent: in-range values pass through."""
    if -math.pi <= theta < math.pi:
        return theta
    w = (theta + math.pi) % TWO_PI - math.pi
    if w >= math.pi:  # float modulo can land exactly on 2*pi
        w -= TWO_PI
    return w


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle applied elementwise: in-range values pass through, the rest
    take the same modulo and fix-up."""
    w = theta.flatten()
    out = np.flatnonzero((w < -math.pi) | (w >= math.pi))
    v = (w[out] + math.pi) % TWO_PI - math.pi
    w[out] = np.where(v >= math.pi, v - TWO_PI, v)
    return w.reshape(theta.shape)


@dataclass(frozen=True)
class InterestPoint:
    """One salient image location: position, scale, orientation, descriptor."""

    x: float
    y: float
    scale: float
    orientation: float
    descriptor: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "scale", "orientation"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        desc = np.asarray(self.descriptor, dtype=float)
        if desc.ndim != 1 or desc.size == 0:
            raise ValueError("descriptor must be a non-empty 1-d vector")
        norm = float(np.linalg.norm(desc))
        if not math.isfinite(norm):  # any NaN or infinite entry lands here
            raise ValueError(f"descriptor norm is {norm}; entries must be finite")
        if norm == 0.0:
            raise ValueError("zero-norm descriptor rejected (broken detector?)")
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            desc = desc / norm
        else:
            desc = desc.copy()
        desc.setflags(write=False)
        object.__setattr__(self, "descriptor", desc)
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))


@dataclass(frozen=True)
class GeomRelation:
    """Similarity-invariant relative pose of an ordered point pair.

    All components are anchored at the first point: distance is measured in
    units of its scale, the bearing relative to its orientation.
    """

    log_dist: float
    bearing: float
    log_scale_ratio: float
    d_orient: float

    def __post_init__(self):
        object.__setattr__(self, "bearing", wrap_angle(float(self.bearing)))
        object.__setattr__(self, "d_orient", wrap_angle(float(self.d_orient)))


@dataclass(frozen=True)
class ImageGraph:
    """Ordered interest points of one image plus a provenance label."""

    points: tuple[InterestPoint, ...]
    id: str = ""

    def __post_init__(self):
        pts = tuple(self.points)
        dims = {p.descriptor.shape[0] for p in pts}
        if len(dims) > 1:
            raise ValueError(f"mixed descriptor dimensions in graph: {sorted(dims)}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def descriptor_dim(self) -> int | None:
        return self.points[0].descriptor.shape[0] if self.points else None


@dataclass(frozen=True)
class GeomWeights:
    """Weights of the geometric residual norm and its saturation scale r0."""

    w_dist: float = 1.0
    w_bearing: float = 1.0
    w_scale: float = 1.0
    w_orient: float = 1.0
    r0: float = 1.0

    def __post_init__(self):
        ws = (self.w_dist, self.w_bearing, self.w_scale, self.w_orient)
        if not all(0 <= w < math.inf for w in ws):
            raise ValueError("geometric weights must be finite and nonnegative")
        if not any(w > 0 for w in ws):
            raise ValueError("at least one geometric weight must be positive")
        if not 0 < self.r0 < math.inf:
            raise ValueError("r0 must be finite and positive")


def geom_relation(a: InterestPoint, b: InterestPoint) -> GeomRelation:
    """Relative pose of b as seen from a, invariant to global similarity transforms."""
    dx = b.x - a.x
    dy = b.y - a.y
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        raise DegenerateGeometryError(
            f"coincident points at ({a.x}, {a.y}); relative pose undefined"
        )
    return GeomRelation(
        log_dist=math.log(dist / a.scale),
        bearing=math.atan2(dy, dx) - a.orientation,
        log_scale_ratio=math.log(b.scale / a.scale),
        d_orient=b.orientation - a.orientation,
    )


def d_feat(f1: np.ndarray, f2: np.ndarray) -> float:
    """Scalar product of two unit descriptors; lies in [-1, 1]."""
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != f2.shape:
        raise ValueError(f"descriptor dimension mismatch: {f1.shape} vs {f2.shape}")
    return float(np.dot(f1, f2))


def d_geom(g1: GeomRelation, g2: GeomRelation, w: GeomWeights = GeomWeights()) -> float:
    """Geometric consistency of two relative poses, mapped into [-1, 1].

    1 - 2*r/r0 where r is the weighted residual norm, clamped at -1; equals 1
    exactly when the two relations agree component-wise.
    """
    d_ld = g1.log_dist - g2.log_dist
    d_b = wrap_angle(g1.bearing - g2.bearing)
    d_ls = g1.log_scale_ratio - g2.log_scale_ratio
    d_o = wrap_angle(g1.d_orient - g2.d_orient)
    r = math.sqrt(
        w.w_dist * d_ld * d_ld
        + w.w_bearing * d_b * d_b
        + w.w_scale * d_ls * d_ls
        + w.w_orient * d_o * d_o
    )
    return max(-1.0, 1.0 - 2.0 * r / w.r0)

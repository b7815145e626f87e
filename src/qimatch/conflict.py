"""Conflict graph construction from two image graphs.

Vertices are candidate matches admitted by feature similarity (largest first,
capped globally); edges mark pairs of matches that cannot coexist, either
because they reuse a point or because their relative geometry disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError
from .graph_model import GeomWeights, ImageGraph, d_geom, geom_relation


@dataclass(frozen=True)
class MatchCandidate:
    """Pairing of point i in the first graph with point alpha in the second."""

    i: int
    alpha: int
    d: float  # feature similarity, in [-1, 1]


@dataclass(frozen=True)
class MatchParams:
    t_feat: float = 0.8
    t_geom: float = 0.0
    limit_l: int = 512
    geom_weights: GeomWeights = field(default_factory=GeomWeights)

    def __post_init__(self):
        if not -1.0 <= self.t_feat < 1.0:
            raise ValueError("t_feat must lie in [-1, 1)")
        if not -1.0 <= self.t_geom < 1.0:
            raise ValueError("t_geom must lie in [-1, 1)")
        if self.limit_l < 1:
            raise ValueError("limit_l must be >= 1")


@dataclass(frozen=True, eq=False)
class ConflictGraph:
    """Candidate matches plus conflict edges; independent sets are valid matchings."""

    vertices: tuple[MatchCandidate, ...]
    adjacency: np.ndarray  # symmetric n x n bool, false diagonal; kept as a read-only copy
    params: MatchParams

    def __post_init__(self):
        n = len(self.vertices)
        if n > self.params.limit_l:
            raise ValueError(f"{n} vertices exceed the cap {self.params.limit_l}")
        adj = np.array(self.adjacency, dtype=bool)
        if adj.shape != (n, n) or not np.array_equal(adj, adj.T) or adj.diagonal().any():
            raise ValueError(f"adjacency must be symmetric {n}x{n} with a false diagonal")
        # matches sharing an endpoint must always conflict
        i = np.array([c.i for c in self.vertices])
        a = np.array([c.alpha for c in self.vertices])
        missing = np.argwhere(np.triu((i[:, None] == i) | (a[:, None] == a), 1) & ~adj)
        if missing.size:
            raise ValueError(f"missing shared-endpoint edge {tuple(missing[0].tolist())}")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Conflict edges as pairs (u, v) with u < v."""
        u, v = np.nonzero(np.triu(self.adjacency, 1))
        return frozenset(zip(u.tolist(), v.tolist()))


def generate_candidates(
    g1: ImageGraph, g2: ImageGraph, p: MatchParams
) -> list[MatchCandidate]:
    """Score all cross-graph point pairs and keep the best by feature similarity.

    Pairs with similarity strictly above t_feat are sorted descending
    (ties by (i, alpha) ascending) and truncated to limit_l.
    """
    if not g1.points or not g2.points:
        return []
    if g1.descriptor_dim != g2.descriptor_dim:
        raise ValueError(
            f"descriptor dimension mismatch: {g1.descriptor_dim} vs {g2.descriptor_dim}"
        )
    f1 = np.array([pt.descriptor for pt in g1.points])
    f2 = np.array([pt.descriptor for pt in g2.points])
    sim = f1 @ f2.T
    rows, cols = np.nonzero(sim > p.t_feat)
    scores = sim[rows, cols]
    top = np.lexsort((cols, rows, -scores))[: p.limit_l]
    return [
        MatchCandidate(i=i, alpha=a, d=d)
        for i, a, d in zip(rows[top].tolist(), cols[top].tolist(), scores[top].tolist())
    ]


def build_conflict_graph(
    g1: ImageGraph,
    g2: ImageGraph,
    candidates: list[MatchCandidate],
    p: MatchParams,
) -> ConflictGraph:
    """Draw conflict edges between candidate matches.

    Rule 1: two candidates sharing a point in either image conflict.
    Rule 2: otherwise they conflict iff the geometric consistency of the two
    point pairs falls strictly below t_geom.  Pairs are oriented by the
    first-graph index so the anchored relative-pose form is well defined.
    """
    rel_cache_1: dict[tuple[int, int], object] = {}
    rel_cache_2: dict[tuple[int, int], object] = {}

    def rel(g, cache, a, b, which):
        key = (a, b)
        r = cache.get(key)
        if r is None:
            try:
                r = geom_relation(g.points[a], g.points[b])
            except DegenerateGeometryError as exc:
                raise DegenerateGeometryError(
                    f"coincident points {a} and {b} in {which} "
                    f"(graph '{g.id}') referenced by candidates"
                ) from exc
            cache[key] = r
        return r

    n = len(candidates)
    adj = np.zeros((n, n), dtype=bool)  # upper triangle, mirrored at the end
    for u in range(n):
        cu = candidates[u]
        for v in range(u + 1, n):
            cv = candidates[v]
            if cu.i == cv.i or cu.alpha == cv.alpha:
                adj[u, v] = True
                continue
            if cu.i < cv.i:
                i, j, a, b = cu.i, cv.i, cu.alpha, cv.alpha
            else:
                i, j, a, b = cv.i, cu.i, cv.alpha, cu.alpha
            r1 = rel(g1, rel_cache_1, i, j, "first image")
            r2 = rel(g2, rel_cache_2, a, b, "second image")
            if d_geom(r1, r2, p.geom_weights) < p.t_geom:
                adj[u, v] = True
    return ConflictGraph(vertices=tuple(candidates), adjacency=adj | adj.T, params=p)

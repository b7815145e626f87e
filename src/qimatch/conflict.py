"""Conflict graph construction from two image graphs.

Vertices are candidate matches admitted by feature similarity (largest first,
capped globally); edges mark pairs of matches that cannot coexist, either
because they reuse a point or because their relative geometry disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError
from .graph_model import GeomWeights, ImageGraph, wrap_angles


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


def _pose_tables(g: ImageGraph, idx: np.ndarray) -> list[np.ndarray]:
    """Relative pose of every ordered pair (a, b) of the m points idx of g,
    anchored at a, as tables flattened at a * m + b: geom_relation's log
    distance (in units of a's scale), bearing, log scale ratio and
    orientation difference."""
    pts = [g.points[k] for k in idx.tolist()]
    x, y, s, o = np.array([(q.x, q.y, q.scale, q.orientation) for q in pts]).reshape(-1, 4).T
    dx, dy = x - x[:, None], y - y[:, None]
    # -inf where the distance is 0 (the diagonal too); a rule-2 pair on one raises
    log_dist = np.log(np.hypot(dx, dy) / s[:, None])
    bearing = wrap_angles(np.arctan2(dy, dx) - o[:, None])
    rel = (log_dist, bearing, np.log(s / s[:, None]), wrap_angles(o - o[:, None]))
    return [r.ravel() for r in rel]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # huge or coincident points
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
    ci, ca = np.array([(c.i, c.alpha) for c in candidates], dtype=np.intp).reshape(-1, 2).T
    adj = (ci[:, None] == ci) | (ca[:, None] == ca)
    np.fill_diagonal(adj, False)
    s, t = np.nonzero(np.triu(~adj, 1))  # rule-2 pairs, in (u, v) loop order
    swap = ci[s] > ci[t]
    s[swap], t[swap] = t[swap], s[swap]  # anchor s has the smaller first-graph index
    sides = ((g1, ci, "first image"), (g2, ca, "second image"))
    tables, flat = [], []  # per image: pose tables, and each pair's entry in them
    for g, idx, _ in sides:
        pts, inv = np.unique(idx, return_inverse=True)
        tables.append(_pose_tables(g, pts))
        flat.append(inv[s] * len(pts) + inv[t])
    coincident = [tab[0][f] == -np.inf for tab, f in zip(tables, flat)]
    bad = np.flatnonzero(coincident[0] | coincident[1])
    if bad.size:  # the first pair in loop order; there the first image wins
        k = bad[0]
        g, idx, which = sides[0] if coincident[0][k] else sides[1]
        raise DegenerateGeometryError(
            f"coincident points {idx[s[k]]} and {idx[t[k]]} in {which} "
            f"(graph '{g.id}') referenced by candidates"
        )
    # d_geom's residual, term by term in its order
    w = p.geom_weights
    r2 = np.zeros(len(s))
    for k, wk in enumerate((w.w_dist, w.w_bearing, w.w_scale, w.w_orient)):
        d = tables[0][k][flat[0]] - tables[1][k][flat[1]]
        if k in (1, 3):  # bearing and orientation differences are angles
            d = wrap_angles(d)
        r2 += wk * d * d
    d = 1.0 - 2.0 * np.sqrt(r2) / w.r0
    hit = np.where(d > -1.0, d, -1.0) < p.t_geom  # max(-1, d) < t_geom, as d_geom clamps
    adj[s[hit], t[hit]] = True
    return ConflictGraph(vertices=tuple(candidates), adjacency=adj | adj.T, params=p)

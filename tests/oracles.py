"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately avoid the library's solvers and encoders: independence
and energies are enumerated over every bit pattern, one vertex at a time,
straight from the edge list and the QUBO terms.
"""

from __future__ import annotations

import math

import numpy as np

from qimatch.conflict import (
    ConflictGraph,
    MatchCandidate,
    MatchParams,
    build_conflict_graph,
    generate_candidates,
)
from qimatch.detector import DetectorParams, RasterImage, log_response
from qimatch.errors import DegenerateGeometryError
from qimatch.graph_model import ImageGraph, d_geom, geom_relation
from qimatch.qubo import Assignment, QuboInstance, energy
from qimatch.rng import Xorshift64Star, derive_seed
from qimatch.solvers import AnnealSchedule, SolveResult, SolveStats, _cover_and_branch


def randrange(rng: Xorshift64Star, n: int) -> int:
    """Integer in [0, n) from one draw of rng, by the multiply-shift reduction."""
    if n <= 0:
        raise ValueError("n must be positive")
    return (rng.next_u64() * n) >> 64


def graph_from_edges(vertices, edges, params: MatchParams) -> ConflictGraph:
    """ConflictGraph over vertices whose conflict edges are the pairs in edges."""
    adj = np.zeros((len(vertices), len(vertices)), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return ConflictGraph(vertices=tuple(vertices), adjacency=adj, params=params)


def make_gc(n: int, edges) -> ConflictGraph:
    """n vertices pairing distinct points, so any edge list is allowed."""
    vertices = tuple(MatchCandidate(i=k, alpha=k, d=1.0) for k in range(n))
    return graph_from_edges(vertices, edges, MatchParams(limit_l=max(n, 1)))


def random_conflict_graph(rng: Xorshift64Star, n: int, density: float) -> ConflictGraph:
    """Random graph wrapped as a ConflictGraph; every vertex pairs distinct
    points so no shared-endpoint edge is forced."""
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < density:
                edges.add((u, v))
    return make_gc(n, edges)


def random_bank():
    """Criterion 3's bank: 100 random conflict graphs of 5-20 vertices and
    density 0.1-0.9, the same graphs on every call."""
    rng = Xorshift64Star(20260824)
    for _ in range(100):
        n = 5 + randrange(rng, 16)
        density = 0.1 + 0.8 * rng.uniform()
        yield random_conflict_graph(rng, n, density)


def conflict_adjacency(
    g1: ImageGraph, g2: ImageGraph, candidates: list[MatchCandidate], p: MatchParams
) -> np.ndarray:
    """Conflict edges of build_conflict_graph, one candidate pair at a time
    with the scalar geom_relation and d_geom: rule 1 for a shared point,
    else rule 2 on the pair oriented by first-graph index."""
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
    return adj | adj.T


def adjacency(gc: ConflictGraph) -> list[set[int]]:
    """Neighbor set of every vertex, straight from the edge list."""
    adj = [set() for _ in range(gc.n)]
    for u, v in gc.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def first_fit_clique_count(p_mask: int, adj: list[int]) -> int:
    """Cliques in the first-fit partition of the vertices in p_mask: in
    ascending order, each vertex joins the first clique whose every member it
    is adjacent to (adj[v] is v's neighbor bitmask), else opens a new one."""
    cliques: list[int] = []
    m = p_mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        for idx, c in enumerate(cliques):
            if c & ~adj[v] == 0:
                cliques[idx] = c | (1 << v)
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


def max_degree_vertex(p_mask: int, adj: list[int]) -> int:
    """The vertex of p_mask with the most neighbors in p_mask, the lowest
    index among equals, found by scanning vertices in index order; -1 if
    p_mask is empty."""
    best, best_deg = -1, -1
    for v in range(p_mask.bit_length()):
        if (p_mask >> v) & 1:
            deg = bin(adj[v] & p_mask).count("1")
            if deg > best_deg:
                best, best_deg = v, deg
    return best


def scarce_vertices(p_mask: int, adj: list[int], need: int) -> int:
    """Mask of the vertices of p_mask with fewer than `need` non-neighbours in
    p_mask, counted one vertex pair at a time."""
    members = [v for v in range(p_mask.bit_length()) if (p_mask >> v) & 1]
    out = 0
    for v in members:
        free = sum(1 for u in members if u != v and not (adj[v] >> u) & 1)
        if free < need:
            out |= 1 << v
    return out


def greedy_min_degree_set(n: int, edges) -> set[int]:
    """Greedy independent set: the vertex with the fewest neighbours among the
    remaining ones, the lowest index among equals, is taken, and it and its
    neighbours are removed, until no vertex remains."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    remaining = set(range(n))
    chosen = set()
    while remaining:
        v = min(remaining, key=lambda u: (len(nbrs[u] & remaining), u))
        chosen.add(v)
        remaining -= nbrs[v] | {v}
    return chosen


def reference_bnb(gc: ConflictGraph) -> tuple[set[int], bool]:
    """solve_mis_bnb before its greedy incumbent and its peeling: the search
    starts from the empty set and prunes with the clique-cover bound alone."""
    n = gc.n
    rows = np.packbits(gc.adjacency, axis=1, bitorder="little")
    adj = [int.from_bytes(row.tobytes(), "little") for row in rows]

    best_mask = 0
    best_size = 0
    # (selected, size, residual candidates); the top is expanded next
    stack = [(0, 0, (1 << n) - 1)]
    while stack:
        cur_mask, cur_size, p_mask = stack.pop()
        if p_mask == 0:
            if cur_size > best_size:
                best_size = cur_size
                best_mask = cur_mask
            continue
        cliques, v, _ = _cover_and_branch(p_mask, adj, 0)  # need 0 peels nothing
        if cur_size + cliques <= best_size:
            continue
        # exclude pushed first so the include branch is searched first
        stack.append((cur_mask, cur_size, p_mask & ~(1 << v)))
        stack.append((cur_mask | (1 << v), cur_size + 1, p_mask & ~(adj[v] | (1 << v))))
    return {k for k in range(n) if (best_mask >> k) & 1}, True


def local_field(q: QuboInstance, x: Assignment, k: int) -> float:
    """Energy gained by setting bit k (given the other bits); flipping bit k
    changes the energy by +field if the bit turns on, -field if it turns off."""
    bits = x.bits
    f = q.terms.get((k, k), 0.0)
    for (i, j), v in q.terms.items():
        if i == j:
            continue
        if i == k and bits[j]:
            f += v
        elif j == k and bits[i]:
            f += v
    return f


def _popcount(arr: np.ndarray) -> np.ndarray:
    counts = np.zeros(arr.shape, dtype=np.int64)
    a = arr.copy()
    while a.any():
        counts += a & 1
        a >>= 1
    return counts


def independent_masks(n: int, edges) -> np.ndarray:
    """All bitmasks over n vertices whose support is an independent set, in
    ascending order.  Built one vertex at a time: a mask whose highest bit is
    v is independent when the mask without v is and holds no neighbour of v."""
    lower = [0] * n  # neighbours of v below v, as a bitmask
    for u, v in edges:
        lower[max(u, v)] |= 1 << min(u, v)
    ok = np.ones(1, dtype=bool)
    for v in range(n):
        idx = np.arange(1 << v, dtype=np.int64)
        ok = np.concatenate((ok, ok & ((idx & lower[v]) == 0)))
    return np.flatnonzero(ok)


def brute_force_mis(n: int, edges) -> tuple[int, set[int]]:
    """(MIS size, set of all maximum independent sets as bitmasks)."""
    masks = independent_masks(n, edges)
    sizes = _popcount(masks)
    best = int(sizes.max()) if masks.size else 0
    return best, set(int(m) for m in masks[sizes == best])


def maximum_matchings(g1: ImageGraph, g2: ImageGraph, p: MatchParams) -> set[frozenset]:
    """Every maximum independent set of the pair's conflict graph, as a set of
    (i, alpha) pairs, by brute force: a bnb match must be one of them, and
    which one follows the solver's tie rule."""
    gc = build_conflict_graph(g1, g2, generate_candidates(g1, g2, p), p)
    _, masks = brute_force_mis(gc.n, gc.edges)
    return {
        frozenset((c.i, c.alpha) for k, c in enumerate(gc.vertices) if (m >> k) & 1)
        for m in masks
    }


def enumerate_energies(n: int, terms) -> np.ndarray:
    """Energy of every assignment, indexed by the little-endian bit pattern.
    Built one variable at a time: setting bit v on top of the lower bits adds
    its diagonal term and its coupling to each lower bit that is set."""
    coef = np.zeros((n, n))
    for (i, j), v in terms.items():
        coef[min(i, j), max(i, j)] += v
    e = np.zeros(1)
    for v in range(n):
        gain = np.full(1, coef[v, v])  # indexed by the pattern of bits below v
        for u in range(v):
            gain = np.concatenate((gain, gain + coef[u, v]))
        e = np.concatenate((e, e + gain))
    return e


def min_energy_masks(n: int, terms) -> tuple[float, set[int]]:
    e = enumerate_energies(n, terms)
    emin = float(e.min())
    return emin, set(int(m) for m in np.nonzero(e == emin)[0])


def reference_sa(q: QuboInstance, s: AnnealSchedule) -> SolveResult:
    """solve_sa's annealing one Metropolis step at a time: a uniform() call
    per step, each coupling multiplied by the sign of the flip, and the steps
    counted as the loop takes them."""
    n = q.n
    diag = [0.0] * n
    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), v in q.terms.items():
        if i == j:
            diag[i] = v
        else:
            neighbors[i].append((j, v))
            neighbors[j].append((i, v))
    best_bits = [0] * n
    best_e = 0.0
    steps = 0
    for r in range(s.restarts):
        rng = Xorshift64Star(derive_seed(s.seed, r))
        x = [0] * n
        h = diag.copy()
        e = 0.0
        for beta in s.betas():
            for k in range(n):
                steps += 1
                d_e = h[k] if x[k] == 0 else -h[k]
                u = rng.uniform()
                if d_e <= 0.0 or u < math.exp(-beta * d_e):
                    sign = 1 - 2 * x[k]  # +1 turning on, -1 turning off
                    x[k] ^= 1
                    e += d_e
                    for j, v in neighbors[k]:
                        h[j] += sign * v
                    if e < best_e:
                        best_e = e
                        best_bits = x.copy()
    best = Assignment(bits=tuple(best_bits))
    return SolveResult(
        best=best,
        best_energy=energy(q, best),
        proven_optimal=False,
        stats=SolveStats(evaluations=steps),
    )


def pgm_tokens(data: bytes):
    """Yield (token, end_offset) for the PGM header lexer, byte by byte:
    tokens are runs of bytes other than space, tab, CR, LF and '#'; a '#'
    starts a comment that runs up to the next CR or LF."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c in b" \t\r\n":
            i += 1
        elif c == b"#":
            while i < n and data[i : i + 1] not in b"\r\n":
                i += 1
        else:
            j = i
            while j < n and data[j : j + 1] not in b" \t\r\n#":
                j += 1
            yield data[i:j], j
            i = j


def ranked_extrema(img: RasterImage, p: DetectorParams) -> list[tuple[int, int, int]]:
    """(k, y, x) of the extrema detect describes, in its order: strict
    extrema against all 26 neighbours of the log_response stack, off the
    outermost pixel frame and scale layers, with |response| above the
    threshold; sorted by (-|response|, k, y, x), the first at each pixel
    kept, cut to max_points."""
    stack = [log_response(img, s).tolist() for s in p.sigmas]
    offsets = [
        (dk, dy, dx)
        for dk in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dk, dy, dx) != (0, 0, 0)
    ]
    found = []
    for k in range(1, len(stack) - 1):
        for y in range(1, img.pixels.shape[0] - 1):
            for x in range(1, img.pixels.shape[1] - 1):
                r = stack[k][y][x]
                nbs = [stack[k + dk][y + dy][x + dx] for dk, dy, dx in offsets]
                if abs(r) > p.response_threshold and (
                    all(r > v for v in nbs) or all(r < v for v in nbs)
                ):
                    found.append((-abs(r), k, y, x))
    found.sort()
    seen = set()
    out = []
    for _, k, y, x in found:
        if (y, x) not in seen:
            seen.add((y, x))
            out.append((k, y, x))
    return out[: p.max_points]

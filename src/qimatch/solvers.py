"""QUBO and MIS solvers: exhaustive enumeration, branch and bound, and
simulated annealing as the heuristic stand-in for annealing hardware."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conflict import ConflictGraph
from .errors import require_ints
from .qubo import Assignment, QuboInstance, energy
from .rng import Xorshift64Star, derive_seed

EXACT_LIMIT = 25  # enumeration guard: 2^25 assignments
BETA_INITIAL, BETA_FINAL = 0.1, 10.0  # SA's beta ramp; the default schedule is sized at it


@dataclass(frozen=True)
class SolveStats:
    evaluations: int


@dataclass(frozen=True)
class SolveResult:
    best: Assignment
    best_energy: float
    proven_optimal: bool
    stats: SolveStats


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric inverse-temperature ramp, repeated over independent restarts.

    The default sweeps and restarts are sized by time to solution with
    scripts/sa_schedule_tts.py: the fewest sweeps in total whose predicted
    chance of missing the optimum is at most 1e-4 on every shape measured.
    """

    sweeps: int = 25
    restarts: int = 34
    seed: int = 0

    def __post_init__(self):
        require_ints(self, "sweeps", "restarts", "seed")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    def betas(self) -> list[float]:
        ratio = BETA_FINAL / BETA_INITIAL
        span = max(1, self.sweeps - 1)
        return [BETA_INITIAL * ratio ** (t / span) for t in range(self.sweeps)]


def _adjacency(q: QuboInstance) -> tuple[list[float], list[list[tuple[int, float]]]]:
    """Diagonal coefficients and off-diagonal neighbor lists."""
    diag = [0.0] * q.n
    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(q.n)]
    for (i, j), v in q.terms.items():
        if i == j:
            diag[i] = v
        else:
            neighbors[i].append((j, v))
            neighbors[j].append((i, v))
    return diag, neighbors


def solve_exact(q: QuboInstance) -> SolveResult:
    """Enumerate all 2^n assignments; ties break toward the assignment whose
    bits, read little-endian, form the smallest integer."""
    if q.n > EXACT_LIMIT:
        raise ValueError(f"n={q.n} exceeds the enumeration limit {EXACT_LIMIT}")
    n = q.n
    total = 1 << n
    best_e = math.inf
    best_m = 0
    chunk = 1 << 20
    terms = list(q.terms.items())
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        e = np.zeros(idx.shape[0])
        for (i, j), v in terms:
            e += v * ((idx >> i) & (idx >> j) & 1)
        k = int(np.argmin(e))  # first occurrence = lowest little-endian value
        if e[k] < best_e:
            best_e = float(e[k])
            best_m = start + k
    bits = tuple((best_m >> k) & 1 for k in range(n))
    best = Assignment(bits=bits)
    return SolveResult(
        best=best,
        best_energy=energy(q, best),
        proven_optimal=True,
        stats=SolveStats(evaluations=total),
    )


def _cover_and_branch(p_mask: int, adj: list[int], need: int) -> tuple[int, int, int]:
    """One walk over the residual vertices p_mask.  Returns the number of
    cliques in their first-fit partition, an upper bound on their independent
    set size built one clique at a time on bitsets as in BBMC (San Segundo et
    al. 2011); the vertex of highest residual degree, lowest index on ties
    (-1 if p_mask is empty); and the mask of the vertices with fewer than
    `need` non-neighbours in p_mask, which cannot be in an independent set of
    more than `need` of its vertices."""
    cliques = 0
    v = v_deg = -1
    p_size = p_mask.bit_count()
    drop = 0
    m = p_mask
    while m:
        cliques += 1
        q = m  # uncovered vertices adjacent to every member so far
        while q:
            bit = q & -q
            u = bit.bit_length() - 1
            m ^= bit
            q &= adj[u]
            deg = (adj[u] & p_mask).bit_count()
            if p_size - 1 - deg < need:
                drop |= bit
            # the walk is not in index order, so ties compare indices
            if deg > v_deg or (deg == v_deg and u < v):
                v, v_deg = u, deg
    return cliques, v, drop


def _greedy_min_degree(adj: list[int]) -> int:
    """Bitmask of a maximal independent set built greedily: the vertex with
    the fewest neighbours in the residual graph, lowest index on ties, joins
    the set, and it and its neighbours leave the residual graph."""
    alive = (1 << len(adj)) - 1
    mask = 0
    while alive:
        v_deg = len(adj)
        m = alive
        while m and v_deg:  # index order keeps the first minimum; none is below 0
            bit = m & -m
            m ^= bit
            u = bit.bit_length() - 1
            deg = (adj[u] & alive).bit_count()
            if deg < v_deg:
                v, v_deg = u, deg
        mask |= 1 << v
        alive &= ~(adj[v] | 1 << v)
    return mask


def solve_mis_bnb(gc: ConflictGraph) -> tuple[set[int], bool]:
    """Exact maximum independent set by branch and bound.

    The incumbent starts as the greedy minimum-degree set.  One walk per
    search node gives the greedy clique-cover bound it prunes with, the
    residual vertices too poor in non-neighbours to extend the selection
    past the incumbent, which are peeled off until none is left, and the
    vertex it branches on: the highest-degree vertex of the residual graph,
    lowest index on ties, included first.  Only a strictly larger set
    replaces the incumbent, so the result is the greedy set whenever that set
    is maximum, else the first larger set the search finds.  Deterministic.
    The search runs on an explicit stack, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    n = gc.n
    rows = np.packbits(gc.adjacency, axis=1, bitorder="little")
    adj = [int.from_bytes(row.tobytes(), "little") for row in rows]

    best_mask = _greedy_min_degree(adj)
    best_size = best_mask.bit_count()
    # (selected, size, residual candidates); the top is expanded next
    stack = [(0, 0, (1 << n) - 1)]
    while stack:
        cur_mask, cur_size, p_mask = stack.pop()
        if p_mask == 0:
            if cur_size > best_size:
                best_size = cur_size
                best_mask = cur_mask
            continue
        cliques, v, drop = _cover_and_branch(p_mask, adj, best_size - cur_size)
        if cur_size + cliques <= best_size:
            continue
        if drop:  # peel, and walk what is left
            stack.append((cur_mask, cur_size, p_mask & ~drop))
            continue
        # exclude pushed first so the include branch is searched first
        stack.append((cur_mask, cur_size, p_mask & ~(1 << v)))
        stack.append((cur_mask | (1 << v), cur_size + 1, p_mask & ~(adj[v] | (1 << v))))
    return {k for k in range(n) if (best_mask >> k) & 1}, True


def solve_sa(q: QuboInstance, s: AnnealSchedule = AnnealSchedule()) -> SolveResult:
    """Simulated annealing with single-bit Metropolis flips.

    Each restart starts from the all-zero assignment with its own random
    stream derived from (seed, restart); sweeps visit variables in index
    order and accept flips with probability min(1, exp(-beta * dE)), using
    the O(degree) incremental energy delta.  The result is the first state,
    in restart, sweep and variable order, that reaches the lowest energy
    seen (the all-zero start if no flip goes below 0).
    """
    n = q.n
    diag, neighbors = _adjacency(q)
    betas = s.betas()
    exp = math.exp

    best_bits = [0] * n
    best_e = 0.0
    for r in range(s.restarts):
        uniforms = Xorshift64Star(derive_seed(s.seed, r)).uniforms
        x = [0] * n
        h = diag.copy()
        e = 0.0
        for beta in betas:
            # one draw per step, taken whether or not the step needs it
            for k, u in enumerate(uniforms(n)):
                on = x[k]
                d_e = -h[k] if on else h[k]
                if d_e <= 0.0 or u < exp(-beta * d_e):
                    x[k] = 1 - on
                    e += d_e
                    if on:
                        for j, v in neighbors[k]:
                            h[j] -= v
                    else:
                        for j, v in neighbors[k]:
                            h[j] += v
                    if e < best_e:
                        best_e = e
                        best_bits = x.copy()
    best = Assignment(bits=tuple(best_bits))
    return SolveResult(
        best=best,
        best_energy=energy(q, best),
        proven_optimal=False,
        stats=SolveStats(evaluations=s.restarts * s.sweeps * n),
    )

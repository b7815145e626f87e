"""End-to-end matching: decoding solver output into point correspondences,
synthetic instance generation, graph/result file IO, and DOT export."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .conflict import ConflictGraph, MatchParams, build_conflict_graph, generate_candidates
from .errors import InfeasibleSolutionError, ParseError
from .graph_model import ImageGraph, InterestPoint, wrap_angle
from .qubo import Assignment, QuboInstance, mis_to_qubo
from .rng import Xorshift64Star
from .solvers import AnnealSchedule, SolveResult, solve_exact, solve_mis_bnb, solve_sa

QUBO_SOLVERS = ("exact", "sa")
SOLVER_NAMES = ("bnb", *QUBO_SOLVERS)


class GraphFormatError(ParseError):
    pass


@dataclass(frozen=True)
class MatchResult:
    """Decoded point correspondences between two image graphs.

    similarity is the match count (the independent-set size);
    feature_similarity_sum is reported for inspection only and never used
    for decisions.
    """

    pairs: tuple[tuple[int, int], ...]
    solver: str
    proven_optimal: bool
    params: MatchParams
    feature_similarity_sum: float = 0.0

    def __post_init__(self):
        pairs = tuple((int(i), int(a)) for i, a in self.pairs)
        firsts = [i for i, _ in pairs]
        seconds = [a for _, a in pairs]
        if len(set(firsts)) != len(firsts) or len(set(seconds)) != len(seconds):
            raise ValueError(f"match pairs are not one-to-one: {pairs}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def similarity(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a ground-truth matching instance: inliers shared between the
    two graphs up to a global similarity transform plus noise, and per-image
    outliers."""

    n_inliers: int = 8
    n_outliers_per_image: int = 3
    rotation: float = 0.0
    scale: float = 1.0
    translation: tuple[float, float] = (0.0, 0.0)
    position_noise: float = 0.0
    descriptor_noise: float = 0.0
    field_size: float = 512.0
    descriptor_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("rotation", "scale", "translation", "position_noise",
                     "descriptor_noise", "field_size"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_inliers < 0 or self.n_outliers_per_image < 0:
            raise ValueError("point counts must be >= 0")
        if not self.scale > 0:
            raise ValueError("transform scale must be > 0")
        if self.position_noise < 0 or self.descriptor_noise < 0:
            raise ValueError("noise levels must be >= 0")
        if not self.field_size > 0:
            raise ValueError("field_size must be > 0")
        if self.descriptor_dim < 2:
            raise ValueError("descriptor_dim must be >= 2")


def decode_matches(
    gc: ConflictGraph,
    x: Assignment,
    solver: str,
    proven_optimal: bool,
) -> MatchResult:
    """Translate a QUBO assignment over conflict-graph vertices into matches.

    Raises InfeasibleSolutionError if the selected set contains a conflict
    edge; solver failures are surfaced, never repaired.
    """
    if len(x) != gc.n:
        raise ValueError(f"assignment length {len(x)} does not match {gc.n} vertices")
    selected = [k for k, b in enumerate(x.bits) if b]
    # row-major over ascending selected, the first hit is the lexicographically
    # first conflicting pair
    clash = np.argwhere(np.triu(gc.adjacency[np.ix_(selected, selected)], 1))
    if clash.size:
        u, v = (selected[k] for k in clash[0])
        cu, cv = gc.vertices[u], gc.vertices[v]
        raise InfeasibleSolutionError(
            f"assignment selects both endpoints of conflict edge ({u}, {v}): "
            f"matches ({cu.i}, {cu.alpha}) and ({cv.i}, {cv.alpha})"
        )
    pairs = tuple((gc.vertices[k].i, gc.vertices[k].alpha) for k in selected)
    return MatchResult(
        pairs=pairs,
        solver=solver,
        proven_optimal=proven_optimal,
        params=gc.params,
        feature_similarity_sum=sum(gc.vertices[k].d for k in selected),
    )


def _random_unit(rng: Xorshift64Star, dim: int) -> np.ndarray:
    while True:
        v = np.array([rng.normal() for _ in range(dim)])
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


def apply_similarity(
    g: ImageGraph, rotation: float, scale: float, translation: tuple[float, float]
) -> ImageGraph:
    """Apply one global similarity transform to every point of a graph."""
    cos_r, sin_r = math.cos(rotation), math.sin(rotation)
    tx, ty = translation
    points = tuple(
        InterestPoint(
            x=scale * (cos_r * p.x - sin_r * p.y) + tx,
            y=scale * (sin_r * p.x + cos_r * p.y) + ty,
            scale=scale * p.scale,
            orientation=wrap_angle(p.orientation + rotation),
            descriptor=p.descriptor,
        )
        for p in g.points
    )
    return ImageGraph(points=points, id=g.id)


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[ImageGraph, ImageGraph, tuple[tuple[int, int], ...]]:
    """Build two image graphs with known correspondences.

    Inlier k of graph 1 maps to inlier k of graph 2 through the global
    transform, with optional position and descriptor noise; outliers are
    independent random points.  Deterministic in the seed.
    """
    rng = Xorshift64Star(spec.seed)

    def random_point():
        return InterestPoint(
            x=rng.uniform_in(0.0, spec.field_size),
            y=rng.uniform_in(0.0, spec.field_size),
            scale=rng.uniform_in(1.0, 4.0),
            orientation=rng.uniform_in(-math.pi, math.pi),
            descriptor=_random_unit(rng, spec.descriptor_dim),
        )

    inliers1 = [random_point() for _ in range(spec.n_inliers)]
    moved = apply_similarity(
        ImageGraph(points=tuple(inliers1)), spec.rotation, spec.scale, spec.translation
    )
    inliers2 = []
    for p in moved.points:
        x, y, desc = p.x, p.y, p.descriptor
        if spec.position_noise > 0:
            x += spec.position_noise * rng.normal()
            y += spec.position_noise * rng.normal()
        if spec.descriptor_noise > 0:
            desc = desc + spec.descriptor_noise * np.array(
                [rng.normal() for _ in range(spec.descriptor_dim)]
            )
        inliers2.append(replace(p, x=x, y=y, descriptor=desc))
    outliers1 = [random_point() for _ in range(spec.n_outliers_per_image)]
    outliers2 = [random_point() for _ in range(spec.n_outliers_per_image)]
    g1 = ImageGraph(points=tuple(inliers1 + outliers1), id=f"synthetic-{spec.seed}-1")
    g2 = ImageGraph(points=tuple(inliers2 + outliers2), id=f"synthetic-{spec.seed}-2")
    truth = tuple((k, k) for k in range(spec.n_inliers))
    return g1, g2, truth


def conflict_graph(g1: ImageGraph, g2: ImageGraph, p: MatchParams) -> ConflictGraph:
    """Admit candidate matches and draw their conflict edges."""
    return build_conflict_graph(g1, g2, generate_candidates(g1, g2, p), p)


def solve_qubo(
    q: QuboInstance, solver: str, schedule: AnnealSchedule = AnnealSchedule()
) -> SolveResult:
    """Minimize q by enumeration ("exact") or simulated annealing ("sa");
    schedule applies to "sa" only."""
    if solver == "exact":
        return solve_exact(q)
    if solver == "sa":
        return solve_sa(q, schedule)
    raise ValueError(f"unknown QUBO solver {solver!r}; choose from {QUBO_SOLVERS}")


def match_images(
    g1: ImageGraph,
    g2: ImageGraph,
    p: MatchParams = MatchParams(),
    solver: str = "bnb",
    schedule: AnnealSchedule = AnnealSchedule(),
) -> MatchResult:
    """Run the full pipeline: candidates -> conflict graph -> solver -> matches."""
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVER_NAMES}")
    gc = conflict_graph(g1, g2, p)
    if gc.n == 0:
        return MatchResult(pairs=(), solver=solver, proven_optimal=solver != "sa", params=p)
    if solver == "bnb":
        mis, proven = solve_mis_bnb(gc)
        x = Assignment(bits=tuple(1 if k in mis else 0 for k in range(gc.n)))
        return decode_matches(gc, x, solver="bnb", proven_optimal=proven)
    res = solve_qubo(mis_to_qubo(gc), solver, schedule)
    return decode_matches(gc, res.best, solver=solver, proven_optimal=res.proven_optimal)


# ---------------------------------------------------------------------------
# File formats


def graph_to_json(g: ImageGraph) -> str:
    obj = {
        "id": g.id,
        "points": [
            {
                "x": p.x,
                "y": p.y,
                "scale": p.scale,
                "orientation": p.orientation,
                "descriptor": [float(v) for v in p.descriptor],
            }
            for p in g.points
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def graph_from_json(text: str) -> ImageGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise GraphFormatError("graph document must be an object with a 'points' list")
    points = []
    for k, rec in enumerate(obj["points"]):
        try:
            points.append(
                InterestPoint(
                    x=float(rec["x"]),
                    y=float(rec["y"]),
                    scale=float(rec["scale"]),
                    orientation=float(rec["orientation"]),
                    descriptor=np.array(rec["descriptor"], dtype=float),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"bad point record #{k}: {exc}") from None
    try:
        return ImageGraph(points=tuple(points), id=str(obj.get("id", "")))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def write_graph(g: ImageGraph, path) -> None:
    Path(path).write_text(graph_to_json(g))


def read_graph(path) -> ImageGraph:
    return graph_from_json(Path(path).read_text())


def match_result_to_json(r: MatchResult) -> str:
    obj = {
        "pairs": [[i, a] for i, a in r.pairs],
        "similarity": r.similarity,
        "solver": r.solver,
        "proven_optimal": r.proven_optimal,
        "feature_similarity_sum": r.feature_similarity_sum,
        "params": asdict(r.params),
    }
    return json.dumps(obj, indent=2) + "\n"


def conflict_graph_to_dot(gc: ConflictGraph) -> str:
    """Undirected DOT rendering of a conflict graph for inspection."""
    lines = ["graph conflict {"]
    for k, c in enumerate(gc.vertices):
        lines.append(f'  v{k} [label="{c.i}:{c.alpha} d={c.d:.4f}"];')
    for u, v in sorted(gc.edges):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

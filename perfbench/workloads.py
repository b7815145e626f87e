"""Seeded inputs, ops and output checks of the benchmark's four workloads.

NOTES.md says why each workload exists and how it was sized.  Every input is
derived from the workload seed; the library only ever sees the generated
files and the objects read back from them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from qimatch import conflict, detector, pipeline, qubo, solvers  # runs qimatch/__init__
from qimatch.conflict import MatchParams
from qimatch.detector import DetectorParams
from qimatch.graph_model import ImageGraph, d_geom, geom_relation
from qimatch.pipeline import SyntheticSpec
from qimatch.solvers import AnnealSchedule

MANIFEST = "manifest.json"

# Public functions the benchmark calls itself: attribute -> (function, span name).
PUBLIC = {
    "read_graph": (pipeline.read_graph, "pipeline.read_graph"),
    "match_images": (pipeline.match_images, "pipeline.match_images"),
    "decode_matches": (pipeline.decode_matches, "pipeline.decode_matches"),
    "generate_candidates": (conflict.generate_candidates, "conflict.generate_candidates"),
    "build_conflict_graph": (conflict.build_conflict_graph, "conflict.build_conflict_graph"),
    "mis_to_qubo": (qubo.mis_to_qubo, "qubo.mis_to_qubo"),
    "write_qubo": (qubo.write_qubo, "qubo.write_qubo"),
    "read_qubo": (qubo.read_qubo, "qubo.read_qubo"),
    "solve_sa": (solvers.solve_sa, "solvers.solve_sa"),
    "read_pgm": (detector.read_pgm, "detector.read_pgm"),
    "detect": (detector.detect, "detector.detect"),
}

# Names match_images looks up in qimatch.pipeline at call time -> span name.
PIPELINE_LOOKUPS = {
    "generate_candidates": "conflict.generate_candidates",
    "build_conflict_graph": "conflict.build_conflict_graph",
    "solve_mis_bnb": "solvers.solve_mis_bnb",
    "mis_to_qubo": "qubo.mis_to_qubo",
    "solve_exact": "solvers.solve_exact",
    "solve_sa": "solvers.solve_sa",
    "decode_matches": "pipeline.decode_matches",
}

def api(tracer=None) -> SimpleNamespace:
    """The public functions, plain or each wrapped in a span."""
    return SimpleNamespace(
        **{
            attr: fn if tracer is None else tracer.wrap(span, fn)
            for attr, (fn, span) in PUBLIC.items()
        }
    )


@dataclass
class Case:
    """One image pair of a workload's pool."""

    index: int
    files: tuple[str, str]
    params: MatchParams
    truth: frozenset | None = None  # synthetic ground truth; pixels derive it per op
    sa_seed: int | None = None
    optimum: int | None = None  # MIS size: pinned, or computed before the run
    sa_digest: str | None = None  # pinned digest of the seeded SA assignment


@dataclass
class Outcome:
    """What one op returned, plus the graphs its pairs index into."""

    g1: ImageGraph
    g2: ImageGraph
    pairs: tuple[tuple[int, int], ...]
    proven_optimal: bool
    sa_bits: tuple[int, ...] | None = None
    qubo_roundtrip_ok: bool = True


def write_manifest(workdir: Path, files: list[str]) -> None:
    (workdir / MANIFEST).write_text(json.dumps({"files": files}) + "\n")


def load_inputs(workdir: Path, calls) -> dict[str, object]:
    """Read the workload's input files: everything a fresh process loads before
    its first op.  Graph files are parsed; images are read by the op itself."""
    files = json.loads((workdir / MANIFEST).read_text())["files"]
    return {
        f: calls.read_graph(workdir / f) if f.endswith(".json") else workdir / f
        for f in files
    }


def sa_digest(bits) -> str:
    return hashlib.sha256(bytes(bits)).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output checks that need no pins


def candidate_set(g1: ImageGraph, g2: ImageGraph, p: MatchParams) -> set[tuple[int, int]]:
    """The admitted candidates, restated with NumPy: similarity above t_feat,
    best first with ties by (i, alpha), at most limit_l of them."""
    f1 = np.array([pt.descriptor for pt in g1.points])
    f2 = np.array([pt.descriptor for pt in g2.points])
    sim = f1 @ f2.T
    i, a = np.nonzero(sim > p.t_feat)
    order = np.lexsort((a, i, -sim[i, a]))[: p.limit_l]
    return set(zip(i[order].tolist(), a[order].tolist()))


def matching_problem(g1: ImageGraph, g2: ImageGraph, p: MatchParams, pairs) -> str | None:
    """Why `pairs` is not a feasible one-to-one matching, or None.

    Feasible: no point used twice, every pair an admitted candidate, and every
    two pairs geometrically consistent under the scalar d_geom oracle.
    """
    if len({i for i, _ in pairs}) != len(pairs) or len({a for _, a in pairs}) != len(pairs):
        return "pairs are not one-to-one"
    admitted = candidate_set(g1, g2, p)
    stray = [pr for pr in pairs if pr not in admitted]
    if stray:
        return f"pairs {stray[:3]} are not admitted candidates"
    ordered = sorted(pairs)  # rule 2 orients each two pairs by first-graph index
    pts1, pts2, w = g1.points, g2.points, p.geom_weights
    for x, (i, a) in enumerate(ordered):
        for j, b in ordered[x + 1 :]:
            if d_geom(geom_relation(pts1[i], pts1[j]), geom_relation(pts2[a], pts2[b]), w) < p.t_geom:
                return f"pairs ({i}, {a}) and ({j}, {b}) are geometrically inconsistent"
    return None


def rule_counts(gc) -> tuple[int, int, int]:
    """(rule-1 pairs, rule-1 pairs that are edges, rule-2 edges) of a conflict
    graph, derived from which vertices share a point."""
    i = np.array([c.i for c in gc.vertices])
    a = np.array([c.alpha for c in gc.vertices])
    rule1 = sum(int(k) * (int(k) - 1) // 2 for arr in (i, a) for k in np.unique(arr, return_counts=True)[1])
    if gc.edges:
        e = np.array(list(gc.edges))
        shared = int(np.count_nonzero((i[e[:, 0]] == i[e[:, 1]]) | (a[e[:, 0]] == a[e[:, 1]])))
    else:
        shared = 0
    return rule1, shared, len(gc.edges) - shared


# ---------------------------------------------------------------------------
# Workloads


class SyntheticBnb:
    """match_images(..., solver="bnb") on generate_synthetic pairs of fixed
    sizes; the seed draws the transform and the points."""

    expected_spans = frozenset(
        {
            "pipeline.read_graph",
            "pipeline.match_images",
            "conflict.generate_candidates",
            "conflict.build_conflict_graph",
            "solvers.solve_mis_bnb",
            "pipeline.decode_matches",
        }
    )
    solver = "bnb"

    def __init__(self, name, inliers, outliers, noise, params):
        self.name = name
        self.inliers = inliers  # one case per entry
        self.outliers = outliers
        self.noise = noise
        self.params = params

    def _specs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        for n_inliers in self.inliers:
            yield SyntheticSpec(
                n_inliers=n_inliers,
                n_outliers_per_image=self.outliers,
                rotation=rng.uniform(-math.pi, math.pi),
                scale=rng.uniform(0.8, 1.25),
                translation=(rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)),
                position_noise=self.noise,
                seed=rng.getrandbits(63),
            )

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        cases, files = [], []
        for k, spec in enumerate(self._specs(seed)):
            g1, g2, truth = pipeline.generate_synthetic(spec)
            names = (f"pair{k}_1.json", f"pair{k}_2.json")
            pipeline.write_graph(g1, workdir / names[0])
            pipeline.write_graph(g2, workdir / names[1])
            files += names
            cases.append(self._case(k, names, truth, seed))
        write_manifest(workdir, files)
        return cases

    def _case(self, k, names, truth, seed) -> Case:
        return Case(index=k, files=names, params=self.params, truth=frozenset(truth))

    def op(self, case: Case, inputs, calls) -> Outcome:
        g1, g2 = inputs[case.files[0]], inputs[case.files[1]]
        r = calls.match_images(g1, g2, case.params, solver="bnb")
        return Outcome(g1, g2, r.pairs, r.proven_optimal)


class QuboSa(SyntheticBnb):
    """The export-qubo + solve route: candidates, conflict graph, QUBO
    encoding, qbsolv text out and back in, annealing, decoding."""

    expected_spans = frozenset(
        {
            "pipeline.read_graph",
            "conflict.generate_candidates",
            "conflict.build_conflict_graph",
            "qubo.mis_to_qubo",
            "qubo.write_qubo",
            "qubo.read_qubo",
            "solvers.solve_sa",
            "pipeline.decode_matches",
        }
    )
    solver = "sa"

    def _case(self, k, names, truth, seed) -> Case:
        case = super()._case(k, names, truth, seed)
        case.sa_seed = seed * 1000 + k
        return case

    def reference_optimum(self, case: Case, inputs) -> int:
        """MIS size by branch and bound, for seeds that have no pinned optimum."""
        g1, g2 = inputs[case.files[0]], inputs[case.files[1]]
        gc = conflict.build_conflict_graph(g1, g2, conflict.generate_candidates(g1, g2, case.params), case.params)
        mis, _ = solvers.solve_mis_bnb(gc)
        return len(mis)

    def op(self, case: Case, inputs, calls) -> Outcome:
        g1, g2 = inputs[case.files[0]], inputs[case.files[1]]
        p = case.params
        gc = calls.build_conflict_graph(g1, g2, calls.generate_candidates(g1, g2, p), p)
        q = calls.mis_to_qubo(gc)
        q_back = calls.read_qubo(calls.write_qubo(q))
        res = calls.solve_sa(q_back, AnnealSchedule(seed=case.sa_seed))
        m = calls.decode_matches(gc, res.best, solver="sa", proven_optimal=res.proven_optimal)
        return Outcome(
            g1,
            g2,
            m.pairs,
            m.proven_optimal,
            sa_bits=res.best.bits,
            qubo_roundtrip_ok=q_back.n == q.n and q_back.terms == q.terms,
        )


def render_scene(rng: random.Random, size: int, n_blobs: int) -> np.ndarray:
    """Mid-grey field with elongated Gaussian blobs of both polarities,
    quantised to 16 bits so that quantisation creates no spurious extrema."""
    img = np.full((size, size), 0.5)
    for _ in range(n_blobs):
        cx, cy = rng.uniform(0, size), rng.uniform(0, size)
        s_major = rng.uniform(2.5, 6.0)
        s_minor = s_major * rng.uniform(0.3, 0.7)
        theta = rng.uniform(0, math.pi)
        amp = rng.choice((-1.0, 1.0)) * rng.uniform(0.12, 0.3)
        r = math.ceil(4 * s_major)
        y0, y1 = max(0, int(cy) - r), min(size, int(cy) + r + 1)
        x0, x1 = max(0, int(cx) - r), min(size, int(cx) + r + 1)
        yy, xx = np.mgrid[y0:y1, x0:x1]
        c, s = math.cos(theta), math.sin(theta)
        u = (xx - cx) * c + (yy - cy) * s
        v = (yy - cy) * c - (xx - cx) * s
        img[y0:y1, x0:x1] += amp * np.exp(-0.5 * ((u / s_major) ** 2 + (v / s_minor) ** 2))
    return np.round(np.clip(img, 0.0, 1.0) * 65535).astype(np.uint16)


def write_pgm16(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n65535\n".encode() + pixels.astype(">u2").tobytes())


def distinct_points(points) -> tuple:
    """Keep the first, strongest, point at each pixel.

    detect can return two points at one pixel (extrema two or more scale
    steps apart); build_conflict_graph rejects such a pair as coincident and
    the op fails.  NOTES.md records the defect; detector.coincident_points
    counts how often the detector emits one.
    """
    seen = set()
    out = []
    for pt in points:
        if (pt.x, pt.y) not in seen:
            seen.add((pt.x, pt.y))
            out.append(pt)
    return tuple(out)


class Pixels:
    """read_pgm x2, detect x2, match_images(bnb) on a rendered scene and the
    same scene rotated by 90 degrees clockwise."""

    name = "pixels"
    expected_spans = frozenset(
        {
            "detector.read_pgm",
            "detector.detect",
            "pipeline.match_images",
            "conflict.generate_candidates",
            "conflict.build_conflict_graph",
            "solvers.solve_mis_bnb",
            "pipeline.decode_matches",
        }
    )
    solver = "bnb"
    TRUTH_RADIUS = 1.0  # px

    def __init__(self, pairs, size, blobs, detector_params, params):
        self.pairs = pairs
        self.size = size
        self.blobs = blobs
        self.detector_params = detector_params
        self.params = params

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        rng = random.Random(f"{self.name}/{seed}")
        cases, files = [], []
        for k in range(self.pairs):
            img = render_scene(rng, self.size, self.blobs)
            names = (f"scene{k}.pgm", f"scene{k}_rot90.pgm")
            write_pgm16(workdir / names[0], img)
            write_pgm16(workdir / names[1], np.rot90(img, k=-1))
            files += names
            cases.append(Case(index=k, files=names, params=self.params))
        write_manifest(workdir, files)
        return cases

    def op(self, case: Case, inputs, calls) -> Outcome:
        img1 = calls.read_pgm(inputs[case.files[0]])
        img2 = calls.read_pgm(inputs[case.files[1]])
        g1 = ImageGraph(points=distinct_points(calls.detect(img1, self.detector_params)), id=case.files[0])
        g2 = ImageGraph(points=distinct_points(calls.detect(img2, self.detector_params)), id=case.files[1])
        r = calls.match_images(g1, g2, case.params, solver="bnb")
        return Outcome(g1, g2, r.pairs, r.proven_optimal)

    def truth(self, g1: ImageGraph, g2: ImageGraph) -> frozenset:
        """Pairs (i, alpha) where point alpha lies within TRUTH_RADIUS of point
        i mapped through the rotation: (x, y) -> (size - 1 - y, x)."""
        if not g1.points or not g2.points:
            return frozenset()
        q = np.array([[pt.x, pt.y] for pt in g2.points])
        out = set()
        for i, pt in enumerate(g1.points):
            d = np.hypot(q[:, 0] - (self.size - 1 - pt.y), q[:, 1] - pt.x)
            a = int(np.argmin(d))
            if d[a] <= self.TRUTH_RADIUS:
                out.add((i, a))
        return frozenset(out)


WORKLOADS = {
    w.name: w
    for w in (
        SyntheticBnb(
            "dense-bnb",
            inliers=(64,) * 8,
            outliers=160,
            noise=1.0,
            params=MatchParams(t_feat=0.3, limit_l=512),
        ),
        SyntheticBnb(
            "sparse-bnb",
            inliers=(120,) * 48,
            outliers=20,
            noise=3.0,
            params=MatchParams(t_feat=0.6, limit_l=124),
        ),
        QuboSa(
            "qubo-sa",
            inliers=(40,) * 3,
            outliers=100,
            noise=1.0,
            params=MatchParams(t_feat=0.3, limit_l=100),
        ),
        Pixels(
            pairs=16,
            size=256,
            blobs=150,
            detector_params=DetectorParams(max_points=64),
            params=MatchParams(t_feat=0.9, limit_l=64),
        ),
    )
}

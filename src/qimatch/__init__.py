"""Image matching compiled to QUBO: interest points, conflict graphs, solvers."""

from .conflict import ConflictGraph, MatchCandidate, MatchParams, build_conflict_graph, generate_candidates
from .detector import DetectorParams, RasterImage, detect, log_response, read_pgm
from .errors import DegenerateGeometryError, InfeasibleSolutionError, ParseError
from .graph_model import (
    GeomRelation,
    GeomWeights,
    ImageGraph,
    InterestPoint,
    d_geom,
    geom_relation,
    wrap_angle,
)
from .pipeline import (
    MatchResult,
    SyntheticSpec,
    apply_similarity,
    decode_matches,
    generate_synthetic,
    match_images,
)
from .qubo import Assignment, QuboInstance, energy, mis_to_qubo, read_qubo, write_qubo
from .solvers import AnnealSchedule, SolveResult, solve_exact, solve_mis_bnb, solve_sa

__version__ = "0.1.0"

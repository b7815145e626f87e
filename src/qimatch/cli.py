"""Command-line surface for the matching pipeline.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 infeasible solution.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .conflict import MatchParams
from .detector import DetectorParams, detect, read_pgm
from .errors import InfeasibleSolutionError, ParseError
from .graph_model import ImageGraph
from .pipeline import (
    QUBO_SOLVERS,
    SOLVER_NAMES,
    SyntheticSpec,
    conflict_graph,
    conflict_graph_to_dot,
    generate_synthetic,
    graph_to_json,
    match_images,
    match_result_to_json,
    read_graph,
    solve_qubo,
    write_graph,
)
from .qubo import mis_to_qubo, read_qubo, write_qubo
from .solvers import AnnealSchedule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_match_flags(sp):
    sp.add_argument("graph1")
    sp.add_argument("graph2")
    sp.add_argument(
        "--tfeat", dest="t_feat", type=float, default=MatchParams.t_feat,
        help="candidate admission threshold",
    )
    sp.add_argument(
        "--tgeom", dest="t_geom", type=float, default=MatchParams.t_geom,
        help="geometric conflict threshold",
    )
    sp.add_argument(
        "--limit", dest="limit_l", type=int, default=MatchParams.limit_l,
        help="conflict graph vertex cap",
    )
    sp.add_argument("-o", "--output", required=True)


def _from_args(cls, args, **extra):
    """cls built from the parsed flags whose dest names one of its fields;
    extra supplies the fields no single flag sets."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **extra)


def _load_pair(args) -> tuple[ImageGraph, ImageGraph]:
    return read_graph(args.graph1), read_graph(args.graph2)


def cmd_detect(args):
    img = read_pgm(args.image)
    points = detect(img, _from_args(DetectorParams, args))
    graph = ImageGraph(points=tuple(points), id=Path(args.image).name)
    Path(args.output).write_text(graph_to_json(graph))


def cmd_gen(args):
    spec = _from_args(SyntheticSpec, args, translation=(args.tx, args.ty))
    g1, g2, truth = generate_synthetic(spec)
    prefix = args.output
    write_graph(g1, f"{prefix}_1.json")
    write_graph(g2, f"{prefix}_2.json")
    Path(f"{prefix}_truth.json").write_text(
        json.dumps({"pairs": [[i, a] for i, a in truth]}, indent=2) + "\n"
    )


def cmd_match(args):
    result = match_images(
        *_load_pair(args),
        _from_args(MatchParams, args),
        solver=args.solver,
        schedule=_from_args(AnnealSchedule, args),
    )
    Path(args.output).write_text(match_result_to_json(result))


def cmd_export_qubo(args):
    gc = conflict_graph(*_load_pair(args), _from_args(MatchParams, args))
    q = mis_to_qubo(gc)
    Path(args.output).write_text(write_qubo(q))
    labels = {str(k): [c.i, c.alpha] for k, c in enumerate(gc.vertices)}
    Path(args.output + ".labels.json").write_text(json.dumps(labels, indent=2) + "\n")


def cmd_solve(args):
    q = read_qubo(Path(args.qubo).read_text())
    res = solve_qubo(q, args.solver, _from_args(AnnealSchedule, args))
    Path(args.output).write_text("".join(f"{b}\n" for b in res.best.bits))


def cmd_export_dot(args):
    gc = conflict_graph(*_load_pair(args), _from_args(MatchParams, args))
    Path(args.output).write_text(conflict_graph_to_dot(gc))


def build_parser() -> _Parser:
    parser = _Parser(prog="qimatch", description="Image matching via conflict-graph QUBO")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("detect", help="detect interest points in a PGM image")
    sp.add_argument("image")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--scales", dest="n_scales", type=int, default=DetectorParams.n_scales)
    sp.add_argument("--sigma0", type=float, default=DetectorParams.sigma0)
    sp.add_argument("--scale-step", type=float, default=DetectorParams.scale_step)
    sp.add_argument(
        "--threshold", dest="response_threshold", type=float,
        default=DetectorParams.response_threshold,
    )
    sp.add_argument("--max-points", type=int, default=DetectorParams.max_points)
    sp.add_argument(
        "--bins", dest="descriptor_bins", type=int, default=DetectorParams.descriptor_bins
    )
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("gen", help="generate a synthetic graph pair with ground truth")
    sp.add_argument("--inliers", dest="n_inliers", type=int, default=SyntheticSpec.n_inliers)
    sp.add_argument(
        "--outliers", dest="n_outliers_per_image", type=int,
        default=SyntheticSpec.n_outliers_per_image,
    )
    sp.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    sp.add_argument("--rotation", type=float, default=SyntheticSpec.rotation)
    sp.add_argument("--scale", type=float, default=SyntheticSpec.scale)
    sp.add_argument("--tx", type=float, default=SyntheticSpec.translation[0])
    sp.add_argument("--ty", type=float, default=SyntheticSpec.translation[1])
    sp.add_argument("--position-noise", type=float, default=SyntheticSpec.position_noise)
    sp.add_argument("--descriptor-noise", type=float, default=SyntheticSpec.descriptor_noise)
    sp.add_argument("--dim", dest="descriptor_dim", type=int, default=SyntheticSpec.descriptor_dim)
    sp.add_argument("-o", "--output", required=True, help="output file prefix")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("match", help="match two graph files")
    _add_match_flags(sp)
    sp.add_argument("--solver", choices=SOLVER_NAMES, default="bnb")
    sp.add_argument("--seed", type=int, default=AnnealSchedule.seed, help="annealing seed")
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("export-qubo", help="write the QUBO instance for a graph pair")
    _add_match_flags(sp)
    sp.set_defaults(func=cmd_export_qubo)

    sp = sub.add_parser("solve", help="solve a QUBO file")
    sp.add_argument("qubo")
    sp.add_argument("--solver", choices=QUBO_SOLVERS, default="exact")
    sp.add_argument("--seed", type=int, default=AnnealSchedule.seed)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("export-dot", help="write the conflict graph in DOT format")
    _add_match_flags(sp)
    sp.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleSolutionError as exc:
        print(f"infeasible solution: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

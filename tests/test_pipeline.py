import json
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import graph_from_edges, make_gc, maximum_matchings
from qimatch.conflict import (
    ConflictGraph,
    MatchCandidate,
    MatchParams,
    build_conflict_graph,
    generate_candidates,
)
from qimatch.errors import InfeasibleSolutionError
from qimatch.graph_model import GeomWeights, ImageGraph, InterestPoint
from qimatch.pipeline import (
    SOLVER_NAMES,
    GraphFormatError,
    MatchResult,
    SyntheticSpec,
    apply_similarity,
    conflict_graph_to_dot,
    decode_matches,
    generate_synthetic,
    graph_from_json,
    graph_to_json,
    match_images,
    match_result_to_json,
    read_graph,
    solve_qubo,
)
from qimatch.qubo import Assignment, mis_to_qubo
from qimatch.rng import Xorshift64Star
from qimatch.solvers import solve_exact


class TestDecodeMatches:
    def test_all_zero(self):
        gc = make_gc(3, [])
        r = decode_matches(gc, Assignment((0, 0, 0)), solver="exact", proven_optimal=True)
        assert r.pairs == () and r.similarity == 0

    def test_edgeless_full_selection(self):
        gc = make_gc(3, [])
        r = decode_matches(gc, Assignment((1, 1, 1)), solver="bnb", proven_optimal=True)
        assert r.similarity == 3
        assert set(r.pairs) == {(0, 0), (1, 1), (2, 2)}
        assert r.feature_similarity_sum == pytest.approx(3.0)

    def test_infeasible_selection(self):
        # two candidates share i = 0: a forced conflict edge
        gc = graph_from_edges(
            (MatchCandidate(0, 0, 1.0), MatchCandidate(0, 1, 0.9)), [(0, 1)], MatchParams()
        )
        with pytest.raises(InfeasibleSolutionError):
            decode_matches(gc, Assignment((1, 1)), solver="sa", proven_optimal=False)
        # two conflict edges, (0, 2) on i = 0 and (1, 2) on alpha = 1: the first is named
        gc = graph_from_edges(
            (MatchCandidate(0, 0, 1.0), MatchCandidate(1, 1, 0.9), MatchCandidate(0, 1, 0.8)),
            [(0, 2), (1, 2)],
            MatchParams(),
        )
        with pytest.raises(InfeasibleSolutionError, match=r"edge \(0, 2\): matches \(0, 0\) and \(0, 1\)"):
            decode_matches(gc, Assignment((1, 1, 1)), solver="sa", proven_optimal=False)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            decode_matches(make_gc(2, []), Assignment((1,)), solver="exact", proven_optimal=True)


class TestMatchResult:
    def test_one_to_one_enforced(self):
        with pytest.raises(ValueError):
            MatchResult(
                pairs=((0, 1), (0, 2)),
                solver="bnb",
                proven_optimal=True,
                params=MatchParams(),
            )



class TestGenerateSynthetic:
    def test_spec_validation(self):
        for bad, message in (
            (dict(n_inliers=-1), "point counts"),
            (dict(n_outliers_per_image=-1), "point counts"),
            (dict(scale=0.0), "scale must be > 0"),
            (dict(scale=-1.0), "scale must be > 0"),
            (dict(position_noise=-0.1), "noise levels"),
            (dict(descriptor_noise=-0.1), "noise levels"),
            (dict(descriptor_dim=1), "descriptor_dim"),
            (dict(n_inliers=2.5), "n_inliers must be an integer, got 2.5"),
            (dict(n_outliers_per_image=2.5), "n_outliers_per_image must be an integer"),
            (dict(descriptor_dim=2.5), "descriptor_dim must be an integer"),
            (dict(seed=0.5), "seed must be an integer"),
            (dict(rotation=math.nan), "rotation must be finite"),
            (dict(rotation=math.inf), "rotation must be finite"),
            (dict(scale=math.nan), "scale must be finite"),
            (dict(scale=math.inf), "scale must be finite"),
            (dict(translation=(math.nan, 0.0)), "translation must be finite"),
            (dict(translation=(0.0, -math.inf)), "translation must be finite"),
            (dict(position_noise=math.nan), "position_noise must be finite"),
            (dict(position_noise=math.inf), "position_noise must be finite"),
            (dict(descriptor_noise=math.nan), "descriptor_noise must be finite"),
            (dict(descriptor_noise=-math.inf), "descriptor_noise must be finite"),
        ):
            with pytest.raises(ValueError, match=message):
                SyntheticSpec(**bad)

    def test_empty_spec(self):
        g1, g2, truth = generate_synthetic(SyntheticSpec(n_inliers=0, n_outliers_per_image=0))
        assert len(g1) == 0 and len(g2) == 0 and truth == ()

    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(n_inliers=5, n_outliers_per_image=2, position_noise=1.0,
                             descriptor_noise=0.05, rotation=0.7, scale=1.2, seed=31)
        a1, a2, at = generate_synthetic(spec)
        b1, b2, bt = generate_synthetic(spec)
        assert at == bt
        assert graph_to_json(a1) == graph_to_json(b1)
        assert graph_to_json(a2) == graph_to_json(b2)

    def test_huge_values_without_inliers(self):
        # only inliers are transformed and perturbed, so nothing overflows
        g1, g2, _ = generate_synthetic(
            SyntheticSpec(n_inliers=0, scale=1e308, position_noise=1e308, descriptor_noise=1e308)
        )
        assert len(g1) == len(g2) == 3

    def test_zero_noise_recovery(self):
        spec = SyntheticSpec(n_inliers=6, n_outliers_per_image=0, rotation=1.0,
                             scale=1.5, translation=(30.0, -10.0), seed=5)
        g1, g2, truth = generate_synthetic(spec)
        p = MatchParams(t_feat=0.99, t_geom=0.0)
        assert maximum_matchings(g1, g2, p) == {frozenset(truth)}  # whatever the tie rule
        r = match_images(g1, g2, p, solver="bnb")
        assert set(r.pairs) == set(truth)


class TestMatchImages:
    def test_identical_graphs_identity_pairing(self):
        rng = Xorshift64Star(61)
        pts = []
        for k in range(5):
            d = np.array([rng.normal() for _ in range(8)])
            pts.append(InterestPoint(
                x=rng.uniform_in(0, 100), y=rng.uniform_in(0, 100),
                scale=rng.uniform_in(1, 3), orientation=rng.uniform_in(-3, 3),
                descriptor=d,
            ))
        g = ImageGraph(points=tuple(pts), id="g")
        p = MatchParams(t_feat=0.99, t_geom=0.0)
        identity = frozenset((k, k) for k in range(5))
        assert maximum_matchings(g, g, p) == {identity}  # whatever the tie rule
        r = match_images(g, g, p, solver="bnb")
        assert r.similarity == 5
        assert set(r.pairs) == identity

    def test_orthogonal_descriptors_no_matches(self):
        p1 = InterestPoint(0, 0, 1.0, 0.0, np.array([1.0, 0.0]))
        p2 = InterestPoint(5, 5, 1.0, 0.0, np.array([0.0, 1.0]))
        g1 = ImageGraph(points=(p1,), id="a")
        g2 = ImageGraph(points=(p2,), id="b")
        r = match_images(g1, g2, MatchParams(t_feat=0.5), solver="bnb")
        assert r.similarity == 0 and r.pairs == ()

    def test_truth_subset_and_mis_optimality(self):
        spec = SyntheticSpec(n_inliers=8, n_outliers_per_image=3, seed=77)
        g1, g2, truth = generate_synthetic(spec)
        p = MatchParams(t_feat=0.9, t_geom=0.0)
        r = match_images(g1, g2, p, solver="bnb")
        assert set(truth) <= set(r.pairs)
        assert all(set(truth) <= m for m in maximum_matchings(g1, g2, p))  # whatever the tie rule
        cands = generate_candidates(g1, g2, p)
        gc = build_conflict_graph(g1, g2, cands, p)
        exact = solve_exact(mis_to_qubo(gc))
        assert r.similarity == -exact.best_energy

    def test_similarity_equals_minus_energy_on_qubo_path(self):
        spec = SyntheticSpec(n_inliers=6, n_outliers_per_image=2, seed=13)
        g1, g2, _ = generate_synthetic(spec)
        p = MatchParams(t_feat=0.8, t_geom=0.0)
        r = match_images(g1, g2, p, solver="exact")
        cands = generate_candidates(g1, g2, p)
        gc = build_conflict_graph(g1, g2, cands, p)
        res = solve_exact(mis_to_qubo(gc))
        assert r.similarity == -res.best_energy

    def test_pipeline_invariant_under_transform(self):
        for seed in range(3):
            g1, g2, _ = generate_synthetic(
                SyntheticSpec(n_inliers=6, n_outliers_per_image=2, position_noise=1.0, seed=seed)
            )
            p = MatchParams(t_feat=0.9, t_geom=0.0)
            r = match_images(g1, g2, p, solver="bnb")
            g2t = apply_similarity(g2, rotation=1.1, scale=0.7, translation=(40.0, 5.0))
            rt = match_images(g1, g2t, p, solver="bnb")
            assert set(r.pairs) == set(rt.pairs)

    def test_solvers_agree(self):
        for seed in (1, 2, 3):
            g1, g2, _ = generate_synthetic(
                SyntheticSpec(n_inliers=5, n_outliers_per_image=3, position_noise=2.0, seed=seed)
            )
            p = MatchParams(t_feat=0.8, t_geom=0.0)
            r_bnb = match_images(g1, g2, p, solver="bnb")
            r_exact = match_images(g1, g2, p, solver="exact")
            assert r_bnb.similarity == r_exact.similarity
            assert r_bnb.proven_optimal and r_exact.proven_optimal

    def test_bnb_path_never_reads_edges(self, monkeypatch):
        g1, g2, _ = generate_synthetic(
            SyntheticSpec(n_inliers=8, n_outliers_per_image=4, position_noise=2.0, seed=5)
        )
        p = MatchParams(t_feat=0.3, t_geom=0.0)
        expected = match_images(g1, g2, p, solver="bnb")
        assert build_conflict_graph(g1, g2, generate_candidates(g1, g2, p), p).edges

        def no_edges(gc):
            raise AssertionError("ConflictGraph.edges read on the bnb path")

        monkeypatch.setattr(ConflictGraph, "edges", property(no_edges))
        assert match_images(g1, g2, p, solver="bnb") == expected

    def test_unknown_solver(self):
        g = ImageGraph(points=(), id="e")
        with pytest.raises(ValueError):
            match_images(g, g, MatchParams(), solver="quantum")
        with pytest.raises(ValueError, match="unknown QUBO solver"):
            solve_qubo(mis_to_qubo(make_gc(2, [(0, 1)])), "bogus")

    def test_graph_without_points(self):
        empty = ImageGraph(points=(), id="e")
        g, _, _ = generate_synthetic(SyntheticSpec(n_inliers=3, seed=2))
        for g1, g2 in ((empty, empty), (empty, g), (g, empty)):
            for solver in SOLVER_NAMES:
                r = match_images(g1, g2, MatchParams(), solver=solver)
                assert r.pairs == () and r.similarity == 0
                assert r.proven_optimal == (solver != "sa")


class TestGraphIO:
    def test_round_trip_byte_exact(self):
        g1, _, _ = generate_synthetic(SyntheticSpec(n_inliers=5, n_outliers_per_image=2, seed=3))
        text = graph_to_json(g1)
        g2 = graph_from_json(text)
        assert graph_to_json(g2) == text

    def test_empty_graph(self):
        g = graph_from_json('{"id": "x", "points": []}')
        assert len(g) == 0 and g.id == "x"

    def test_invalid_json(self):
        with pytest.raises(GraphFormatError):
            graph_from_json("{not json")

    def test_missing_points(self):
        for doc in ('{"id": "x"}', '{"points": null}', '{"points": 5}'):
            with pytest.raises(GraphFormatError):
                graph_from_json(doc)

    def test_bad_point_record(self):
        with pytest.raises(GraphFormatError, match="#0"):
            graph_from_json('{"id": "x", "points": [{"x": 1}]}')
        ok = '{"x": 1, "y": 2, "scale": 1, "orientation": 0, "descriptor": [1, 0]}'
        no_scale = '{"x": 1, "y": 2, "orientation": 0, "descriptor": [1, 0]}'
        with pytest.raises(GraphFormatError, match=r"^bad point record #1: 'scale'$"):
            graph_from_json(f'{{"points": [{ok}, {no_scale}]}}')

    def test_extra_keys_ignored(self):
        doc = {"points": [{"x": 1, "y": 2, "scale": 1, "orientation": 0,
                           "descriptor": [0.6, 0.8], "note": "not a field"}]}
        (p,) = graph_from_json(json.dumps(doc)).points
        assert (p.x, p.y, p.scale, p.orientation) == (1.0, 2.0, 1.0, 0.0)
        assert p.descriptor.tolist() == [0.6, 0.8]

    @staticmethod
    def _descriptor(values):
        doc = {"points": [{"x": 1, "y": 2, "scale": 1, "orientation": 0, "descriptor": values}]}
        return graph_from_json(json.dumps(doc)).points[0].descriptor

    def test_descriptor_norm_overflow(self):
        # finite entries whose norm overflows load as their unit vector
        assert self._descriptor([1e200, 1e200]).tolist() == self._descriptor([1, 1]).tolist()
        assert self._descriptor([-1e308, 0, 1e308]).tolist() == self._descriptor([-1, 0, 1]).tolist()
        # a finite norm keeps its bits, however large
        d = np.array([1e150, -3e150, 2e149])
        assert self._descriptor(d.tolist()).tolist() == (d / np.linalg.norm(d)).tolist()
        for values in ([math.inf, 1], [1e308, -math.inf], [math.nan, 1e308]):
            with pytest.raises(GraphFormatError, match="entries must be finite"):
                self._descriptor(values)

    def test_descriptor_norm_out_of_float_range_round_trips(self):
        for values in ([1e-170, 1e-170], [1e-160, 1e-160], [1e200, 1e200]):
            doc = {"points": [{"x": 1, "y": 2, "scale": 1, "orientation": 0, "descriptor": values}]}
            text = graph_to_json(graph_from_json(json.dumps(doc)))
            assert graph_to_json(graph_from_json(text)) == text

    def test_zero_descriptor_rejected(self):
        doc = '{"id": "x", "points": [{"x": 1, "y": 2, "scale": 1, "orientation": 0, "descriptor": [0, 0]}]}'
        with pytest.raises(GraphFormatError):
            graph_from_json(doc)

    def test_not_utf8_or_nested_too_deeply(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b'\xff\xfe{"points": []}')
        with pytest.raises(GraphFormatError, match="^not UTF-8 text: "):
            read_graph(path)
        with pytest.raises(GraphFormatError, match="^invalid JSON: nested too deeply$"):
            graph_from_json('{"points": ' + "[" * 200000 + "]" * 200000 + "}")


class TestExports:
    def test_dot_output(self):
        # edges given out of order are written in ascending (u, v) order
        gc = make_gc(4, [(2, 3), (0, 2), (1, 3), (0, 1)])
        assert conflict_graph_to_dot(gc) == (
            "graph conflict {\n"
            '  v0 [label="0:0 d=1.0000"];\n'
            '  v1 [label="1:1 d=1.0000"];\n'
            '  v2 [label="2:2 d=1.0000"];\n'
            '  v3 [label="3:3 d=1.0000"];\n'
            "  v0 -- v1;\n"
            "  v0 -- v2;\n"
            "  v1 -- v3;\n"
            "  v2 -- v3;\n"
            "}\n"
        )

    def test_match_result_json(self):
        r = MatchResult(
            pairs=((1, 2), (3, 0)),
            solver="bnb",
            proven_optimal=True,
            params=MatchParams(),
            feature_similarity_sum=1.8,
        )
        obj = json.loads(match_result_to_json(r))
        assert obj["pairs"] == [[1, 2], [3, 0]]
        assert obj["similarity"] == 2
        assert obj["proven_optimal"] is True
        assert obj["params"]["t_feat"] == 0.8
        assert obj["params"]["geom_weights"]["r0"] == 1.0

        w = GeomWeights(w_dist=0.5, w_bearing=0.0, w_scale=2.0, w_orient=1.5, r0=0.25)
        p = MatchParams(t_feat=0.3, t_geom=-0.2, limit_l=7, geom_weights=w)
        obj = json.loads(match_result_to_json(replace(r, params=p)))
        expected = {
            "t_feat": 0.3,
            "t_geom": -0.2,
            "limit_l": 7,
            "geom_weights": {"w_dist": 0.5, "w_bearing": 0.0, "w_scale": 2.0, "w_orient": 1.5, "r0": 0.25},
        }
        assert json.dumps(obj["params"]) == json.dumps(expected)  # values and key order

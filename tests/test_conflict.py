import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import adjacency, conflict_adjacency, graph_from_edges
from qimatch.conflict import (
    ConflictGraph,
    MatchCandidate,
    MatchParams,
    build_conflict_graph,
    generate_candidates,
)
from qimatch.errors import DegenerateGeometryError
from qimatch.graph_model import GeomWeights, ImageGraph, InterestPoint, d_geom, geom_relation
from qimatch.pipeline import apply_similarity, generate_synthetic, SyntheticSpec
from qimatch.rng import Xorshift64Star


def graph(points, descs=None, dim=4):
    """ImageGraph from (x, y) tuples; descriptors default to distinct axes."""
    pts = []
    for k, (x, y) in enumerate(points):
        if descs is not None:
            d = np.array(descs[k], dtype=float)
        else:
            d = np.zeros(dim)
            d[k % dim] = 1.0
        pts.append(InterestPoint(x=x, y=y, scale=1.0 + 0.1 * k, orientation=0.1 * k, descriptor=d))
    return ImageGraph(points=tuple(pts), id="t")


class TestGenerateCandidates:
    def test_single_identical_pair(self):
        g1 = graph([(0, 0)], descs=[[1, 0]])
        g2 = graph([(5, 5)], descs=[[1, 0]])
        cands = generate_candidates(g1, g2, MatchParams(t_feat=0.9))
        assert cands == [MatchCandidate(i=0, alpha=0, d=1.0)]

    def test_strict_threshold(self):
        g1 = graph([(0, 0)], descs=[[1, 0]])
        g2 = graph([(5, 5)], descs=[[0, 1]])
        assert generate_candidates(g1, g2, MatchParams(t_feat=0.0)) == []

    def test_truncation_matches_enumeration(self):
        rng = Xorshift64Star(11)
        dim = 6

        def rand_desc():
            return [rng.normal() for _ in range(dim)]

        d1 = [rand_desc() for _ in range(5)]
        d2 = [rand_desc() for _ in range(5)]
        # the second input duplicates descriptors, so similarities tie exactly
        tied1 = d1[:3] + d1[1:3]
        tied2 = d2[:2] + d2[:2] + d2[2:3]
        for descs1, descs2 in ((d1, d2), (tied1, tied2)):
            g1 = graph([(k, 0) for k in range(5)], descs=descs1)
            g2 = graph([(k, 1) for k in range(5)], descs=descs2)
            p = MatchParams(t_feat=0.0, limit_l=3)
            cands = generate_candidates(g1, g2, p)
            # brute force over all 25 pairs
            scored = []
            for i, a in itertools.product(range(5), range(5)):
                d = float(np.dot(g1.points[i].descriptor, g2.points[a].descriptor))
                if d > 0.0:
                    scored.append((-d, i, a))
            scored.sort()
            expected = [(i, a) for _, i, a in scored[:3]]
            assert [(c.i, c.alpha) for c in cands] == expected

    def test_dimension_mismatch(self):
        g1 = graph([(0, 0)], descs=[[1, 0]])
        g2 = graph([(0, 0)], descs=[[1, 0, 0]])
        with pytest.raises(ValueError):
            generate_candidates(g1, g2, MatchParams())

    def test_monotone_in_t_feat(self):
        g1, g2, _ = generate_synthetic(SyntheticSpec(n_inliers=6, n_outliers_per_image=4, seed=3))
        lo = generate_candidates(g1, g2, MatchParams(t_feat=-0.5, limit_l=1000))
        hi = generate_candidates(g1, g2, MatchParams(t_feat=0.2, limit_l=1000))
        assert set((c.i, c.alpha) for c in hi) <= set((c.i, c.alpha) for c in lo)


class TestBuildConflictGraph:
    def test_shared_i_rule1_edge(self):
        g1 = graph([(0, 0), (10, 0)], descs=[[1, 0], [1, 0]])
        g2 = graph([(0, 0), (10, 0)], descs=[[1, 0], [1, 0]])
        cands = [MatchCandidate(0, 0, 1.0), MatchCandidate(0, 1, 1.0)]
        gc = build_conflict_graph(g1, g2, cands, MatchParams(t_feat=0.5))
        assert (0, 1) in gc.edges

    def test_translated_copy_no_rule2_edges(self):
        pts = [(0, 0), (10, 3), (4, 12), (15, 8)]
        g1 = graph(pts)
        g2 = apply_similarity(g1, rotation=0.0, scale=1.0, translation=(7.0, -2.0))
        cands = [MatchCandidate(k, k, 1.0) for k in range(4)]
        gc = build_conflict_graph(g1, g2, cands, MatchParams(t_feat=0.0, t_geom=0.99))
        assert gc.edges == frozenset()

    def test_crossed_pairing_rule2_edge(self):
        # candidates cross a non-symmetric layout; residual evaluated by hand
        p1a = InterestPoint(0, 0, 1.0, 0.0, np.array([1.0, 0]))
        p1b = InterestPoint(10, 0, 3.0, 0.0, np.array([1.0, 0]))
        g1 = ImageGraph(points=(p1a, p1b))
        g2 = ImageGraph(points=(p1a, p1b))
        cands = [MatchCandidate(0, 1, 1.0), MatchCandidate(1, 0, 1.0)]
        w = GeomWeights()
        expected = d_geom(
            geom_relation(g1.points[0], g1.points[1]),
            geom_relation(g2.points[1], g2.points[0]),
            w,
        )
        assert expected < 0.0  # crossed geometry is inconsistent at t_geom = 0
        gc = build_conflict_graph(g1, g2, cands, MatchParams(t_feat=0.0, t_geom=0.0))
        assert (0, 1) in gc.edges

    def test_coincident_points_reported(self):
        g1 = graph([(0, 0), (0, 0)], descs=[[1, 0], [1, 0]])
        g2 = graph([(0, 0), (5, 5)], descs=[[1, 0], [1, 0]])
        cands = [MatchCandidate(0, 0, 1.0), MatchCandidate(1, 1, 1.0)]
        with pytest.raises(DegenerateGeometryError, match="0 and 1"):
            build_conflict_graph(g1, g2, cands, MatchParams(t_feat=0.0))

    def test_coincident_points_first_in_loop_order(self):
        # (c0, c1) meets coincident points in the second image before (c1, c2)
        # meets them in the first; at (c0, c1) of the second input both images
        # have them and the first image is named
        inputs = (
            ([(0, 0), (5, 5), (5, 5)], [(3, 3), (3, 3), (9, 1)], "1 and 0 in second image"),
            ([(0, 0), (0, 0), (5, 5)], [(3, 3), (3, 3), (9, 1)], "0 and 1 in first image"),
        )
        cands = [MatchCandidate(0, 1, 1.0), MatchCandidate(1, 0, 1.0), MatchCandidate(2, 2, 1.0)]
        p = MatchParams(t_feat=0.0)
        for pts1, pts2, named in inputs:
            g1, g2 = graph(pts1), graph(pts2)
            with pytest.raises(DegenerateGeometryError) as exc:
                build_conflict_graph(g1, g2, cands, p)
            assert str(exc.value) == f"coincident points {named} (graph 't') referenced by candidates"
            with pytest.raises(DegenerateGeometryError, match=re.escape(str(exc.value))):
                conflict_adjacency(g1, g2, cands, p)
        # a distance that rounds to 0 in units of the anchor's scale is coincident
        # too (geom_relation's math.log fails there with a bare "math domain error")
        d = np.array([1.0, 0.0])
        g1 = ImageGraph(points=(InterestPoint(0.0, 0.0, 2.0, 0.0, d), InterestPoint(5e-324, 0.0, 1.0, 0.0, d)))
        g2 = graph([(0, 0), (3, 0)])
        with pytest.raises(DegenerateGeometryError, match="0 and 1 in first image"):
            build_conflict_graph(g1, g2, [MatchCandidate(0, 0, 1.0), MatchCandidate(1, 1, 1.0)], p)

    def test_coincident_points_of_rule1_pairs_allowed(self):
        g1 = graph([(0, 0), (0, 0), (7, 2)])
        g2 = graph([(3, 3), (4, 9), (4, 9)])
        # only (c0, c1) and (c2, c3) see coincident points, and each shares a point
        cands = [MatchCandidate(0, 0, 1.0), MatchCandidate(1, 0, 1.0), MatchCandidate(2, 1, 1.0), MatchCandidate(2, 2, 1.0)]
        p = MatchParams(t_feat=0.0, t_geom=0.5)
        gc = build_conflict_graph(g1, g2, cands, p)
        assert np.array_equal(gc.adjacency, conflict_adjacency(g1, g2, cands, p))

    def test_same_edges_as_scalar_oracle(self):
        near_pi = (math.pi - 1e-10, -math.pi, -math.pi + 1e-12, math.nextafter(math.pi, 0.0))
        pairs = []
        for seed, (noise, rotation) in enumerate(
            itertools.product((0.0, 1.0, 8.0), (math.pi - 1e-10, -math.pi + 1e-9, 0.5))
        ):
            spec = SyntheticSpec(
                n_inliers=10, n_outliers_per_image=6, rotation=rotation, scale=1.3,
                translation=(20.0, -7.0), position_noise=noise, seed=seed,
            )
            pairs.append(generate_synthetic(spec)[:2])
        # orientations next to +-pi, and exact copies turned by almost +-pi
        g1 = pairs[0][0]
        g1 = ImageGraph(
            points=tuple(replace(q, orientation=near_pi[k % 4]) for k, q in enumerate(g1.points))
        )
        for rotation in (math.pi - 1e-10, -math.pi + 1e-10):
            pairs.append((g1, apply_similarity(g1, rotation=rotation, scale=0.8, translation=(3.0, 4.0))))
        weight_sets = (GeomWeights(), GeomWeights(w_bearing=0.0), GeomWeights(r0=25.0))
        for (g1, g2), w in itertools.product(pairs, weight_sets):
            cands = generate_candidates(g1, g2, MatchParams(t_feat=-0.5, limit_l=100))
            for t_geom in (-1.0, -0.5, 0.0, 0.5, 0.99):
                p = MatchParams(t_feat=-0.5, t_geom=t_geom, limit_l=100, geom_weights=w)
                gc = build_conflict_graph(g1, g2, cands, p)
                assert np.array_equal(gc.adjacency, conflict_adjacency(g1, g2, cands, p))

    def test_huge_coordinates_as_scalar_oracle(self):
        # differences overflow to inf and inf - inf is NaN, silently in the
        # scalar loop; the array build must neither warn nor draw other edges
        pts = [(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308), (5.0, 5.0)]
        g1, g2 = graph(pts), graph(pts[::-1])
        cands = [MatchCandidate(i, a, 1.0) for i in range(4) for a in range(4)]
        for t_geom in (-1.0, 0.0, 0.5):
            p = MatchParams(t_feat=-0.5, t_geom=t_geom)
            gc = build_conflict_graph(g1, g2, cands, p)
            assert np.array_equal(gc.adjacency, conflict_adjacency(g1, g2, cands, p))

    def test_monotone_in_t_geom(self):
        g1, g2, _ = generate_synthetic(
            SyntheticSpec(n_inliers=5, n_outliers_per_image=3, position_noise=4.0, seed=9)
        )
        cands = generate_candidates(g1, g2, MatchParams(t_feat=-0.5, limit_l=40))
        prev = None
        for tg in (-0.9, -0.5, 0.0, 0.5, 0.9):
            gc = build_conflict_graph(g1, g2, cands, MatchParams(t_feat=-0.5, t_geom=tg, limit_l=40))
            if prev is not None:
                assert prev <= gc.edges
            prev = gc.edges

    def test_transform_stability(self):
        for seed in range(5):
            g1, g2, _ = generate_synthetic(
                SyntheticSpec(n_inliers=6, n_outliers_per_image=3, position_noise=2.0, seed=seed)
            )
            p = MatchParams(t_feat=0.5, t_geom=0.0, limit_l=64)
            cands = generate_candidates(g1, g2, p)
            gc = build_conflict_graph(g1, g2, cands, p)
            rng = Xorshift64Star(seed + 100)
            g2t = apply_similarity(
                g2,
                rotation=rng.uniform_in(-math.pi, math.pi),
                scale=rng.uniform_in(0.5, 2.0),
                translation=(rng.uniform_in(-50, 50), rng.uniform_in(-50, 50)),
            )
            cands_t = generate_candidates(g1, g2t, p)
            gc_t = build_conflict_graph(g1, g2t, cands_t, p)
            assert cands == cands_t
            assert gc.edges == gc_t.edges

    def test_one_to_one_in_independent_sets(self):
        g1, g2, _ = generate_synthetic(SyntheticSpec(n_inliers=5, n_outliers_per_image=4, seed=17))
        p = MatchParams(t_feat=-0.5, t_geom=0.0, limit_l=20)
        cands = generate_candidates(g1, g2, p)
        gc = build_conflict_graph(g1, g2, cands, p)
        adj = adjacency(gc)
        # greedy independent sets from several starting vertices
        for start in range(gc.n):
            chosen = []
            for v in list(range(start, gc.n)) + list(range(start)):
                if all(v not in adj[u] for u in chosen):
                    chosen.append(v)
            firsts = [gc.vertices[v].i for v in chosen]
            seconds = [gc.vertices[v].alpha for v in chosen]
            assert len(set(firsts)) == len(firsts)
            assert len(set(seconds)) == len(seconds)


class TestConflictGraphInvariants:
    def test_missing_shared_endpoint_edge_rejected(self):
        cands = (MatchCandidate(0, 0, 1.0), MatchCandidate(0, 1, 1.0))
        with pytest.raises(ValueError):
            graph_from_edges(cands, [], MatchParams())
        # (0, 2) shares i, (1, 2) shares alpha; the first missing pair is named
        cands = (MatchCandidate(0, 0, 1.0), MatchCandidate(1, 1, 1.0), MatchCandidate(0, 1, 1.0))
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            graph_from_edges(cands, [], MatchParams())
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            graph_from_edges(cands, [(0, 2)], MatchParams())

    def test_bad_edge_rejected(self):
        cands = (MatchCandidate(0, 0, 1.0), MatchCandidate(1, 1, 1.0))
        wrong_shapes = (np.zeros((1, 1), dtype=bool), np.zeros((2, 3), dtype=bool))
        asymmetric = np.array([[False, True], [False, False]])
        for adj in (*wrong_shapes, asymmetric, np.eye(2, dtype=bool)):
            with pytest.raises(ValueError):
                ConflictGraph(vertices=cands, adjacency=adj, params=MatchParams())

    def test_adjacency_is_a_read_only_copy(self):
        cands = tuple(MatchCandidate(k, k, 1.0) for k in range(3))
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 2] = adj[2, 0] = True
        gc = ConflictGraph(vertices=cands, adjacency=adj, params=MatchParams())
        with pytest.raises(ValueError):
            gc.adjacency[0, 1] = True
        adj[0, 1] = adj[1, 0] = True
        assert gc.edges == frozenset({(0, 2)})
        assert not gc.adjacency[0, 1]
        assert all(type(k) is int for e in gc.edges for k in e)

    def test_cap_enforced(self):
        cands = tuple(MatchCandidate(k, k, 1.0) for k in range(3))
        with pytest.raises(ValueError):
            graph_from_edges(cands, [], MatchParams(limit_l=2))


class TestMatchParams:
    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            MatchParams(t_feat=1.0)
        with pytest.raises(ValueError):
            MatchParams(t_geom=-1.5)
        with pytest.raises(ValueError):
            MatchParams(limit_l=0)
        with pytest.raises(ValueError, match="limit_l must be an integer, got 2.5"):
            MatchParams(limit_l=2.5)
        assert type(MatchParams(limit_l=np.int64(3)).limit_l) is int

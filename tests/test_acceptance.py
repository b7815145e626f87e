"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    adjacency,
    brute_force_mis,
    min_energy_masks,
    random_bank,
    random_conflict_graph,
    randrange,
)
from qimatch.conflict import MatchParams, build_conflict_graph, generate_candidates
from qimatch.detector import DetectorParams, RasterImage, detect
from qimatch.graph_model import geom_relation, wrap_angle
from qimatch.pipeline import (
    SyntheticSpec,
    apply_similarity,
    generate_synthetic,
    match_images,
)
from qimatch.qubo import mis_to_qubo, read_qubo, write_qubo, QuboInstance
from qimatch.rng import Xorshift64Star
from qimatch.solvers import AnnealSchedule, solve_mis_bnb, solve_sa
from qimatch.pipeline import graph_from_json, graph_to_json

# decoded results accumulated by criteria 4 and 5, re-checked by criterion 6
DECODED_RESULTS = []


@pytest.fixture(scope="module")
def bench_instances():
    """100 random conflict graphs (5-20 vertices, density 0.1-0.9) with their
    brute-force ground truth."""
    instances = []
    for gc in random_bank():
        mis_size, mis_masks = brute_force_mis(gc.n, gc.edges)
        instances.append((gc, mis_size, mis_masks))
    return instances


def test_criterion_1_mis_qubo_exactness(bench_instances):
    t0 = time.perf_counter()
    for gc, mis_size, mis_masks in bench_instances:
        q = mis_to_qubo(gc)
        emin, argmins = min_energy_masks(q.n, q.terms)
        assert emin == -mis_size
        assert argmins == mis_masks
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: MIS<->QUBO exactness on 100 graphs ({elapsed:.1f}s)")


def test_criterion_2_complete_solver_agreement(bench_instances):
    for gc, mis_size, _ in bench_instances:
        mis, proven = solve_mis_bnb(gc)
        assert proven and len(mis) == mis_size
    rng = Xorshift64Star(42)
    graphs = [random_conflict_graph(rng, 60, 0.3) for _ in range(3)]
    graphs.append(random_conflict_graph(rng, 1000, 0.0))  # the clique-cover bound's worst shape
    times = []
    for gc in graphs:
        t0 = time.perf_counter()
        mis, proven = solve_mis_bnb(gc)
        dt = time.perf_counter() - t0
        times.append(dt)
        assert proven and dt < 10.0
        adj = adjacency(gc)
        assert all(v not in adj[u] for u in mis for v in mis)
    print(
        "\nPASS criterion 2: branch-and-bound agrees on 100 graphs; "
        f"60-vertex instances and an edgeless 1000-vertex one solved in {max(times):.2f}s worst case"
    )


def test_criterion_3_sa_quality(bench_instances):
    hits = 0
    for idx, (gc, mis_size, _) in enumerate(bench_instances):
        q = mis_to_qubo(gc)
        res = solve_sa(q, AnnealSchedule(seed=idx))
        assert res.best_energy <= 0.0
        if res.best_energy == -mis_size:
            hits += 1
    assert hits >= 95
    # bit-identical determinism on a few instances
    for idx in (0, 1, 2):
        gc, _, _ = bench_instances[idx]
        q = mis_to_qubo(gc)
        r1 = solve_sa(q, AnnealSchedule(seed=7 * idx))
        r2 = solve_sa(q, AnnealSchedule(seed=7 * idx))
        assert r1.best.bits == r2.best.bits and r1.best_energy == r2.best_energy
    print(f"\nPASS criterion 3: SA reached the optimum on {hits}/100 instances (>= 95)")


def test_criterion_4_similarity_invariance():
    rng = Xorshift64Star(4)
    p = MatchParams(t_feat=0.9, t_geom=0.0)
    for trial in range(50):
        g1, g2, _ = generate_synthetic(
            SyntheticSpec(
                n_inliers=6,
                n_outliers_per_image=2,
                rotation=rng.uniform_in(-math.pi, math.pi),
                scale=rng.uniform_in(0.7, 1.4),
                translation=(rng.uniform_in(-30, 30), rng.uniform_in(-30, 30)),
                position_noise=0.5,
                seed=trial,
            )
        )
        phi = rng.uniform_in(-math.pi, math.pi)
        s = rng.uniform_in(0.5, 2.0)
        t = (rng.uniform_in(-100, 100), rng.uniform_in(-100, 100))
        g2t = apply_similarity(g2, rotation=phi, scale=s, translation=t)

        # relative-pose components are transform invariant to 1e-9
        for a, b in ((0, 1), (1, 2)):
            r = geom_relation(g2.points[a], g2.points[b])
            rt = geom_relation(g2t.points[a], g2t.points[b])
            assert rt.log_dist == pytest.approx(r.log_dist, abs=1e-9)
            assert wrap_angle(rt.bearing - r.bearing) == pytest.approx(0.0, abs=1e-9)
            assert rt.log_scale_ratio == pytest.approx(r.log_scale_ratio, abs=1e-9)
            assert wrap_angle(rt.d_orient - r.d_orient) == pytest.approx(0.0, abs=1e-9)

        cands = generate_candidates(g1, g2, p)
        cands_t = generate_candidates(g1, g2t, p)
        assert cands == cands_t
        gc = build_conflict_graph(g1, g2, cands, p)
        gc_t = build_conflict_graph(g1, g2t, cands_t, p)
        assert gc.edges == gc_t.edges

        r = match_images(g1, g2, p, solver="bnb")
        rt = match_images(g1, g2t, p, solver="bnb")
        assert set(r.pairs) == set(rt.pairs)
        DECODED_RESULTS.extend([r, rt])
    print("\nPASS criterion 4: conflict graph and matches invariant on 50 transformed pairs")


def test_criterion_5_end_to_end_recovery():
    p = MatchParams(t_feat=0.9, t_geom=0.0)
    # zero noise: exact recovery on every seed
    for seed in range(50):
        g1, g2, truth = generate_synthetic(
            SyntheticSpec(
                n_inliers=8,
                n_outliers_per_image=3,
                rotation=0.3 + 0.01 * seed,
                scale=1.1,
                translation=(20.0, -15.0),
                seed=seed,
            )
        )
        r = match_images(g1, g2, p, solver="bnb")
        assert set(truth) <= set(r.pairs), f"seed {seed} missed ground truth"
        DECODED_RESULTS.append(r)
    # 1-pixel position noise in a 512-pixel field: recall >= 7/8 on >= 45/50 seeds
    good = 0
    for seed in range(50):
        g1, g2, truth = generate_synthetic(
            SyntheticSpec(
                n_inliers=8,
                n_outliers_per_image=3,
                rotation=0.3 + 0.01 * seed,
                scale=1.1,
                translation=(20.0, -15.0),
                position_noise=1.0,
                field_size=512.0,
                seed=1000 + seed,
            )
        )
        r = match_images(g1, g2, p, solver="bnb")
        recall = len(set(truth) & set(r.pairs))
        if recall >= 7:
            good += 1
        DECODED_RESULTS.append(r)
    assert good >= 45
    print(f"\nPASS criterion 5: zero-noise recovery 50/50; noisy recall >= 7/8 on {good}/50 seeds")


def test_criterion_6_one_to_one():
    assert DECODED_RESULTS, "criteria 4 and 5 must run first"
    for r in DECODED_RESULTS:
        firsts = [i for i, _ in r.pairs]
        seconds = [a for _, a in r.pairs]
        assert len(set(firsts)) == len(firsts)
        assert len(set(seconds)) == len(seconds)
    print(f"\nPASS criterion 6: one-to-one constraint held in all {len(DECODED_RESULTS)} decoded results")


def test_criterion_7_format_round_trips():
    rng = Xorshift64Star(7)
    for _ in range(100):
        n = 1 + randrange(rng, 24)
        terms = {}
        for i in range(n):
            for j in range(i, n):
                u = rng.uniform()
                if u < 0.25:
                    terms[(i, j)] = rng.normal() * 5
                elif u < 0.35:
                    terms[(i, j)] = float(randrange(rng, 21) - 10)
        q = QuboInstance(n=n, terms=terms)
        text = write_qubo(q)
        assert write_qubo(read_qubo(text)) == text
    for seed in range(100):
        g, _, _ = generate_synthetic(
            SyntheticSpec(
                n_inliers=4,
                n_outliers_per_image=2,
                position_noise=1.0,
                descriptor_noise=0.1,
                seed=seed,
            )
        )
        text = graph_to_json(g)
        assert graph_to_json(graph_from_json(text)) == text
    print("\nPASS criterion 7: QUBO and graph files round-trip byte-exactly (100 each)")


def test_criterion_8_detector_sanity():
    size = 256
    centers = [(64 + 64 * i, 64 + 64 * j) for i in range(3) for j in range(3)]
    blob_sigmas = [3.0, 4.0, 5.0]
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for k, (cx, cy) in enumerate(centers):
        sb = blob_sigmas[k % 3]
        img += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sb * sb))
    raster = RasterImage(np.clip(img, 0.0, 1.0))
    params = DetectorParams(
        n_scales=9,
        sigma0=2.0,
        scale_step=1.35,
        response_threshold=0.01,
        max_points=9,
        descriptor_bins=16,
    )
    pts = detect(raster, params)
    assert len(pts) == 9
    for k, (cx, cy) in enumerate(centers):
        sb = blob_sigmas[k % 3]
        near = [p for p in pts if abs(p.x - cx) <= 1 and abs(p.y - cy) <= 1]
        assert len(near) == 1, f"blob at ({cx}, {cy}) not localized"
        ratio = near[0].scale / sb
        assert 1 / params.scale_step <= ratio <= params.scale_step

    flat = RasterImage(np.full((size, size), 0.5))
    assert detect(flat, params) == []
    print("\nPASS criterion 8: all 9 blobs localized within 1 px, scales within one step; flat image clean")

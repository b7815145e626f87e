#!/usr/bin/env python3
"""End-to-end demo from pixels: render two blob images related by a 90-degree
rotation, detect interest points, and match the resulting graphs."""

import numpy as np

from qimatch.conflict import MatchParams
from qimatch.detector import DetectorParams, RasterImage, detect
from qimatch.graph_model import ImageGraph
from qimatch.pipeline import match_images
from qimatch.rng import Xorshift64Star

BLOBS, SIZE, SEED = 8, 192, 1


def render(size, blobs):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for cx, cy, sb in blobs:
        img += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sb * sb))
    # a gentle ramp gives points non-degenerate orientations
    img += 0.2 * (xx + 0.5 * yy) / (1.5 * size)
    return np.clip(img, 0.0, 1.0)


def main():
    rng = Xorshift64Star(SEED)
    blobs = [
        (
            rng.uniform_in(0.2 * SIZE, 0.8 * SIZE),
            rng.uniform_in(0.2 * SIZE, 0.8 * SIZE),
            rng.uniform_in(3.0, 5.0),
        )
        for _ in range(BLOBS)
    ]
    img1 = render(SIZE, blobs)
    img2 = np.rot90(img1, k=-1).copy()

    params = DetectorParams(
        sigma0=2.0, scale_step=1.35, n_scales=7,
        response_threshold=0.005, max_points=2 * BLOBS,
    )
    g1 = ImageGraph(
        points=tuple(detect(RasterImage(img1), params)), id="img1"
    )
    g2 = ImageGraph(
        points=tuple(detect(RasterImage(img2), params)), id="img2"
    )
    print(f"detected {len(g1)} / {len(g2)} points")

    result = match_images(g1, g2, MatchParams(t_feat=0.7, t_geom=0.0), solver="bnb")
    print(f"similarity (MIS size): {result.similarity}, optimal: {result.proven_optimal}")
    for i, a in result.pairs:
        p, q = g1.points[i], g2.points[a]
        print(f"  ({p.x:6.1f},{p.y:6.1f}) -> ({q.x:6.1f},{q.y:6.1f})")


if __name__ == "__main__":
    main()

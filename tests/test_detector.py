import math
import random

import numpy as np
import pytest

from oracles import pgm_tokens, ranked_extrema
from qimatch.detector import (
    DetectorParams,
    PgmFormatError,
    RasterImage,
    _orientation_histogram,
    _pgm_tokens,
    detect,
    log_response,
    read_pgm,
)
from qimatch.graph_model import wrap_angle


def blob_image(size, blobs):
    """Sum of Gaussian blobs; blobs is a list of (cx, cy, sigma)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for cx, cy, sb in blobs:
        img += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sb * sb))
    return RasterImage(np.clip(img, 0.0, 1.0))


def test_constant_image_zero_response():
    img = RasterImage(np.full((16, 16), 0.5))
    assert np.allclose(log_response(img, 2.0), 0.0, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
def test_log_response_rejects_nonpositive_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be > 0"):
        log_response(RasterImage(np.full((8, 8), 0.5)), sigma)


def test_flat_window_has_no_orientation_histogram():
    assert _orientation_histogram(np.full((16, 16), 0.5), 8, 8, 1.5, 8) is None


def test_blank_image_no_detections():
    img = RasterImage(np.full((32, 32), 0.25))
    assert detect(img, DetectorParams()) == []


def test_blob_response_peaks_near_blob_scale():
    # scale-normalized response at the center is extremal for sigma ~ sigma_b
    sb = 4.0
    img = blob_image(64, [(32, 32, sb)])
    sigmas = [1.5 * 1.15**k for k in range(16)]
    responses = [abs(log_response(img, s)[32, 32]) for s in sigmas]
    best = sigmas[int(np.argmax(responses))]
    assert sb / 1.15 <= best <= sb * 1.15


def test_two_blobs_detected_within_one_pixel():
    img = blob_image(96, [(28, 30, 3.0), (70, 66, 3.0)])
    pts = detect(img, DetectorParams(sigma0=1.8, scale_step=1.4, n_scales=6,
                                     response_threshold=0.01, max_points=4))
    for cx, cy in [(28, 30), (70, 66)]:
        assert any(abs(p.x - cx) <= 1 and abs(p.y - cy) <= 1 for p in pts)


def test_blob_grid_positions_and_scales():
    centers = [(30 + 60 * i, 30 + 60 * j) for i in range(3) for j in range(3)]
    sb = 3.5
    img = blob_image(192, [(cx, cy, sb) for cx, cy in centers])
    params = DetectorParams(sigma0=1.8, scale_step=1.35, n_scales=7,
                            response_threshold=0.01, max_points=9)
    pts = detect(img, params)
    assert len(pts) == 9
    for cx, cy in centers:
        near = [p for p in pts if abs(p.x - cx) <= 1 and abs(p.y - cy) <= 1]
        assert len(near) == 1
        assert 1 / params.scale_step <= near[0].scale / sb <= params.scale_step


def edge_blob_image(size):
    """A blob next to an intensity ramp, giving points a well-defined
    orientation; the pattern is 4-fold rotation friendly."""
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    c = size / 2.0
    img = np.exp(-((xx - c) ** 2 + (yy - c) ** 2) / (2 * 4.0**2))
    img += 0.3 * (xx / size)
    return np.clip(img, 0.0, 1.0)


def test_rotation_rotates_orientations():
    size = 96
    base = edge_blob_image(size)
    rot = np.rot90(base, k=-1)  # 90 degrees clockwise in array terms
    params = DetectorParams(sigma0=2.0, scale_step=1.4, n_scales=6,
                            response_threshold=0.005, max_points=3, descriptor_bins=16)
    p0 = detect(RasterImage(base), params)
    p1 = detect(RasterImage(rot), params)
    assert p0 and p1
    a, b = p0[0], p1[0]
    # np.rot90(k=-1) maps (x, y) -> (size-1-y, x): a rotation by +pi/2
    assert abs(b.x - (size - 1 - a.y)) <= 1 and abs(b.y - a.x) <= 1
    assert abs(wrap_angle(b.orientation - a.orientation - math.pi / 2)) < 0.1
    assert np.dot(a.descriptor, b.descriptor) >= 0.9


def test_determinism_bit_for_bit():
    img = blob_image(96, [(30, 40, 3.0), (66, 60, 4.0)])
    params = DetectorParams(sigma0=1.8, scale_step=1.4, n_scales=6,
                            response_threshold=0.005, max_points=10)
    a = detect(img, params)
    b = detect(img, params)
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert (p.x, p.y, p.scale, p.orientation) == (q.x, q.y, q.scale, q.orientation)
        assert p.descriptor.tolist() == q.descriptor.tolist()


def test_points_inside_borders_and_capped():
    img = blob_image(64, [(20, 20, 3.0), (44, 44, 3.0)])
    params = DetectorParams(sigma0=1.5, scale_step=1.3, n_scales=7,
                            response_threshold=0.0, max_points=5)
    pts = detect(img, params)
    assert len(pts) <= 5
    for p in pts:
        assert 1 <= p.x <= 62 and 1 <= p.y <= 62
        assert np.linalg.norm(p.descriptor) == pytest.approx(1.0, abs=1e-9)


def test_one_point_per_pixel():
    # a narrow bright blob inside a wide dark one: LoG extrema at the same
    # pixel on two scales two or more steps apart
    yy, xx = np.mgrid[0:96, 0:96].astype(float)
    r2 = (xx - 47) ** 2 + (yy - 45) ** 2
    img = 0.5 + 0.3 * np.exp(-r2 / (2 * 3.0**2)) - 0.25 * np.exp(-r2 / (2 * 10.0**2))
    pts = detect(RasterImage(img))
    assert [(p.x, p.y) for p in pts] == [(47.0, 45.0)]
    assert pts[0].scale == pytest.approx(2.8)  # the stronger, finer extremum


@pytest.mark.parametrize("max_points", [8, 500])
@pytest.mark.parametrize("seed", range(4))
def test_ranking_matches_brute_force(seed, max_points):
    # seeded noise over a narrow bright blob inside a wide dark one, so that
    # the centre pixel is an extremum on two scales
    yy, xx = np.mgrid[0:32, 0:32].astype(float)
    r2 = (xx - 15) ** 2 + (yy - 16) ** 2
    px = 0.5 + 0.3 * np.exp(-r2 / (2 * 1.5**2)) - 0.25 * np.exp(-r2 / (2 * 4.0**2))
    px = np.clip(px + 0.05 * np.random.default_rng(seed).random((32, 32)), 0.0, 1.0)
    img = RasterImage(px)
    p = DetectorParams(sigma0=0.8, scale_step=1.4, response_threshold=0.0, max_points=max_points)
    expected = [(float(x), float(y), p.sigmas[k]) for k, y, x in ranked_extrema(img, p)]
    assert [(q.x, q.y, q.scale) for q in detect(img, p)] == expected


def test_params_validation():
    for bad in (
        dict(n_scales=2),
        dict(sigma0=0.0),
        dict(sigma0=math.nan),
        dict(scale_step=1.0),
        dict(sigma0=math.inf),
        dict(sigma0=1e308),
        dict(scale_step=math.inf),
        dict(n_scales=3000),
        dict(response_threshold=-0.1),
        dict(response_threshold=math.nan),
        dict(response_threshold=math.inf),
        dict(max_points=0),
        dict(descriptor_bins=3),
        dict(n_scales=3.5),
        dict(max_points=2.5),
        dict(descriptor_bins=4.5),
    ):
        with pytest.raises(ValueError):
            DetectorParams(**bad)


def test_small_image_rejected():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((2, 2)))


def test_raster_values_rejected():
    for value in (-0.01, 1.01, math.nan):
        px = np.full((8, 8), 0.5)
        px[3, 4] = value
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RasterImage(px)
    with pytest.raises(ValueError, match="2-D"):
        RasterImage(np.zeros((8, 8, 1)))


class TestPgm:
    def test_ascii_p2(self, tmp_path):
        f = tmp_path / "a.pgm"
        for text in (
            b"P2\n# comment\n3 3\n255\n0 128 255 0 0 0 255 255 255\n",
            b"P2\r\n3# glued comment\r\n3\r\n255\r\n0 128 255 0 0 0 255 255 255\r\n",
        ):
            f.write_bytes(text)
            img = read_pgm(f)
            assert img.pixels.shape == (3, 3)
            assert img.pixels[0, 1] == pytest.approx(128 / 255)
            assert img.pixels[0, 2] == 1.0

    def test_lexer_matches_reference(self):
        rng = random.Random(5)
        alphabet = [bytes([c]) for c in b" \t\r\n#\v\f07Px\x00\xff"]
        for _ in range(3000):
            data = b"".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            assert list(_pgm_tokens(data)) == list(pgm_tokens(data)), data

    def test_binary_p5(self, tmp_path):
        f = tmp_path / "b.pgm"
        f.write_bytes(b"P5\n3 3\n255\n" + bytes(range(9)))
        img = read_pgm(f)
        assert img.pixels[2, 2] == pytest.approx(8 / 255)

    def test_binary_p5_16bit(self, tmp_path):
        f = tmp_path / "c.pgm"
        data = (np.arange(9) * 7000).astype(">u2")
        f.write_bytes(b"P5\n3 3\n65535\n" + data.tobytes())
        img = read_pgm(f)
        assert img.pixels[1, 1] == pytest.approx(4 * 7000 / 65535)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "d.pgm"
        f.write_text("P6\n3 3\n255\n")
        with pytest.raises(PgmFormatError):
            read_pgm(f)

    # the 100000x100000 headers below are rejected before any allocation
    def test_truncated_binary(self, tmp_path):
        f = tmp_path / "e.pgm"
        for header in (b"P5\n3 3\n255\n", b"P5\n100000 100000\n255\n"):
            f.write_bytes(header + b"\x00\x01")
            with pytest.raises(PgmFormatError):
                read_pgm(f)

    def test_missing_pixels_ascii(self, tmp_path):
        f = tmp_path / "f.pgm"
        for header in ("P2\n3 3\n255\n", "P2\n100000 100000\n255\n"):
            f.write_text(header + "0 1 2\n")
            with pytest.raises(PgmFormatError):
                read_pgm(f)

    def test_bad_maxval(self, tmp_path):
        f = tmp_path / "g.pgm"
        f.write_text("P2\n3 3\n70000\n" + "0 " * 9)
        with pytest.raises(PgmFormatError):
            read_pgm(f)

"""Laplacian-of-Gaussians interest point detector and PGM image input.

Builds a scale-normalized LoG stack over a geometric scale grid, keeps 3x3x3
extrema, and equips each point with an orientation (smoothed gradient
direction) and a rotated gradient-orientation histogram descriptor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import ParseError, require_ints
from .graph_model import InterestPoint, wrap_angle


class PgmFormatError(ParseError):
    pass


@dataclass(frozen=True)
class RasterImage:
    """Grayscale raster with values in [0, 1], row-major."""

    pixels: np.ndarray  # shape (height, width)

    def __post_init__(self):
        px = np.array(self.pixels, dtype=float)  # a copy
        if px.ndim != 2 or min(px.shape) < 3:
            raise ValueError(f"image must be a 2-D array of at least 3x3, got shape {px.shape}")
        if not (px.min() >= 0.0 and px.max() <= 1.0):  # NaN fails both
            raise ValueError("pixel values must lie in [0, 1]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class DetectorParams:
    n_scales: int = 8
    sigma0: float = 2.0
    scale_step: float = 1.4
    response_threshold: float = 0.02
    max_points: int = 500
    descriptor_bins: int = 16

    def __post_init__(self):
        require_ints(self, "n_scales", "max_points", "descriptor_bins")
        if self.n_scales < 3:
            raise ValueError("n_scales must be >= 3")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be > 0")
        if not self.scale_step > 1:
            raise ValueError("scale_step must be > 1")
        try:
            radius = 3.0 * self.sigma0 * self.scale_step ** (self.n_scales - 1)
        except OverflowError:
            radius = math.inf
        if not radius < math.inf:
            raise ValueError("3 * sigma0 * scale_step**(n_scales - 1) must be finite")
        if not 0 <= self.response_threshold < math.inf:
            raise ValueError("response_threshold must be finite and >= 0")
        if self.max_points < 1:
            raise ValueError("max_points must be >= 1")
        if self.descriptor_bins < 4:
            raise ValueError("descriptor_bins must be >= 4")

    @property
    def sigmas(self) -> tuple[float, ...]:
        return tuple(self.sigma0 * self.scale_step**k for k in range(self.n_scales))


def _gaussian_blur(pixels: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian with kernel radius ceil(3*sigma), edge-clamped borders."""
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    out = ndimage.correlate1d(pixels, kernel, axis=0, mode="nearest")
    return ndimage.correlate1d(out, kernel, axis=1, mode="nearest")


def _laplacian(a: np.ndarray, sigma: float) -> np.ndarray:
    """sigma^2 times the 5-point stencil, with edge-clamped borders."""
    p = np.pad(a, 1, mode="edge")
    return sigma * sigma * (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * a)


def _orientation_histogram(
    blurred: np.ndarray,
    x: int,
    y: int,
    sigma: float,
    bins: int,
) -> tuple[float, np.ndarray] | None:
    """Gradient direction at the interior pixel (x, y), and the gradient-orientation
    histogram over a Gaussian-weighted disk of radius 3*sigma around it.

    The bin axis is rotated by that direction, so descriptors of a rotated
    pattern stay comparable.  The histogram is returned as summed, and
    InterestPoint makes it a unit vector.  Returns None when its norm is 0,
    as when every gradient in the window vanishes.
    """
    h, w = blurred.shape
    radius = math.ceil(3.0 * sigma)
    # gradients need x+-1, y+-1 in bounds
    y0, y1 = max(1, y - radius), min(h - 2, y + radius)
    x0, x1 = max(1, x - radius), min(w - 2, x + radius)
    win = blurred[y0 - 1 : y1 + 2, x0 - 1 : x1 + 2]
    gx = 0.5 * (win[1:-1, 2:] - win[1:-1, :-2])
    gy = 0.5 * (win[2:, 1:-1] - win[:-2, 1:-1])
    orientation = wrap_angle(math.atan2(gy[y - y0, x - x0], gx[y - y0, x - x0]))
    yy, xx = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    r2 = (xx - x) ** 2 + (yy - y) ** 2
    inside = r2 <= radius * radius
    mag = np.hypot(gx, gy)
    weight = mag * np.exp(-r2 / (2.0 * (1.5 * sigma) ** 2)) * inside
    ang = np.arctan2(gy, gx) - orientation
    # linear interpolation into circular bins
    t = (ang / (2.0 * math.pi)) % 1.0 * bins
    lo = np.floor(t).astype(int) % bins
    frac = t - np.floor(t)
    hist = np.zeros(bins)
    np.add.at(hist, lo, weight * (1.0 - frac))
    np.add.at(hist, (lo + 1) % bins, weight * frac)
    if float(np.linalg.norm(hist)) == 0.0:
        return None
    return orientation, hist


def detect(img: RasterImage, p: DetectorParams = DetectorParams()) -> list[InterestPoint]:
    """Detect LoG scale-space extrema and describe them.

    Extrema are strict 3x3x3 extrema of the response stack with
    |response| > response_threshold; the outermost pixel frame and scale
    layers are discarded.  Candidates are ranked by |response| descending
    (ties by scale index, then y, then x); at each pixel only the
    highest-ranked extremum is kept, since two points at one position have no
    relative pose.  The survivors are truncated to max_points.
    """
    sigmas = p.sigmas
    blurred = [_gaussian_blur(img.pixels, s) for s in sigmas]
    stack = np.stack([_laplacian(b, s) for s, b in zip(sigmas, blurred)])

    h, w = img.pixels.shape
    extrema = np.zeros(stack.shape, dtype=bool)
    for k in range(1, p.n_scales - 1):
        core = stack[k, 1:-1, 1:-1]
        gt = np.ones_like(core, dtype=bool)
        lt = np.ones_like(core, dtype=bool)
        for dk in range(3):
            for dy in range(3):
                for dx in range(3):
                    if (dk, dy, dx) == (1, 1, 1):
                        continue
                    nb = stack[k - 1 + dk, dy : dy + h - 2, dx : dx + w - 2]
                    gt &= core > nb
                    lt &= core < nb
        extrema[k, 1:-1, 1:-1] = (gt | lt) & (np.abs(core) > p.response_threshold)

    ks, ys, xs = np.nonzero(extrema)
    order = np.lexsort((xs, ys, ks, -np.abs(stack[ks, ys, xs])))
    _, first = np.unique((ys * w + xs)[order], return_index=True)
    keep = order[np.sort(first)][: p.max_points]

    points = []
    for k, y, x in np.stack((ks, ys, xs), axis=1)[keep].tolist():
        found = _orientation_histogram(blurred[k], x, y, sigmas[k], p.descriptor_bins)
        if found is None:
            continue
        orientation, desc = found
        points.append(
            InterestPoint(
                x=float(x),
                y=float(y),
                scale=sigmas[k],
                orientation=orientation,
                descriptor=desc,
            )
        )
    return points


_PGM_TOKEN = re.compile(rb"#[^\r\n]*|([^ \t\r\n#]+)")


def _pgm_tokens(data: bytes):
    """Yield (token, end_offset) for whitespace-separated header tokens,
    skipping '#' comments."""
    return ((m[1], m.end()) for m in _PGM_TOKEN.finditer(data) if m[1])


def read_pgm(path) -> RasterImage:
    """Read an ASCII (P2) or binary (P5) PGM file, rescaled to [0, 1]."""
    data = Path(path).read_bytes()
    tokens = _pgm_tokens(data)

    def next_token(what):
        try:
            return next(tokens)
        except StopIteration:
            raise PgmFormatError(f"unexpected end of file while reading {what}") from None

    magic, _ = next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"not a PGM file (magic {magic!r})")
    header = []
    for what in ("width", "height", "maxval"):
        tok, end = next_token(what)
        if not tok.isdigit():  # ASCII digits only: int() would also take signs and '_'
            raise PgmFormatError(f"invalid {what}: {tok!r}")
        header.append(int(tok))
    width, height, maxval = header
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise PgmFormatError(f"maxval {maxval} out of range (1..65535)")

    count = width * height
    if magic == b"P2":
        values = []
        for tok, _ in tokens:
            if not tok.isdigit():
                raise PgmFormatError(f"invalid pixel value {tok!r}")
            values.append(int(tok))
        if len(values) != count:
            raise PgmFormatError(f"expected {count} pixels, got {len(values)}")
        arr = np.array(values, dtype=float)
    else:
        # binary data starts after exactly one whitespace byte past maxval
        start = end + 1
        raw = data[start:]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = count * dtype.itemsize
        if len(raw) < need:
            raise PgmFormatError(f"truncated pixel data: need {need} bytes, got {len(raw)}")
        arr = np.frombuffer(raw[:need], dtype=dtype).astype(float)

    if arr.max() > maxval:  # digits and unsigned samples are never negative
        raise PgmFormatError("pixel value out of range")
    return RasterImage((arr / maxval).reshape(height, width))

"""Image-side features: semantic masks, IDT height maps, Hough lines.

Masks arrive as binary PGM files produced by any upstream segmenter; this
module turns them into smooth per-pixel height maps (an inverse distance
transform) and fitted 2D lines for the coarse pose solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .errors import DimensionMismatch, EmptyTarget, InsufficientLines, NoLines, ParseError
from .fileio import load_pgm
from .geometry import Intrinsics, Line2D

_INF = np.iinfo(np.int64).max // 4


@dataclass(frozen=True)
class SemanticMask:
    cls: str                 # "lane" or "pole"
    bits: np.ndarray         # (h, w) bool, row-major

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.dtype != bool:
            b = b.astype(bool)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def set_count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class HeightMap:
    values: np.ndarray       # (h, w) float in (0, 1)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def sample(self, u, v):
        """Nearest-pixel lookup; out-of-frame coordinates give 0."""
        iu = np.rint(np.asarray(u)).astype(int)
        iv = np.rint(np.asarray(v)).astype(int)
        h, w = self.values.shape
        ok = (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
        out = np.zeros(np.shape(iu))
        out[ok] = self.values[iv[ok], iu[ok]]
        return out

    def sample_bilinear(self, u, v):
        """Bilinear lookup, so the alignment cost varies smoothly with the
        pose; out-of-frame coordinates give 0.  u and v may have any
        (matching) shape; the result has that shape."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        h, w = self.values.shape
        ok = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
        uc = np.where(ok, u, 0.0)
        vc = np.where(ok, v, 0.0)
        u0 = np.minimum(uc.astype(int), w - 2)
        v0 = np.minimum(vc.astype(int), h - 2)
        fu = uc - u0
        fv = vc - v0
        gu = 1 - fu
        gv = 1 - fv
        # flat gathers of the four neighbours: the same values as 2-D
        # fancy indexing, at a fraction of its cost
        g = self.values.ravel()
        i = v0 * w + u0
        val = g.take(i) * gu * gv
        val += g[1:].take(i) * fu * gv
        val += g[w:].take(i) * gu * fv
        val += g[w + 1:].take(i) * fu * fv
        return np.where(ok, val, 0.0)


def load_mask(path, cls: str, intrinsics: Intrinsics | None = None) -> SemanticMask:
    img = load_pgm(path)
    if intrinsics is not None and (
        img.shape[1] != intrinsics.width or img.shape[0] != intrinsics.height
    ):
        raise DimensionMismatch(
            f"{path}: mask is {img.shape[1]}x{img.shape[0]}, "
            f"intrinsics say {intrinsics.width}x{intrinsics.height}"
        )
    if cls not in ("lane", "pole"):
        raise ParseError(f"unknown mask class {cls!r}")
    return SemanticMask(cls=cls, bits=img > 127)


def _sweep_rows(init: np.ndarray) -> np.ndarray:
    """1D unit-cost relaxation along axis 0, forward then backward."""
    d = init.copy()
    for y in range(1, d.shape[0]):
        np.minimum(d[y], d[y - 1] + 1, out=d[y])
    for y in range(d.shape[0] - 2, -1, -1):
        np.minimum(d[y], d[y + 1] + 1, out=d[y])
    return d


def l1_distance_field(mask: SemanticMask, from_set: bool) -> np.ndarray:
    """Exact per-pixel L1 distance to the nearest set (or unset) pixel.

    Two forward/backward unit-cost sweeps (rows then columns); equal to
    the brute-force minimum over all target pixels.
    """
    target = mask.bits if from_set else ~mask.bits
    if not target.any():
        raise EmptyTarget("mask has no target pixel for the distance field")
    init = np.where(target, 0, _INF).astype(np.int64)
    d = _sweep_rows(init)
    d = _sweep_rows(d.T).T
    return d


def _l1_distance_with_border(mask: SemanticMask, from_set: bool) -> np.ndarray:
    """L1 distance where everything outside the frame counts as unset."""
    h, w = mask.bits.shape
    target = mask.bits if from_set else ~mask.bits
    init = np.where(target, 0, _INF).astype(np.int64)
    if not from_set:
        # virtual unset pixels just outside every border
        ys = np.arange(h)[:, None]
        xs = np.arange(w)[None, :]
        border = np.minimum(np.minimum(ys + 1, h - ys), np.minimum(xs + 1, w - xs))
        init = np.minimum(init, border)
    elif not target.any():
        raise EmptyTarget("mask has no set pixel")
    d = _sweep_rows(init)
    d = _sweep_rows(d.T).T
    return d


def idt_height_map(mask: SemanticMask, gamma0: float, gamma1: float) -> HeightMap:
    """Inverse distance transform of a binary mask.

    Inside the mask the value is gamma0 ** d(complement), outside it is
    gamma1 ** d(mask), d the L1 distance.  Out-of-frame pixels count as
    complement, so a mask touching the border still decays there.
    """
    if not (0 < gamma0 < 1 and 0 < gamma1 < 1):
        raise ValueError("gamma0, gamma1 must lie in (0, 1)")
    if not mask.bits.any():
        raise EmptyTarget("empty mask")
    d_to_unset = _l1_distance_with_border(mask, from_set=False)
    d_to_set = l1_distance_field(mask, from_set=True)
    values = np.where(
        mask.bits,
        np.power(gamma0, d_to_unset.astype(float)),
        np.power(gamma1, d_to_set.astype(float)),
    )
    return HeightMap(values)


@dataclass(frozen=True)
class ScoredLine2D:
    line: Line2D
    support: int


# (theta, pixel) votes per block of angles, so a block's temporaries stay
# about 0.5 MB each however many pixels the mask has.
_VOTE_BLOCK = 1 << 16


def _vote(us, vs, cos_t, sin_t, n_rho, rho_off):
    """Accumulate Hough votes for the given set pixels: one bincount over
    flat (theta, rho) cells per block of angles."""
    n_theta = len(cos_t)
    acc = np.empty((n_theta, n_rho), dtype=np.int64)
    step = max(1, _VOTE_BLOCK // max(1, len(us)))
    for t0 in range(0, n_theta, step):
        c, s = cos_t[t0:t0 + step, None], sin_t[t0:t0 + step, None]
        rho = np.rint(us * c + vs * s).astype(np.int64)
        rho += rho_off + n_rho * np.arange(len(c))[:, None]
        acc[t0:t0 + len(c)] = np.bincount(
            rho.ravel(), minlength=len(c) * n_rho
        ).reshape(len(c), n_rho)
    return acc


def _fit_line2d(us: np.ndarray, vs: np.ndarray) -> Line2D:
    """Total least-squares line through a pixel set, sign-canonicalized."""
    mu, mv = us.mean(), vs.mean()
    _, _, vt = np.linalg.svd(np.stack([us - mu, vs - mv], axis=1), full_matrices=False)
    a, b = float(vt[1, 0]), float(vt[1, 1])
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return Line2D(a, b, -(a * mu + b * mv))


def hough_lines(
    mask: SemanticMask,
    cls: str | None = None,
    min_support: int = 50,
    max_lines: int = 8,
    band_px: float = 3.0,
    lane_theta_margin_deg: float = 10.0,
) -> list[ScoredLine2D]:
    """Iterative Hough transform: peak, claim the supporting band, repeat.

    The mask is voted once; each emitted peak's claimed pixels are voted
    again and subtracted, which leaves exactly the votes of the pixels
    not yet claimed (the accumulator holds integer counts).  Resolution is
    1 degree in theta and 1 px in rho.  For the lane class,
    near-horizontal image lines are discarded as non-lane artifacts.
    """
    cls = cls or mask.cls
    if mask.set_count < min_support:
        raise NoLines(f"only {mask.set_count} set pixels, need {min_support}")
    h, w = mask.bits.shape
    thetas = np.deg2rad(np.arange(180.0))
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    diag = int(math.ceil(math.hypot(w, h)))
    rho_off = diag
    n_rho = 2 * diag + 1

    # unclaimed pixels, kept in row-major order
    vs, us = np.nonzero(mask.bits)
    acc = _vote(us, vs, cos_t, sin_t, n_rho, rho_off)
    out: list[ScoredLine2D] = []
    while len(out) < max_lines and len(us) >= min_support:
        it, ir = np.unravel_index(np.argmax(acc), acc.shape)
        if acc[it, ir] < min_support:
            break
        rho = float(ir - rho_off)
        line = Line2D(cos_t[it], sin_t[it], -rho)
        # support: not-yet-claimed pixels within the band, so the residual
        # edge of an already-emitted thick stroke cannot outrank a real line
        claimed = line.distance(us, vs) <= band_px
        support = int(claimed.sum())
        if support == 0:
            # nothing to subtract: the same peak would come back forever
            break
        cu, cv = us[claimed], vs[claimed]
        acc -= _vote(cu, cv, cos_t, sin_t, n_rho, rho_off)
        us, vs = us[~claimed], vs[~claimed]
        if support < min_support:
            continue
        # sub-cell accuracy: the accumulator is 1 degree x 1 px, so refit
        # the line to its claimed pixels by total least squares
        line = _fit_line2d(cu.astype(float), cv.astype(float))
        if cls == "lane":
            # theta is the normal angle: ~90 deg means a horizontal line
            if abs(math.degrees(thetas[it]) - 90.0) < lane_theta_margin_deg:
                continue
        out.append(ScoredLine2D(line=line, support=support))
    if not out:
        raise NoLines("no line reached the support threshold")
    out.sort(key=lambda s: (-s.support, s.line.rho))
    return out


@dataclass(frozen=True)
class FeatureSetImage:
    lane_mask: SemanticMask
    pole_mask: SemanticMask
    lane_height: HeightMap
    pole_height: HeightMap
    lane_lines: list[ScoredLine2D] = field(default_factory=list)
    pole_lines: list[ScoredLine2D] = field(default_factory=list)


def extract_image_features(
    lane_mask: SemanticMask, pole_mask: SemanticMask, cfg: PipelineConfig
) -> FeatureSetImage:
    lane_lines = hough_lines(
        lane_mask,
        "lane",
        min_support=cfg.hough_min_support,
        max_lines=cfg.hough_max_lines,
        band_px=cfg.hough_band_px,
        lane_theta_margin_deg=cfg.hough_lane_theta_margin_deg,
    )
    pole_lines = hough_lines(
        pole_mask,
        "pole",
        min_support=cfg.hough_min_support,
        max_lines=cfg.hough_max_lines,
        band_px=cfg.hough_band_px,
    )
    if len(lane_lines) < 2 or len(pole_lines) < 1:
        raise InsufficientLines(
            f"need >= 2 lane and >= 1 pole image lines, "
            f"got {len(lane_lines)} / {len(pole_lines)}"
        )
    return FeatureSetImage(
        lane_mask=lane_mask,
        pole_mask=pole_mask,
        lane_height=idt_height_map(lane_mask, cfg.gamma0, cfg.gamma1),
        pole_height=idt_height_map(pole_mask, cfg.gamma0, cfg.gamma1),
        lane_lines=lane_lines,
        pole_lines=pole_lines,
    )


# a pole line's image direction must lie within this angle of the image
# vertical: a gantry beam or sign board in the pole mask is no pole
_POLE_MAX_TILT_DEG = 45.0


def select_principal_lines(features: FeatureSetImage):
    """The two lane lines with the most supporting pixels, and the pole
    line with the most supporting pixels among those within 45 degrees of
    the image vertical."""
    if len(features.lane_lines) < 2 or len(features.pole_lines) < 1:
        raise InsufficientLines("principal line selection needs 2 lane + 1 pole")
    lanes = sorted(features.lane_lines, key=lambda s: (-s.support, s.line.rho))
    # Line2D is a*u + b*v + c = 0 with a >= 0: its direction (-b, a) makes
    # an angle acos(a) with the image vertical
    min_a = math.cos(math.radians(_POLE_MAX_TILT_DEG))
    poles = sorted(
        (s for s in features.pole_lines if s.line.a >= min_a),
        key=lambda s: (-s.support, s.line.rho),
    )
    if not poles:
        raise InsufficientLines(
            f"none of {len(features.pole_lines)} pole image lines lies within "
            f"{_POLE_MAX_TILT_DEG:g} deg of vertical"
        )
    return lanes[0].line, lanes[1].line, poles[0].line

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


@dataclass(frozen=True)
class SemanticMask:
    cls: str                 # "lane" or "pole"
    bits: np.ndarray         # (h, w) bool, row-major

    def __post_init__(self):
        b = np.array(self.bits, dtype=bool)
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @property
    def set_count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class HeightMap:
    """Per-pixel heights; a float64 array handed in is frozen, not copied."""

    values: np.ndarray       # (h, w) float in (0, 1), both sides >= 2 px

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or min(v.shape) < 2:
            # bilinear lookup needs a 2x2 cell
            raise ValueError(f"height map must be at least 2x2, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def _lookup(self, u, v):
        """In-frame mask, bilinear value, and the cell it came from: the
        offsets (fu, fv) into it, their complements (gu, gv) and its four
        corner values (top-left, top-right, bottom-left, bottom-right)."""
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
        corners = (g.take(i), g[1:].take(i), g[w:].take(i), g[w + 1:].take(i))
        val = corners[0] * gu * gv
        val += corners[1] * fu * gv
        val += corners[2] * gu * fv
        val += corners[3] * fu * fv
        return ok, val, (fu, fv, gu, gv, corners)

    def sample_bilinear(self, u, v):
        """Bilinear lookup, so the alignment cost varies smoothly with the
        pose; out-of-frame coordinates give 0.  u and v may have any
        (matching) shape; the result has that shape."""
        ok, val, _ = self._lookup(u, v)
        return np.where(ok, val, 0.0)

    def sample_bilinear_grad(self, u, v):
        """(value, d value / du, d value / dv), all 0 out of frame; the value
        is bit-identical to sample_bilinear's.  The surface is bilinear
        inside each cell, so the derivatives are exact there."""
        ok, val, (fu, fv, gu, gv, (g00, g01, g10, g11)) = self._lookup(u, v)
        du = (g01 - g00) * gv + (g11 - g10) * fv
        dv = (g10 - g00) * gu + (g11 - g01) * fu
        return np.where(ok, val, 0.0), np.where(ok, du, 0.0), np.where(ok, dv, 0.0)


def load_mask(path, cls: str, intrinsics: Intrinsics | None = None) -> SemanticMask:
    img = load_pgm(path)
    if min(img.shape) < 2:
        raise ParseError(f"{path}: mask is {img.shape[1]}x{img.shape[0]}, need at least 2x2")
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


def _relax_rows(d: np.ndarray) -> None:
    """1D unit-cost relaxation along axis 0, forward then backward, in place."""
    rows = list(d)
    for prev, row in zip(rows, rows[1:]):
        np.minimum(row, prev + 1, out=row)
    for prev, row in zip(rows[::-1], rows[-2::-1]):
        np.minimum(row, prev + 1, out=row)


def _l1_fields(targets: np.ndarray) -> np.ndarray:
    """Exact L1 distance fields of k target sets laid side by side.

    targets is (h, k, w) bool, one (h, w) target set per middle index; the
    result is (h, k, w) int32, each field's per-pixel distance to its
    nearest target pixel.  Every field needs a target.  The fields relax
    together: one loop down the rows, then one across the columns of a
    column-major copy, so both loops run over contiguous rows.
    """
    h, _, w = targets.shape
    # farther than any two pixels of the frame, so it never wins a minimum
    d = ~targets * np.int32(h + w)
    _relax_rows(d)
    d = d.transpose(2, 1, 0).copy()
    _relax_rows(d)
    return d.transpose(2, 1, 0)


def l1_distance_field(mask: SemanticMask, from_set: bool) -> np.ndarray:
    """Exact per-pixel L1 distance to the nearest set (or unset) pixel.

    A forward/backward unit-cost sweep down the rows, then one across the
    columns; equal to the brute-force minimum over all target pixels.
    """
    target = mask.bits if from_set else ~mask.bits
    if not target.any():
        raise EmptyTarget("mask has no target pixel for the distance field")
    return _l1_fields(target[:, None, :])[:, 0, :]


def idt_height_map(mask: SemanticMask, cfg: PipelineConfig) -> HeightMap:
    """Inverse distance transform of a binary mask.

    Inside the mask the value is cfg.gamma0 ** d(complement), outside it
    is cfg.gamma1 ** d(mask), d the L1 distance.  Out-of-frame pixels
    count as complement, so a mask touching the border still decays there.
    Both distance fields come from one relaxation of the mask framed by a
    ring of unset pixels, which stands in for the outside.  The powers are
    looked up in a per-map table of gamma ** 0, 1, 2, ..., which holds the
    bits np.power gives each distance.
    """
    if mask.bits.ndim != 2 or min(mask.bits.shape) < 2:
        # the same fault load_mask refuses in a mask file
        raise DimensionMismatch(f"{mask.cls} mask has shape {mask.bits.shape}, need at least 2x2")
    if not mask.bits.any():
        raise EmptyTarget("mask has no target pixel for the distance field")
    framed = np.pad(mask.bits, 1)[:, None, :]
    # side by side: distance to the set pixels, to the unset ones
    d = _l1_fields(np.concatenate([framed, ~framed], axis=1))[1:-1, :, 1:-1]
    # one of the two is 0 at each pixel, so their difference is d(mask)
    # outside and -d(complement) inside, and |difference| < n
    n = sum(mask.bits.shape)
    exps = np.arange(n, dtype=float)
    table = np.concatenate([np.power(cfg.gamma0, exps)[::-1], np.power(cfg.gamma1, exps)[1:]])
    return HeightMap(table.take(d[:, 0] - d[:, 1] + (n - 1)))


@dataclass(frozen=True)
class ScoredLine2D:
    line: Line2D
    support: int


# (theta, pixel) votes per block of angles, so a block's buffers stay
# about 0.5 MB each however many pixels the mask has.
_VOTE_BLOCK = 1 << 16


def _vote(us, vs, cos_t, sin_t, n_rho, rho_off, subtract_from=None):
    """Hough votes of the given set pixels over the (theta, rho) cells, one
    block of angles at a time: a new accumulator of them (one bincount per
    block), or, given subtract_from, that accumulator with them removed in
    place (np.subtract.at per block)."""
    n_theta = len(cos_t)
    acc = subtract_from
    if acc is None:
        acc = np.empty((n_theta, n_rho), dtype=np.int64)
    step = min(n_theta, max(1, _VOTE_BLOCK // max(1, len(us))))
    rho = np.empty((step, len(us)))
    tmp = np.empty_like(rho)
    cells = np.empty(rho.shape, dtype=np.intp)
    # each angle's first cell within its block, plus rho_off: whole
    # numbers, so adding them before the cast to int is exact
    first = (np.arange(step) * n_rho + rho_off).astype(float)[:, None]
    for t0 in range(0, n_theta, step):
        k = min(step, n_theta - t0)
        r, t, c = rho[:k], tmp[:k], cells[:k]
        np.multiply(us, cos_t[t0:t0 + k, None], out=r)
        np.multiply(vs, sin_t[t0:t0 + k, None], out=t)
        r += t
        np.rint(r, out=r)
        r += first[:k]
        np.copyto(c, r, casting="unsafe")
        block = acc[t0:t0 + k].reshape(-1)  # a view: the rows are contiguous
        if subtract_from is None:
            block[:] = np.bincount(c.ravel(), minlength=k * n_rho)
        else:
            np.subtract.at(block, c.ravel(), 1)
    return acc


def _fit_line2d(us: np.ndarray, vs: np.ndarray) -> Line2D:
    """Total least-squares line through a pixel set (Line2D fixes its sign)."""
    mu, mv = us.mean(), vs.mean()
    _, _, vt = np.linalg.svd(np.stack([us - mu, vs - mv], axis=1), full_matrices=False)
    a, b = float(vt[1, 0]), float(vt[1, 1])
    return Line2D(a, b, -(a * mu + b * mv))


def hough_lines(mask: SemanticMask, cfg: PipelineConfig) -> list[ScoredLine2D]:
    """Iterative Hough transform: peak, claim the supporting band, repeat.

    The mask is voted once; the votes of each peak's claimed pixels are
    then subtracted from that accumulator in place, which leaves exactly
    the votes of the pixels not yet claimed (it holds integer counts).
    Resolution is 1 degree in theta and 1 px in rho.  A peak claims the
    pixels within cfg.hough_band_px of its line and is emitted with at
    least cfg.hough_min_support of them, up to cfg.hough_max_lines lines.
    For a lane mask, lines within cfg.hough_lane_theta_margin_deg of the
    image horizontal are discarded as non-lane artifacts.
    """
    min_support = cfg.hough_min_support
    if mask.set_count < min_support:
        raise NoLines(f"only {mask.set_count} set pixels, need {min_support}")
    h, w = mask.bits.shape
    thetas = np.deg2rad(np.arange(180.0))
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    diag = int(math.ceil(math.hypot(w, h)))
    rho_off = diag
    n_rho = 2 * diag + 1

    # unclaimed pixels, kept in row-major order, as float once for all uses
    vs, us = (x.astype(float) for x in np.nonzero(mask.bits))
    acc = _vote(us, vs, cos_t, sin_t, n_rho, rho_off)
    out: list[ScoredLine2D] = []
    while len(out) < cfg.hough_max_lines and len(us) >= min_support:
        it, ir = np.unravel_index(np.argmax(acc), acc.shape)
        if acc[it, ir] < min_support:
            break
        rho = float(ir - rho_off)
        line = Line2D(cos_t[it], sin_t[it], -rho)
        # support: not-yet-claimed pixels within the band, so the residual
        # edge of an already-emitted thick stroke cannot outrank a real line
        claimed = line.distance(us, vs) <= cfg.hough_band_px
        support = int(claimed.sum())
        if support == 0:
            # nothing to subtract: the same peak would come back forever
            break
        cu, cv = us[claimed], vs[claimed]
        _vote(cu, cv, cos_t, sin_t, n_rho, rho_off, subtract_from=acc)
        us, vs = us[~claimed], vs[~claimed]
        if support < min_support:
            continue
        # sub-cell accuracy: the accumulator is 1 degree x 1 px, so refit
        # the line to its claimed pixels by total least squares
        line = _fit_line2d(cu, cv)
        # theta is the normal angle: ~90 deg means a horizontal line
        off_horizontal = abs(math.degrees(thetas[it]) - 90.0)
        if mask.cls == "lane" and off_horizontal < cfg.hough_lane_theta_margin_deg:
            continue
        out.append(ScoredLine2D(line=line, support=support))
    if not out:
        raise NoLines("no line reached the support threshold")
    out.sort(key=lambda s: (-s.support, s.line.rho))
    return out


@dataclass(frozen=True)
class FeatureSetImage:
    lane_height: HeightMap
    pole_height: HeightMap
    lane_lines: list[ScoredLine2D] = field(default_factory=list)
    pole_lines: list[ScoredLine2D] = field(default_factory=list)


def extract_image_features(
    lane_mask: SemanticMask, pole_mask: SemanticMask, cfg: PipelineConfig
) -> FeatureSetImage:
    lane_lines = hough_lines(lane_mask, cfg)
    pole_lines = hough_lines(pole_mask, cfg)
    if len(lane_lines) < 2 or len(pole_lines) < 1:
        raise InsufficientLines(
            f"need >= 2 lane and >= 1 pole image lines, "
            f"got {len(lane_lines)} / {len(pole_lines)}"
        )
    return FeatureSetImage(
        lane_height=idt_height_map(lane_mask, cfg),
        pole_height=idt_height_map(pole_mask, cfg),
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

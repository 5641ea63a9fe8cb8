"""Image-side features: semantic masks, IDT height maps, Hough lines.

Masks arrive as binary PGM files produced by any upstream segmenter; this
module turns them into smooth per-pixel height maps (an inverse distance
transform) and fitted 2D lines for the coarse pose solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import PipelineConfig
from .errors import DimensionMismatch, EmptyTarget, InsufficientLines, ParseError
from .fileio import load_pgm
from .geometry import Intrinsics, Line2D, right_singular_vectors


@dataclass(frozen=True, eq=False)
class SemanticMask:
    cls: str                 # "lane" or "pole"
    bits: np.ndarray         # (h, w) bool, row-major

    def __post_init__(self):
        if self.cls not in ("lane", "pole"):
            raise ParseError(f"unknown mask class {self.cls!r}")
        b = np.array(self.bits, dtype=bool)
        if b.ndim != 2 or min(b.shape) < 2:
            # the height map's bilinear lookup needs a 2x2 cell
            raise DimensionMismatch(f"{self.cls} mask has shape {b.shape}, need at least 2x2")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)


# rows of cells per block of HeightMap.cell_ceilings: each float temporary
# stays at a few hundred KB on a 1242 px wide map
_CEILING_ROWS = 32


@dataclass(frozen=True, eq=False)
class HeightMap:
    """Per-pixel heights in [0, 1], kept C-ordered; a C float64 array is
    frozen, not copied.  Values outside [0, 1] are a ValueError."""

    values: np.ndarray       # (h, w) float in [0, 1], both sides >= 2 px
    value_range: tuple[float, float] = field(init=False, repr=False)  # (lowest, highest)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float, order="C")
        if v.ndim != 2 or min(v.shape) < 2:
            # bilinear lookup needs a 2x2 cell
            raise ValueError(f"height map must be at least 2x2, got shape {v.shape}")
        lo, hi = float(v.min()), float(v.max())
        # written so that a NaN fails it too
        if not (lo >= 0.0 and hi <= 1.0):
            raise ValueError(f"height map values must lie in [0, 1], got [{lo}, {hi}]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "value_range", (lo, hi))

    @cached_property
    def cell_ceilings(self) -> np.ndarray:
        """Read-only uint8 (h, w), built on first use: at each pixel, c =
        ceil(255 x) of the highest x of the four corners of the cell that
        the bilinear lookup reads there, plus 1 where c / 255 rounds below
        x, so c / 255 >= x.  The last row and column read the cell above
        and to the left, as the lookup does.  The bytes are taken pixel by
        pixel and then the highest of each cell: both steps keep order."""
        v = self.values
        out = np.empty(v.shape, dtype=np.uint8)
        for y in range(0, len(v) - 1, _CEILING_ROWS):
            rows = v[y:y + _CEILING_ROWS + 1]        # the block's cells and the row below
            c = np.multiply(rows, 255)
            np.ceil(c, out=c)
            c += np.divide(c, 255) < rows
            c = c.astype(np.uint8)
            pairs = np.maximum(c[:, :-1], c[:, 1:])
            np.maximum(pairs[:-1], pairs[1:], out=out[y:y + len(c) - 1, :-1])
        out[:, -1] = out[:, -2]
        out[-1] = out[-2]
        out.setflags(write=False)
        return out


def load_mask(path, cls: str, intrinsics: Intrinsics) -> SemanticMask:
    img = load_pgm(path)
    if img.shape[1] != intrinsics.width or img.shape[0] != intrinsics.height:
        raise DimensionMismatch(
            f"{path}: mask is {img.shape[1]}x{img.shape[0]}, "
            f"intrinsics say {intrinsics.width}x{intrinsics.height}"
        )
    return SemanticMask(cls=cls, bits=img > 127)


# The relaxed axis is cut into this many blocks of whole rows, relaxed
# side by side: each numpy call of a sweep takes the same row of every
# block, so a 375x1242 frame needs 24 and 78 calls a sweep, not 375 and
# 1,242.  On that frame a height map at 16 blocks took 0.6 times as long
# as at 1 block and 0.9 times as long as at 8; 32 gained under 5% more.
_RELAX_BLOCKS = 16


def _relaxed(src: np.ndarray, sentinel: int, dtype: np.dtype) -> np.ndarray:
    """Exact 1D unit-cost relaxation along axis 0 of src (L, c): each
    pixel's minimum over its column of src + |row offset|, where a bool
    src reads as sentinel (True) or 0.  Returns a C-contiguous (L, c)
    array of dtype.

    The rows are cut into blocks of m whole rows, the last padded with
    sentinel rows, which no minimum can take from.  Each block relaxes
    forward and back on its own; then the blocks carry across their
    seams, left to right and back, as min(value, seam + 1 + offset): the
    seam is the neighbour block's row next to the block, already final
    on its side, and the offset the row's distance from the seam's side.
    No value passes sentinel + m.
    """
    L, c = src.shape
    m = -(-L // _RELAX_BLOCKS)       # rows per block
    b = -(-L // m)                   # blocks, at most _RELAX_BLOCKS
    d = np.empty((b * m, c), dtype)
    if src.dtype == bool:
        np.multiply(src, sentinel, out=d[:L], dtype=dtype)
    else:
        d[:L] = src
    d[L:] = sentinel
    blocks = d.reshape(b, m, c)
    rows = list(blocks.transpose(1, 0, 2))   # row j of every block
    for prev, row in zip(rows, rows[1:]):
        np.minimum(row, prev + 1, out=row)
    for prev, row in zip(rows[::-1], rows[-2::-1]):
        np.minimum(row, prev + 1, out=row)
    ramp = np.arange(1, m + 1, dtype=dtype)[:, None]
    for prev, block in zip(blocks, blocks[1:]):
        np.minimum(block, prev[-1] + ramp, out=block)
    for nxt, block in zip(blocks[::-1], blocks[-2::-1]):
        np.minimum(block, nxt[0] + ramp[::-1], out=block)
    return d[:L]


def l1_distance_field(targets: np.ndarray) -> np.ndarray:
    """Exact L1 distance field of the target (True) pixels of the bool
    array targets (h, w).

    The result is (h, w), C-contiguous, each pixel's distance to its
    nearest target.  Columns first, so no loop reads a strided row: the
    bool frame is transposed (and negated) in one copy, relaxed along its
    w axis, transposed once as ints and relaxed along the h axis.  The
    ints are the narrowest signed type that holds 2 (h + w): int8 up to
    h + w = 64, int16 up to 16,384, int32 past that.  The sentinel of a
    pixel not yet reached is h + w, above any distance in the frame; with
    no target no pixel is reached, and every pixel reads h + w.
    """
    h, w = targets.shape
    sentinel = h + w
    dtype = np.min_scalar_type(-2 * sentinel)
    far = np.logical_not(targets.T, order="C")
    return _relaxed(_relaxed(far, sentinel, dtype).T, sentinel, dtype)


def _boundary(bits: np.ndarray) -> np.ndarray:
    """The pixels with a 4-neighbour of the other value, the outside of
    the frame counting as unset: a set pixel on the frame's edge is one."""
    out = np.zeros_like(bits)
    step = bits[:, 1:] != bits[:, :-1]
    out[:, 1:] = step
    out[:, :-1] |= step
    step = bits[1:] != bits[:-1]
    out[1:] |= step
    out[:-1] |= step
    out[:, [0, -1]] |= bits[:, [0, -1]]
    out[[0, -1]] |= bits[[0, -1]]
    return out


def idt_height_map(mask: SemanticMask, cfg: PipelineConfig) -> HeightMap:
    """Inverse distance transform of a binary mask.

    Inside the mask the value is cfg.gamma0 ** d(complement), outside it
    is cfg.gamma1 ** d(mask), d the L1 distance.  Out-of-frame pixels
    count as complement, so a mask touching the border still decays there.
    Both distances come from one field: D, the distance to the nearest
    boundary pixel (_boundary).  On a shortest path from a pixel to the
    nearest pixel of the other value, the last pixel before it is a
    boundary pixel, and no boundary pixel is nearer, so d = D + 1 on both
    sides.  The powers are looked up in a per-map table of gamma ** 1, 2,
    ..., sliced from np.power(gamma, arange(h + w)), so each holds the
    bits np.power gives its distance; the index is bits * (h + w - 1) + D.
    An empty mask has no boundary pixel, so nothing to decay from: it
    raises EmptyTarget, the pipeline's one check for an empty mask.
    """
    bits = mask.bits
    if not bits.any():
        raise EmptyTarget(f"{mask.cls} mask has no set pixel")
    d = l1_distance_field(_boundary(bits))
    n = sum(bits.shape)
    exps = np.arange(n, dtype=float)
    table = np.concatenate([np.power(cfg.gamma1, exps)[1:], np.power(cfg.gamma0, exps)[1:]])
    # C order, as table[index] takes the index's layout (take() would copy it to intp)
    index = np.multiply(bits, n - 1, dtype=d.dtype, order="C")
    index += d
    return HeightMap(table[index])


@dataclass(frozen=True)
class ScoredLine2D:
    line: Line2D
    support: int

    def rank(self) -> tuple:
        """Sort key: the most supporting pixels first, ties by rho."""
        return (-self.support, self.line.rho)


def _fit_line2d(us: np.ndarray, vs: np.ndarray) -> Line2D:
    """Total least-squares line through a pixel set (Line2D fixes its sign)."""
    mu, mv = us.mean(), vs.mean()
    vt = right_singular_vectors(np.stack([us - mu, vs - mv], axis=1))
    a, b = float(vt[1, 0]), float(vt[1, 1])
    return Line2D(a, b, -(a * mu + b * mv))


def hough_lines(mask: SemanticMask, cfg: PipelineConfig) -> list[ScoredLine2D]:
    """Iterative Hough transform: peak, claim the supporting band, repeat.

    Each peak is the first maximum, in row-major (theta, rho) order, of the
    accumulator of the pixels not yet claimed, found without building that
    accumulator.  Each angle row keeps an upper bound on its maximum (at
    first the mask's pixel count) and an exact flag (voted since the last
    claim).  The search takes the first row of highest bound; if it is not
    exact, it votes that row again from the unclaimed pixels (one bincount),
    sets its bound to the row's maximum and searches again.  A claim only
    lowers a row, so every bound stays an upper bound and a claim clears
    every flag; once the row found is exact, it holds the maximum, and
    np.argmax of the bounds returns the first of equal rows.
    Resolution is 1 degree in theta and 1 px in rho.  A peak claims the
    pixels within cfg.hough_band_px of its line and is emitted with at
    least cfg.hough_min_support of them, up to cfg.hough_max_lines lines.
    For a lane mask, lines within cfg.hough_lane_theta_margin_deg of the
    image horizontal are discarded as non-lane artifacts.  Returns the
    lines found, none for a mask with no line that qualifies:
    select_principal_lines decides whether there are enough.
    """
    min_support = cfg.hough_min_support
    h, w = mask.bits.shape
    thetas = np.deg2rad(np.arange(180.0))
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    diag = int(math.ceil(math.hypot(w, h)))
    rho_off = diag
    n_rho = 2 * diag + 1

    # unclaimed pixels, kept in row-major order, as float once for all uses
    vs, us = (x.astype(float) for x in np.nonzero(mask.bits))
    # per angle row: an upper bound on its maximum, the first cell that
    # holds it (once exact) and whether it was voted since the last claim
    bound = np.full(len(thetas), len(us))
    peak = np.zeros(len(thetas), dtype=np.intp)
    exact = np.zeros(len(thetas), dtype=bool)
    out: list[ScoredLine2D] = []
    while len(out) < cfg.hough_max_lines and len(us) >= min_support:
        while not exact[it := int(np.argmax(bound))]:
            # the one cell rule: rint(u cos t + v sin t) + rho_off
            r = us * cos_t[it]
            r += vs * sin_t[it]
            np.rint(r, out=r)
            r += rho_off
            row = np.bincount(r.astype(np.intp), minlength=n_rho)
            peak[it] = np.argmax(row)
            bound[it] = row[peak[it]]
            exact[it] = True
        if bound[it] < min_support:
            break
        rho = float(peak[it] - rho_off)
        line = Line2D(cos_t[it], sin_t[it], -rho)
        # support: not-yet-claimed pixels within the band, so the residual
        # edge of an already-emitted thick stroke cannot outrank a real line
        claimed = line.distance(us, vs) <= cfg.hough_band_px
        support = int(claimed.sum())
        if support == 0:
            # nothing to claim: the same peak would come back forever
            break
        exact[:] = False
        cu, cv = us[claimed], vs[claimed]
        us, vs = us[~claimed], vs[~claimed]
        if support < min_support:
            continue
        # theta is the normal angle: ~90 deg means a horizontal line
        off_horizontal = abs(math.degrees(thetas[it]) - 90.0)
        if mask.cls == "lane" and off_horizontal < cfg.hough_lane_theta_margin_deg:
            continue
        # sub-cell accuracy: the accumulator is 1 degree x 1 px, so refit
        # the line to its claimed pixels by total least squares
        out.append(ScoredLine2D(line=_fit_line2d(cu, cv), support=support))
    out.sort(key=ScoredLine2D.rank)
    return out


def extract_image_features(
    lane_mask: SemanticMask, pole_mask: SemanticMask, cfg: PipelineConfig
) -> tuple[HeightMap, HeightMap]:
    """The (lane, pole) height maps; the coarse stage runs hough_lines itself."""
    return idt_height_map(lane_mask, cfg), idt_height_map(pole_mask, cfg)


# a pole line's image direction must lie within this angle of the image
# vertical: a gantry beam or sign board in the pole mask is no pole
_POLE_MAX_TILT_DEG = 45.0
# the second lane line must lie more than this angle from the first: what
# the claim band leaves of a wide stroke comes back at the stroke's angle
_LANE_MIN_SEPARATION_DEG = 3.0


def select_principal_lines(lane_lines: list[ScoredLine2D], pole_lines: list[ScoredLine2D]):
    """Of the two masks' hough_lines, the lane line with the most
    supporting pixels, the one with the most among those more than 3
    degrees from it, and the pole line with the most among those within
    45 degrees of the image vertical."""
    if len(lane_lines) < 2 or len(pole_lines) < 1:
        raise InsufficientLines(
            f"need >= 2 lane and >= 1 pole image lines, "
            f"got {len(lane_lines)} / {len(pole_lines)}"
        )
    first, *rest = sorted(lane_lines, key=ScoredLine2D.rank)
    # the angle between two lines is the one between their unit normals
    max_cos = math.cos(math.radians(_LANE_MIN_SEPARATION_DEG))
    apart = [s for s in rest if abs(s.line.a * first.line.a + s.line.b * first.line.b) < max_cos]
    if not apart:
        raise InsufficientLines(
            f"none of {len(rest)} other lane image lines lies more than "
            f"{_LANE_MIN_SEPARATION_DEG:g} deg from the strongest"
        )
    # Line2D is a*u + b*v + c = 0 with a >= 0: its direction (-b, a) makes
    # an angle acos(a) with the image vertical
    min_a = math.cos(math.radians(_POLE_MAX_TILT_DEG))
    poles = sorted((s for s in pole_lines if s.line.a >= min_a), key=ScoredLine2D.rank)
    if not poles:
        raise InsufficientLines(
            f"none of {len(pole_lines)} pole image lines lies within "
            f"{_POLE_MAX_TILT_DEG:g} deg of vertical"
        )
    return first.line, apart[0].line, poles[0].line

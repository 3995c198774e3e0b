"""SVG rendering of the conformal grid image: the images under R of the
horizontal and vertical period-cell lines, plus the two mirror circles.

Each family is evaluated on one sixteenth of the cell, 0 <= Re z <= omega1/2
and 0 <= Im z <= omega2/2 (1,290 of 17,442 samples at the default 16 x 512).
The two half-period translations, R(z + omega1) = 1/R(z) and the omega2 map
onto the red circle, each composed with conjugation, fill the rest of the
quarter cell; conjugation mirrors the quarter onto the whole cell. Each
quarter sample is printed once, and its mirror images reuse the text with
the sign of y flipped.

Output is deterministic text (stable float formatting, no timestamps), so
renders can be compared byte-for-byte in tests.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .evaluate import POLE, conj, essential_R, mirror_block, shift_omega1, shift_omega2
from .lattice import compute_lattice
from .params import GOLDEN_BETA, derive_params

RED = "#c1272d"
BLUE = "#1f4e9c"
_PX = 800


class FigureConfig(
    namedtuple(
        "FigureConfig",
        "beta lines_per_axis samples_per_line viewport clip_radius",
        defaults=(GOLDEN_BETA, 16, 512, None, None),
    )
):
    """What to draw: the curve, the line and sample counts, the viewport
    (xmin, xmax, ymin, ymax) or None for +-2 beta, and the clip radius or
    None for 4 beta."""

    __slots__ = ()

    def resolved_viewport(self) -> tuple:
        if self.viewport is not None:
            return tuple(float(v) for v in self.viewport)
        b = float(self.beta)
        return (-2.0 * b, 2.0 * b, -2.0 * b, 2.0 * b)

    def resolved_clip(self) -> float:
        if self.clip_radius is not None:
            return float(self.clip_radius)
        return 4.0 * float(self.beta)

    def validate(self) -> None:
        if self.lines_per_axis < 2:
            raise ValueError("lines_per_axis must be >= 2")
        if self.samples_per_line < 16:
            raise ValueError("samples_per_line must be >= 16")
        xmin, xmax, ymin, ymax = self.resolved_viewport()
        if not all(math.isfinite(v) for v in (xmin, xmax, ymin, ymax)):
            raise ValueError("viewport components must be finite")
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("viewport must satisfy xmin < xmax and ymin < ymax")
        if not self.resolved_clip() > 0.0:
            raise ValueError("clip_radius must be positive")


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return "%.9g" % x


def _quarter(point, L: int, S: int, fill_sample, fill_line, lat, params) -> list[list]:
    """R at samples j <= S//2 of lines k <= L//2 of one family, line by line.

    Only the sub-block k <= L/4, j <= S/4 calls `essential_R` at point(k, j).
    Along a step of omega1 the point S/2 - j is omega1 - conj(point j), along
    omega2 it is omega2 + conj(point j); R is even and R(conj z) = conj R(z),
    so sample j > S/4 is fill_sample(conj(sample S/2 - j)) and line k > L/4 is
    fill_line(conj(line L/2 - k)), fill_* being the `evaluate.shift_omega*`
    of that step. An odd S or L leaves no integer partner, and then every
    sample or line of the quarter is evaluated.
    """
    j_eval = S // 4 if S % 2 == 0 else S // 2
    k_eval = L // 4 if L % 2 == 0 else L // 2
    lines = []
    for k in range(L // 2 + 1):
        if k > k_eval:
            lines.append([fill_line(conj(v)) for v in lines[L // 2 - k]])
            continue
        vals = [essential_R(point(k, j), lat, params) for j in range(j_eval + 1)]
        vals += [fill_sample(conj(vals[S // 2 - j])) for j in range(j_eval + 1, S // 2 + 1)]
        lines.append(vals)
    return lines


def _printed(vals, clip: float):
    """The printed points of vals and of their conjugates; None where a
    value is a pole or beyond the clip radius.

    %.9g of -x is "-" plus %.9g of x, 0 prints as 0 and |conj v| = |v|, so
    the conjugate's text is the value's with the sign of y flipped.
    """
    pts, conj_pts = [], []
    for v in vals:
        if v is POLE or abs(v) > clip:
            pts.append(None)
            conj_pts.append(None)
            continue
        # y axis flipped so the upper half plane renders upward;
        # + 0.0 turns -0.0 into 0
        x = "%.9g," % (v.real + 0.0)
        y = "%.9g" % (-v.imag + 0.0)
        pts.append(x + y)
        conj_pts.append(x + (y[1:] if y[0] == "-" else y if y == "0" else "-" + y))
    return pts, conj_pts


def _polylines(points) -> str:
    """Split a line's printed points at poles/escapes into SVG polylines."""
    out = []
    run: list[str] = []
    for p in [*points, None]:
        if p is not None:
            run.append(p)
            continue
        if len(run) >= 2:
            out.append('<polyline points="%s"/>' % " ".join(run))
        run = []
    return "".join(out)


def render_figure(config: FigureConfig | None = None) -> str:
    config = config or FigureConfig()
    config.validate()
    params = derive_params(config.beta)
    lat = compute_lattice(params)
    beta = params.beta
    L = config.lines_per_axis
    S = config.samples_per_line
    clip = config.resolved_clip()
    xmin, xmax, ymin, ymax = config.resolved_viewport()

    per_x = 2.0 * lat.omega1
    per_y = 2.0 * lat.omega2_im
    unit = (xmax - xmin) / _PX  # user units per pixel

    def shift2(v):
        return shift_omega2(v, params)

    def _family(point, fill_sample, fill_line) -> list[str]:
        # The <g data-line> groups of lines k = 0..L, sample j = 0..S of line k
        # at point(k, j). R is even and R(conj z) = conj R(z), so line L - k
        # and sample S - j are the conjugates of line k and sample j: the
        # quarter k <= L//2, j <= S//2 is computed (by `_quarter`, from its
        # first sixteenth of the cell) and printed once, and the rest reuse
        # its text with y's sign flipped.
        quarter = _quarter(point, L, S, fill_sample, fill_line, lat, params)
        pts, conj_pts = zip(*(_printed(vals, clip) for vals in quarter))
        lines = mirror_block(pts, conj_pts, L + 1, S + 1)
        return [f'<g data-line="{k}">{_polylines(line)}</g>' for k, line in enumerate(lines)]

    # k / L * per puts the middle line and sample exactly on the cell edge;
    # red samples run along omega1 and red lines step along omega2, blue
    # the other way round
    red_groups = _family(
        lambda k, j: complex(j / S * per_x, k / L * per_y), shift_omega1, shift2
    )
    blue_groups = _family(
        lambda k, j: complex(k / L * per_x, j / S * per_y), shift2, shift_omega1
    )

    parts = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_PX}" height="{_PX}" '
        f'viewBox="{_fmt(xmin)} {_fmt(-ymax)} {_fmt(xmax - xmin)} {_fmt(ymax - ymin)}">'
    )
    parts.append(
        f'<g id="red-lines" fill="none" stroke="{RED}" '
        f'stroke-width="{_fmt(1.4 * unit)}" stroke-linejoin="round">'
    )
    parts.extend(red_groups)
    parts.append("</g>")
    parts.append(
        f'<g id="blue-lines" fill="none" stroke="{BLUE}" '
        f'stroke-width="{_fmt(1.4 * unit)}" stroke-linejoin="round">'
    )
    parts.extend(blue_groups)
    parts.append("</g>")
    parts.append(f'<g id="circles" fill="none" stroke-width="{_fmt(2.2 * unit)}">')
    parts.append(
        f'<circle id="mirror-red" cx="{_fmt(-beta)}" cy="0" '
        f'r="{_fmt(beta / params.delta)}" stroke="{RED}" '
        f'stroke-dasharray="{_fmt(6.0 * unit)} {_fmt(5.0 * unit)}"/>'
    )
    parts.append(
        f'<circle id="mirror-blue" cx="0" cy="0" r="1" stroke="{BLUE}" '
        f'stroke-dasharray="{_fmt(6.0 * unit)} {_fmt(5.0 * unit)}"/>'
    )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

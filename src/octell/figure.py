"""SVG rendering of the conformal grid image: the images under R of the
horizontal and vertical period-cell lines, plus the two mirror circles.

Each family is evaluated on one sixteenth of the cell, 0 <= Re z <= omega1/2
and 0 <= Im z <= omega2/2 (1,290 of 17,442 samples at the default 16 x 512),
one kernel call per line (`essential_R_values`).
The paper's two circle inversions, the half-period translations composed
with conjugation (`invert_omega1`, `invert_omega2`), fill the rest of the
quarter cell a line at a time; conjugation mirrors the quarter onto the
whole cell. Each quarter line is printed with one %-format, "x,y " per
sample, and a pole or a value past the clip radius prints as the break
token "inf,0 ". The mirror images reuse that text: the conjugates' text is
the same with the sign of each y flipped, and the reversed half of a line
is its tokens in reverse order. Whether a line breaks is known from its
values, so a line without a break is written as its group in one format,
one polyline; only a line with a break is split at the token.

Output is deterministic text (stable float formatting, no timestamps), so
renders can be compared byte-for-byte in tests.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple

from ._backend import GOLDEN_BETA, compute_lattice, derive_params

# essential_R is bound here, though unused, for the benchmark tracer, which
# wraps it where figure and verify look it up
from .evaluate import (  # noqa: F401
    POLE,
    essential_R,
    essential_R_values,
    invert_omega1,
    invert_omega2,
)

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
        # 16.0 or "16" raises TypeError here, not later in the render
        operator.index(self.lines_per_axis)
        operator.index(self.samples_per_line)
        if self.lines_per_axis < 2:
            raise ValueError("lines_per_axis must be >= 2")
        if self.samples_per_line < 16:
            raise ValueError("samples_per_line must be >= 16")
        xmin, xmax, ymin, ymax = self.resolved_viewport()
        if not all(math.isfinite(v) for v in (xmin, xmax, ymin, ymax)):
            raise ValueError("viewport components must be finite")
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("viewport must satisfy xmin < xmax and ymin < ymax")
        # finite corners can still overflow their span, and the SVG's viewBox
        # and stroke widths with it
        if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
            raise ValueError("viewport spans xmax - xmin and ymax - ymin must be finite")
        if not self.resolved_clip() > 0.0:
            raise ValueError("clip_radius must be positive")


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return "%.9g" % x


def _quarter(line, L: int, S: int, fill_sample, fill_line, lat) -> list[list]:
    """R at samples j <= S//2 of lines k <= L//2 of one family, line by line.

    Only the sub-block k <= L/4, j <= S/4 is evaluated, one
    `essential_R_values` call per line; line(k, n) gives the points of
    samples j < n of line k.
    Along a step of omega1 the point S/2 - j is omega1 - conj(point j), along
    omega2 it is omega2 + conj(point j); R is even and R(conj z) = conj R(z),
    so samples j > S/4 are fill_sample of samples S/2 - j and lines k > L/4
    are fill_line of line L/2 - k, fill_* being the `evaluate.invert_omega*`
    circle inversion of that step. An odd S or L leaves no integer partner,
    and then every sample or line of the quarter is evaluated.
    """
    j_eval = S // 4 if S % 2 == 0 else S // 2
    k_eval = L // 4 if L % 2 == 0 else L // 2
    lines = []
    for k in range(L // 2 + 1):
        if k > k_eval:
            lines.append(fill_line(lines[L // 2 - k]))
            continue
        vals = essential_R_values(line(k, j_eval + 1), lat)
        vals += fill_sample(vals[: S // 2 - j_eval][::-1])
        lines.append(vals)
    return lines


# a pole or a value past the clip radius prints as "inf,0 ", which no finite
# value prints as
_BREAK = complex(math.inf, 0.0)
_BREAK_TEXT = "inf,0 "


def _printed(vals, clip: float) -> tuple[str, bool]:
    """The points of vals as text, "x,y " each, with y flipped so the upper
    half plane renders upward, in one %-format, the break token where a
    value is a pole or beyond the clip radius; and whether none is.

    One pass over |v| decides whether the line is whole; only a line that
    breaks is copied with the break token substituted."""
    try:
        whole = max(map(abs, vals)) <= clip
    except TypeError:   # abs(POLE): the line breaks at the pole
        whole = False
    if not whole:
        vals = [_BREAK if v is POLE or abs(v) > clip else v for v in vals]
    flat = [0.0] * (2 * len(vals))
    # + 0.0 and 0.0 - turn a zero of either sign into 0
    flat[::2] = [v.real + 0.0 for v in vals]
    flat[1::2] = [0.0 - v.imag for v in vals]
    return ("%.9g,%.9g " * len(vals)) % tuple(flat), whole


def _conjugated(text: str) -> str:
    """The printed points of the conjugates: each y's sign flipped, 0 kept.

    %.9g of -y is "-" plus %.9g of y and |conj v| = |v|, so this is the text
    `_printed` gives for the conjugate values.
    """
    # every y gains a "-", a doubled one cancels, and "-0" goes back to "0"
    return text.replace(",", ",-").replace(",--", ",").replace(",-0 ", ",0 ")


def _group(k: int, text: str, tail: str, whole: bool) -> str:
    """The <g data-line> group of line k, printed as text then tail: one
    polyline if whole, else split at the break token into polylines of two
    points or more."""
    if whole:
        return '<g data-line="%d"><polyline points="%s%s"/></g>' % (k, text, tail)
    runs = (text + tail + " ").split(_BREAK_TEXT)
    polylines = "".join('<polyline points="%s"/>' % r[:-1] for r in runs if r.count(" ") >= 2)
    return '<g data-line="%d">%s</g>' % (k, polylines)


def _groups(quarter: list[list], L: int, S: int, clip: float) -> list[str]:
    """The groups of lines k = 0..L from the quarter, lines k <= L//2 of
    samples j <= S//2, each quarter line printed once.

    R is even and R(conj z) = conj R(z): line k is its quarter text followed
    by the conjugates of its first S - S//2 samples in reverse order, and
    line L - k is the conjugated text followed by those samples reversed;
    so both break only where the quarter line does.
    """
    c = S - S // 2

    def back(text):
        return " ".join(text.split(" ")[c - 1 :: -1])

    rows, mirror = [], []
    for k, vals in enumerate(quarter):
        text, whole = _printed(vals, clip)
        conj_text = _conjugated(text)
        rows.append(_group(k, text, back(conj_text), whole))
        if k < L - L // 2:   # an even L's middle line is its own mirror
            mirror.append(_group(L - k, conj_text, back(text), whole))
    return rows + mirror[::-1]


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

    # k / L * per puts the middle line and sample exactly on the cell edge;
    # red samples run along omega1 and red lines step along omega2, blue
    # the other way round; with coordinates >= 0 the mixed sum and product
    # give exactly complex(x, y)
    def red(k, n):
        y = complex(0.0, k / L * per_y)
        return [j / S * per_x + y for j in range(n)]

    def blue(k, n):
        x = complex(k / L * per_x, 0.0)
        return [x + j / S * per_y * 1j for j in range(n)]

    def invert_red(vals):
        return invert_omega2(vals, params)

    # the quarter k <= L//2, j <= S//2 of each family is computed (by
    # `_quarter`, from its first sixteenth of the cell) and printed a line at
    # a time, and the rest of the cell reuses its text
    red_groups = _groups(_quarter(red, L, S, invert_omega1, invert_red, lat), L, S, clip)
    blue_groups = _groups(_quarter(blue, L, S, invert_red, invert_omega1, lat), L, S, clip)

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
    parts.append("</svg>\n")
    return "\n".join(parts)

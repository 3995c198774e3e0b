"""SVG rendering of the conformal grid image: the images under R of the
horizontal and vertical period-cell lines, plus the two mirror circles.

Output is deterministic text (stable float formatting, no timestamps), so
renders can be compared byte-for-byte in tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .evaluate import essential_R, is_pole
from .lattice import compute_lattice
from .params import derive_params

GOLDEN_BETA = (3.0 + math.sqrt(5.0)) / 2.0

RED = "#c1272d"
BLUE = "#1f4e9c"
_PX = 800


@dataclass(frozen=True)
class FigureConfig:
    beta: float = GOLDEN_BETA
    lines_per_axis: int = 16
    samples_per_line: int = 512
    viewport: tuple | None = None  # (xmin, xmax, ymin, ymax)
    clip_radius: float | None = None

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
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("viewport must satisfy xmin < xmax and ymin < ymax")
        if not self.resolved_clip() > 0.0:
            raise ValueError("clip_radius must be positive")


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return "%.9g" % x


def _polylines(values, clip: float) -> list[str]:
    """Split a sampled curve at poles/escapes into SVG polyline elements."""
    out = []
    run: list[str] = []

    def flush():
        if len(run) >= 2:
            out.append('<polyline points="%s"/>' % " ".join(run))
        run.clear()

    for v in values:
        if is_pole(v) or abs(v) > clip:
            flush()
        else:
            # y axis flipped so the upper half plane renders upward;
            # + 0.0 turns -0.0 into 0
            run.append("%.9g,%.9g" % (v.real + 0.0, -v.imag + 0.0))
    flush()
    return out


def _conj(v):
    return v if is_pole(v) else v.conjugate()


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

    def _family(point) -> list[str]:
        # The <g data-line> groups of lines k = 0..L, sample j = 0..S of line k
        # at point(k, j). R is even and R(conj z) = conj R(z), so line L - k
        # and sample S - j are the conjugates of line k and sample j: only
        # k <= L//2 and j <= S//2 are evaluated.
        lines = []
        for k in range(L // 2 + 1):
            half = [essential_R(point(k, j), lat, params) for j in range(S // 2 + 1)]
            lines.append(half + [_conj(v) for v in reversed(half[: S - S // 2])])
        lines += [[_conj(v) for v in vals] for vals in reversed(lines[: L - L // 2])]
        return [
            f'<g data-line="{k}">{"".join(_polylines(vals, clip))}</g>'
            for k, vals in enumerate(lines)
        ]

    # k / L * per puts the middle line and sample exactly on the cell edge
    red_groups = _family(lambda k, j: complex(j / S * per_x, k / L * per_y))
    blue_groups = _family(lambda k, j: complex(k / L * per_x, j / S * per_y))

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

import math
import re
import xml.etree.ElementTree as ET

import pytest

import octell.figure
from octell import (
    FigureConfig,
    build_catalog,
    compute_lattice,
    derive_params,
    essential_R,
    is_pole,
    render_figure,
)

SMALL = dict(lines_per_axis=4, samples_per_line=32)  # keep most tests quick


def test_default_config():
    cfg = FigureConfig()
    assert cfg.beta == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
    assert cfg.lines_per_axis == 16
    assert cfg.samples_per_line == 512
    b = cfg.beta
    assert cfg.resolved_viewport() == (-2 * b, 2 * b, -2 * b, 2 * b)
    assert cfg.resolved_clip() == 4 * b


@pytest.mark.parametrize(
    "kw",
    [
        dict(lines_per_axis=1),
        dict(samples_per_line=8),
        dict(viewport=(1.0, 1.0, -1.0, 1.0)),
        dict(viewport=(0.0, 1.0, 2.0, -2.0)),
        dict(clip_radius=0.0),
        dict(beta=1.0),
        dict(viewport=(0.0, math.inf, -1.0, 1.0)),
        dict(viewport=(-1.0, 1.0, -math.inf, 1.0)),
        # finite corners whose span xmax - xmin or ymax - ymin overflows
        dict(viewport=(-1e308, 1e308, -1.0, 1.0)),
        dict(viewport=(-1.0, 1.0, -1e308, 1e308)),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        render_figure(FigureConfig(**kw))


@pytest.mark.parametrize(
    "kw",
    [
        dict(lines_per_axis=16.0),
        dict(lines_per_axis="16"),
        dict(samples_per_line=512.0),
        dict(samples_per_line="512"),
    ],
)
def test_config_counts_must_be_integers(kw):
    with pytest.raises(TypeError):
        FigureConfig(**kw).validate()


def test_svg_structure():
    svg = render_figure(FigureConfig(**SMALL))
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert 'width="800" height="800"' in svg
    assert svg.count('<g data-line=') == 2 * (4 + 1)
    assert svg.count("<circle") == 2
    assert 'id="red-lines"' in svg
    assert 'id="blue-lines"' in svg
    assert 'id="mirror-red"' in svg
    assert 'id="mirror-blue"' in svg
    # well-formed XML, with the default clip and one that cuts finite values:
    # 2(L + 1) line groups, every polyline of 2 points or more
    ns = {"svg": "http://www.w3.org/2000/svg"}
    for clip in (None, 1.0):
        root = ET.fromstring(render_figure(FigureConfig(clip_radius=clip, **SMALL)))
        groups = root.findall(".//svg:g[@data-line]", ns)
        assert len(groups) == 2 * (SMALL["lines_per_axis"] + 1)
        polylines = root.findall(".//svg:polyline", ns)
        assert polylines
        for poly in polylines:
            assert len(poly.get("points").split(" ")) >= 2, clip


def test_deterministic_output():
    a = render_figure(FigureConfig(**SMALL))
    b = render_figure(FigureConfig(**SMALL))
    assert a == b


def test_unit_circle_attributes():
    svg = render_figure(FigureConfig(**SMALL))
    m = re.search(r'<circle id="mirror-blue" cx="([^"]+)" cy="([^"]+)" r="([^"]+)"', svg)
    assert m
    assert m.group(1) == "0"
    assert m.group(2) == "0"
    assert m.group(3) == "1"


def test_red_circle_attributes():
    cfg = FigureConfig(beta=3.0, **SMALL)
    svg = render_figure(cfg)
    m = re.search(r'<circle id="mirror-red" cx="([^"]+)" cy="([^"]+)" r="([^"]+)"', svg)
    assert m
    assert float(m.group(1)) == pytest.approx(-3.0, rel=1e-9)
    p = derive_params(3.0)
    assert float(m.group(3)) == pytest.approx(3.0 / p.delta, rel=1e-8)


def test_real_axis_line_stays_real():
    svg = render_figure(FigureConfig(beta=3.0, **SMALL))
    first = re.search(r'<g data-line="0">(.*?)</g>', svg).group(1)
    for pt in re.findall(r'points="([^"]*)"', first):
        for pair in pt.split():
            assert pair.endswith(",0"), pair


def test_center_value_is_sampled_exactly():
    # line k = L/4 at sample S/4 lands on (omega1 + omega2)/2, whose image is
    # a circle-intersection point
    cfg = FigureConfig()
    params = derive_params(cfg.beta)
    lat = compute_lattice(params)
    v = essential_R((lat.omega1 + lat.omega2) / 2.0, lat, params)
    svg = render_figure(cfg)
    assert "%.9g,%.9g" % (v.real, -v.imag) in svg
    inter = -build_catalog(params).gamma.conjugate() / params.beta
    assert abs(v - inter) <= 1e-6


def test_viewport_controls_viewbox():
    cfg = FigureConfig(viewport=(-1.0, 2.0, -3.0, 4.0), **SMALL)
    svg = render_figure(cfg)
    assert 'viewBox="-1 -4 3 7"' in svg


def test_viewbox_writes_a_negated_zero_as_0():
    # the viewBox's y is -ymax, here -0.0
    svg = render_figure(FigureConfig(viewport=(-1.0, 1.0, -1.0, 0.0), **SMALL))
    assert 'viewBox="-1 0 2 1"' in svg


def test_clip_drops_far_points():
    loose = render_figure(FigureConfig(beta=3.0, clip_radius=50.0, **SMALL))
    tight = render_figure(FigureConfig(beta=3.0, clip_radius=4.0, **SMALL))
    # tighter clipping cannot produce more sampled points
    assert loose.count(",") >= tight.count(",")
    assert loose != tight


_GROUP_RE = re.compile(r'<g data-line="(\d+)">(.*?)</g>')


def _families(svg):
    """{family: [group body per line]} for the red and blue line groups."""
    out = {}
    for fam in ("red", "blue"):
        block = re.search(r'<g id="%s-lines"[^>]*>\n(.*?)\n</g>\n' % fam, svg, re.S).group(1)
        out[fam] = [body for _, body in _GROUP_RE.findall(block)]
    return out


def _runs(body):
    return [run.split() for run in re.findall(r'points="([^"]*)"', body)]


def _flip(pt):
    # the printed point of the conjugate value: "x,y" -> "x,-y", 0 stays 0
    x, y = pt.split(",")
    return f"{x},{y[1:] if y.startswith('-') else '0' if y == '0' else '-' + y}"


@pytest.fixture(scope="module")
def default_families():
    return _families(render_figure(FigureConfig()))


@pytest.mark.parametrize("fam", ["red", "blue"])
def test_mirror_lines_print_as_conjugates(default_families, fam):
    # R(conj z) = conj R(z) and R is even: line L - k prints line k with the
    # imaginary signs flipped, and each line is its own mirror read backwards
    lines = default_families[fam]
    L = len(lines) - 1
    assert L == FigureConfig().lines_per_axis
    for k, body in enumerate(lines):
        flipped = [[_flip(p) for p in run] for run in _runs(body)]
        assert _runs(lines[L - k]) == flipped, k
        assert [run[::-1] for run in _runs(body)[::-1]] == flipped, k


# the default, then L and S not powers of two, where k * per / L misses the
# cell edge at k = L/2 for the blue (beta = 1.5) or the red (1.2) middle line
@pytest.mark.parametrize("beta,L,S", [(None, 16, 512), (1.5, 6, 20), (1.2, 10, 20)])
@pytest.mark.parametrize("fam", ["red", "blue"])
def test_middle_line_is_real(default_families, fam, beta, L, S):
    # the middle lines lie on the cell edges Im z = omega2 (red) and
    # Re z = omega1 (blue), where R is exactly real
    if beta is None:
        lines = default_families[fam]
    else:
        cfg = FigureConfig(beta=beta, lines_per_axis=L, samples_per_line=S)
        lines = _families(render_figure(cfg))[fam]
    runs = _runs(lines[L // 2])
    assert runs
    for run in runs:
        for pt in run:
            assert pt.endswith(",0"), pt


def _brute_lines(cfg):
    """R at every sample of every red, then every blue, line: one call each."""
    p = derive_params(cfg.beta)
    lat = compute_lattice(p)
    L, S = cfg.lines_per_axis, cfg.samples_per_line
    px, py = 2.0 * lat.omega1, 2.0 * lat.omega2_im
    red = [[essential_R(complex(j / S * px, k / L * py), lat, p) for j in range(S + 1)]
           for k in range(L + 1)]
    blue = [[essential_R(complex(k / L * px, j / S * py), lat, p) for j in range(S + 1)]
            for k in range(L + 1)]
    return red + blue


def _run_lengths(vals, clip):
    """Point counts of the polylines of one line: split at poles and beyond
    the clip radius, runs of fewer than two points dropped."""
    runs, n = [], 0
    for v in list(vals) + [None]:
        if v is None or is_pole(v) or abs(v) > clip:
            if n >= 2:
                runs.append(n)
            n = 0
        else:
            n += 1
    return runs


def _evaluated(L, S):
    """The last line and sample index of a quarter that call the kernel:
    L/4 and S/4, or L//2 (S//2) when L (S) is odd."""
    return (L // 4 if L % 2 == 0 else L // 2), (S // 4 if S % 2 == 0 else S // 2)


# omega1 < omega2_im at 1.2, > at 3; 1 + 1e-6 and 1e12 are the ends of the domain
@pytest.mark.parametrize("beta", [1.2, 3.0, 1.0 + 1e-6, 1e12])
@pytest.mark.parametrize("L,S", [(5, 33), (4, 32), (6, 20), (16, 512)])
def test_mirrored_render_matches_brute_force(monkeypatch, beta, L, S):
    cfg = FigureConfig(beta=beta, lines_per_axis=L, samples_per_line=S)
    seen = []
    quarter = octell.figure._quarter

    def record(*args):
        seen.append(quarter(*args))
        return seen[-1]

    monkeypatch.setattr(octell.figure, "_quarter", record)
    svg = render_figure(cfg)
    want = _brute_lines(cfg)
    k_eval, j_eval = _evaluated(L, S)
    assert len(seen) == 2
    for fam, quarter_lines in enumerate(seen):
        assert len(quarter_lines) == L // 2 + 1
        for k, got in enumerate(quarter_lines):
            ref = want[fam * (L + 1) + k]
            assert len(got) == S // 2 + 1
            for j, (g, r) in enumerate(zip(got, ref)):
                assert is_pole(g) == is_pole(r)
                if k <= k_eval and j <= j_eval:   # evaluated, not filled
                    assert g is r or g == r
                elif not is_pole(r):
                    assert abs(g - r) <= 1e-12 * max(1.0, abs(r)), (k, j, g, r)
    fams = _families(svg)
    clip = cfg.resolved_clip()
    for body, ref in zip(fams["red"] + fams["blue"], want):
        assert [len(run) for run in _runs(body)] == _run_lengths(ref, clip)


@pytest.mark.parametrize("L,S", [(16, 512), (5, 33), (5, 32), (4, 33), (6, 22)])
def test_kernel_calls_per_render(monkeypatch, L, S):
    # the default evaluates 5 x 129 samples per family (1,290 points, of
    # 17,442 samples); an odd L or S evaluates every line or sample of the
    # quarter, as the conjugation mirror alone does
    calls = []
    kernel = octell.figure.essential_R_values

    def count(points, lat):
        calls.extend(points)
        return kernel(points, lat)

    monkeypatch.setattr(octell.figure, "essential_R_values", count)
    render_figure(FigureConfig(lines_per_axis=L, samples_per_line=S))
    k_eval, j_eval = _evaluated(L, S)
    assert len(calls) == 2 * (k_eval + 1) * (j_eval + 1)
    if (L, S) == (16, 512):
        assert len(calls) == 1290
    if L % 2 and S % 2:
        assert len(calls) == 2 * (L // 2 + 1) * (S // 2 + 1)


# --- byte-identity guard --------------------------------------------------
# The figure's printer as it was one point at a time: each quarter sample
# printed with two %.9g calls, mirrored by token lists and split into
# polylines at None. Line-level printing must give the same SVG text.

def _ref_printed(vals, clip):
    pts, conj_pts = [], []
    for v in vals:
        if is_pole(v) or abs(v) > clip:
            pts.append(None)
            conj_pts.append(None)
            continue
        x = "%.9g," % (v.real + 0.0)
        y = "%.9g" % (-v.imag + 0.0)
        pts.append(x + y)
        conj_pts.append(x + (y[1:] if y[0] == "-" else y if y == "0" else "-" + y))
    return pts, conj_pts


def _ref_mirror_block(block, image, rows, cols):
    r = rows - len(block)
    c = cols - len(block[0])
    pairs = list(zip(block, image))
    return [[*b, *reversed(m[:c])] for b, m in pairs] + [
        [*m, *reversed(b[:c])] for b, m in reversed(pairs[:r])
    ]


def _ref_polylines(points):
    out = []
    run = []
    for p in [*points, None]:
        if p is not None:
            run.append(p)
            continue
        if len(run) >= 2:
            out.append('<polyline points="%s"/>' % " ".join(run))
        run = []
    return "".join(out)


def _ref_groups(quarter, L, S, clip):
    pts, conj_pts = zip(*(_ref_printed(vals, clip) for vals in quarter))
    lines = _ref_mirror_block(pts, conj_pts, L + 1, S + 1)
    return [f'<g data-line="{k}">{_ref_polylines(line)}</g>' for k, line in enumerate(lines)]


# None and 1.0 break lines at poles and clipped values; under 1e300 only the
# poles at the ends of lines 0 and L break, so every group is one polyline
@pytest.mark.parametrize("clip", [None, 1.0, 1e300])
@pytest.mark.parametrize("L,S", [(16, 512), (5, 33), (4, 32), (6, 20), (7, 16)])
@pytest.mark.parametrize("beta", [None, 1.0 + 1e-6, 1.2, 3.0, 50.0, 1e12])
def test_svg_matches_point_by_point_printer(monkeypatch, beta, L, S, clip):
    kw = {} if beta is None else dict(beta=beta)
    cfg = FigureConfig(lines_per_axis=L, samples_per_line=S, clip_radius=clip, **kw)
    seen = []
    quarter = octell.figure._quarter

    def record(*args):
        seen.append(quarter(*args))
        return seen[-1]

    monkeypatch.setattr(octell.figure, "_quarter", record)
    svg = render_figure(cfg)
    assert len(seen) == 2
    radius = cfg.resolved_clip()
    red, blue = (_ref_groups(q, L, S, radius) for q in seen)
    if clip == 1.0:
        # the unit clip cuts finite values as well as the poles
        assert any(
            not is_pole(v) and abs(v) > radius for q in seen for line in q for v in line
        )
    if clip == 1e300:
        assert all(body.count("<polyline ") == 1 for _, body in _GROUP_RE.findall(svg))
    for line in (line for q in seen for line in q):
        # the flag that writes a line as one polyline: no break token printed
        text, whole = octell.figure._printed(line, radius)
        assert whole == ("inf,0 " not in text)
    frame = [line for line in svg.split("\n") if not line.startswith("<g data-line=")]
    want = "\n".join([*frame[:2], *red, *frame[2:4], *blue, *frame[4:]])
    if svg != want:
        # show where they part rather than a diff of two long texts
        i = next(
            (i for i, (a, b) in enumerate(zip(svg, want)) if a != b),
            min(len(svg), len(want)),
        )
        pytest.fail(f"differ at {i}: {svg[i - 60 : i + 60]!r} != {want[i - 60 : i + 60]!r}")

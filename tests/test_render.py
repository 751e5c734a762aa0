import pytest

from hahn_paths import ModelParams, Trajectory, render_svg, sample_trajectory, trajectory_lozenges
from hahn_paths.render import EDGE, hexagon_vertices


def _point_in_convex(pt, poly, eps=1e-9):
    area = sum(
        poly[i][0] * poly[(i + 1) % len(poly)][1]
        - poly[(i + 1) % len(poly)][0] * poly[i][1]
        for i in range(len(poly))
    )
    orient = 1.0 if area > 0 else -1.0
    for i in range(len(poly)):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % len(poly)]
        if orient * ((bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax)) < -eps:
            return False
    return True


def up_then_flat_trajectory():
    model = ModelParams(1, 1, 2)
    return Trajectory(model, ((0,), (1,), (1,)))


def test_single_path_lozenge_counts():
    loz = trajectory_lozenges(up_then_flat_trajectory())
    assert len(loz["up"]) == 1
    assert len(loz["flat"]) == 1
    assert len(loz["gap"]) == 1


@pytest.mark.parametrize(
    "nst", [(1, 1, 2), (2, 2, 4), (3, 1, 4), (2, 3, 5), (1, 0, 3), (2, 4, 4)]
)
def test_lozenge_counts_match_area_accounting(nst):
    model = ModelParams(*nst)
    traj = sample_trajectory(model, seed=11)
    loz = trajectory_lozenges(traj)
    a, b, c = model.N, model.S, model.T - model.S
    assert len(loz["up"]) == a * b
    assert len(loz["flat"]) == c * a
    assert len(loz["gap"]) == b * c


@pytest.mark.parametrize("nst", [(1, 1, 2), (2, 2, 4), (3, 2, 5)])
def test_lozenges_inside_hexagon(nst):
    model = ModelParams(*nst)
    traj = sample_trajectory(model, seed=3)
    outline = hexagon_vertices(model)
    for quads in trajectory_lozenges(traj).values():
        for quad in quads:
            for vertex in quad:
                assert _point_in_convex(vertex, outline)


def test_render_deterministic():
    model = ModelParams(2, 1, 3)
    a = render_svg(sample_trajectory(model, seed=5), "rhombi")
    b = render_svg(sample_trajectory(model, seed=5), "rhombi")
    assert a == b


@pytest.mark.parametrize("style", ["paths", "surface", "rhombi"])
def test_render_styles_produce_svg(style):
    traj = sample_trajectory(ModelParams(2, 2, 4), seed=1)
    text = render_svg(traj, style)
    assert text.startswith("<?xml")
    assert "</svg>" in text
    if style == "rhombi":
        assert text.count('class="up"') == 4
        assert text.count('class="flat"') == 4
        assert text.count('class="gap"') == 4
    else:
        assert text.count('class="step up"') == 4
        assert text.count('class="step flat"') == 4


def test_render_rejects_unknown_style():
    traj = sample_trajectory(ModelParams(1, 1, 2), seed=0)
    with pytest.raises(ValueError):
        render_svg(traj, "watercolor")


def test_unit_rhombus_edge_length():
    text = render_svg(up_then_flat_trajectory(), "rhombi")
    # first up-lozenge has a vertical side of one lattice unit = EDGE user units
    assert f'stroke-width="1"' in text
    assert EDGE == 20.0

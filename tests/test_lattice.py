import itertools

import numpy as np
import pytest

from rcmlab.lattice import (HyperRectangle, TorusGeometry, corner_points,
                            covering_rectangles, l1_norm, path_points)


def brute_ball(center, radius):
    d = len(center)
    m = int(np.ceil(radius))
    out = set()
    for off in itertools.product(range(-m, m + 1), repeat=d):
        if sum(abs(o) for o in off) < radius:
            out.add(tuple(c + o for c, o in zip(center, off)))
    return out


def test_l1_norm_cases():
    assert l1_norm((0, 0)) == 0
    assert l1_norm((1, -2, 3)) == 6
    assert l1_norm((5, 0)) == 5


def test_l1_triangle_inequality_sampled():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y, z = (tuple(rng.integers(-20, 20, size=3)) for _ in range(3))
        dxz = l1_norm(tuple(a - b for a, b in zip(x, z)))
        dxy = l1_norm(tuple(a - b for a, b in zip(x, y)))
        dyz = l1_norm(tuple(a - b for a, b in zip(y, z)))
        assert dxz <= dxy + dyz


def torus_ball(geo, center, radius):
    return {geo.coords(int(i)) for i in geo.ball_indices(center, radius)}


def test_ball_strict_inequality():
    geo = TorusGeometry(2, 16)
    assert torus_ball(geo, (0, 0), 1) == {(0, 0)}
    b2 = torus_ball(geo, (0, 0), 2)
    assert len(b2) == 5 and (1, 0) in b2 and (1, 1) not in b2


def test_ball_radius_three_enumeration_oracle():
    geo = TorusGeometry(2, 16)
    wrapped = {tuple(c % 16 for c in v) for v in brute_ball((0, 0), 3)}
    assert torus_ball(geo, (0, 0), 3) == wrapped
    assert len(wrapped) == 13


def test_ball_translation_invariance_on_torus():
    geo = TorusGeometry(2, 16)
    rng = np.random.default_rng(1)
    sizes = set()
    for _ in range(10):
        center = tuple(int(c) for c in rng.integers(0, 16, size=2))
        sizes.add(len(geo.ball_indices(center, 3.5)))
    assert len(sizes) == 1


def test_ball_wrap_rejected():
    geo = TorusGeometry(2, 8)
    with pytest.raises(ValueError, match="ball wraps"):
        geo.ball_indices((0, 0), 5)
    with pytest.raises(ValueError):
        geo.ball_indices((0, 0), 0)


def test_torus_geometry_validation():
    with pytest.raises(ValueError):
        TorusGeometry(1, 8)
    with pytest.raises(ValueError):
        TorusGeometry(2, 7)
    with pytest.raises(ValueError):
        TorusGeometry(2, 2)


def test_torus_indexing_roundtrip():
    geo = TorusGeometry(3, 6)
    for i in (0, 1, 7, 100, geo.n_vertices - 1):
        assert geo.index(geo.coords(i)) == i
    assert geo.wrap((-1, 6, 3)) == (5, 0, 3)
    assert geo.torus_distance((0, 0, 0), (5, 0, 3)) == 1 + 0 + 3


def test_neighbor_table_degree():
    geo = TorusGeometry(2, 4)
    table = geo.neighbor_table()
    assert table.shape == (16, 4)
    # +e1 then -e1 returns home
    for i in range(16):
        assert table[table[i, 0], geo.d + 0] == i


def test_neighbor_table_is_shared_and_read_only():
    # one cached table serves every kernel and thread, so no caller may write it
    table = TorusGeometry(3, 6).neighbor_table()
    assert table is TorusGeometry(3, 6).neighbor_table()
    assert table.dtype == np.int32
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


def vertex_set(rect):
    return {tuple(int(c) for c in row) for row in rect.vertex_array()}


def test_hyper_rectangle_counts():
    r0 = HyperRectangle((0,), 1, 0, 0)
    assert vertex_set(r0) == {(0,)}
    r1 = HyperRectangle((0, 0), 1, 3, 1)
    assert r1.n_vertices == 12
    assert len(vertex_set(r1)) == 12


def test_hyper_rectangle_translated_enumeration():
    rect = HyperRectangle((2, 0), 2, 2, 1)
    verts = vertex_set(rect)
    assert len(verts) == 9
    expected = {(2 + dx, 0 + dy) for dx in (-1, 0, 1) for dy in (0, 1, 2)}
    assert verts == expected
    assert rect.contains((2, 0))


def test_covering_rectangles_formula():
    rects = covering_rectangles((8, 0), 4)
    assert len(rects) == 3
    r1 = rects[1]
    assert r1.base == (0, 0) and r1.axis == 1 and r1.length == 12

    rects_axis2 = covering_rectangles((0, 8), 4)
    r2 = rects_axis2[2]
    assert r2.axis == 2 and r2.length == 12


def test_covering_rectangles_errors():
    with pytest.raises(ValueError, match="degenerate chain"):
        covering_rectangles((0, 0), 2)
    with pytest.raises(ValueError):
        covering_rectangles((1, 0), 5)  # r > 4|x|


def test_covering_contains_chain_balls_exhaustively():
    # every admissible waypoint choice for x=(8,0), r=4: chain balls have
    # radius below one lattice step, so the choices are the waypoints
    from rcmlab.chaining import build_chain

    x, r = (8, 0), 4
    plan = build_chain(x, float(l1_norm(x) * r))
    assert abs(plan.r - r) < 1e-12
    rects = covering_rectangles(x, r)
    root_s = plan.s**0.5
    for z in plan.waypoints:
        for v in brute_ball(z, root_s):
            assert any(rc.contains(v) for rc in rects), (z, v)


@pytest.mark.parametrize("x", [(8, 0), (0, 8), (-6, 3), (5, -7), (32, 0),
                               (8, 0, 0), (3, -4, 5), (0, 0, -9)])
def test_covering_tube_property(x):
    # rectangles jointly contain every vertex within sqrt(s) + r/48 of the path
    for r in (2, 4, 8):
        if r > 4 * l1_norm(x):
            continue
        radius = (r * r / 12.0) ** 0.5 + r / 48.0
        rects = covering_rectangles(x, r)
        for pt in path_points(x):
            for v in brute_ball(pt, radius + 1e-9):
                assert any(rc.contains(v) for rc in rects), (x, r, v)


def test_corner_and_path_points():
    assert corner_points((3, -2)) == [(0, 0), (3, 0), (3, -2)]
    pts = path_points((3, -2))
    assert pts[0] == (0, 0) and pts[-1] == (3, -2) and len(pts) == 6
    for a, b in zip(pts, pts[1:]):
        assert l1_norm(tuple(i - j for i, j in zip(a, b))) == 1

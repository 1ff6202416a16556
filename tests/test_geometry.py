import math

import numpy as np
import pytest

from chordscan import geometry as g
from chordscan import shapes

SQUARE_WITH_HOLE = g.Shape(
    [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)],
    ]
)


def test_point_rejects_non_finite():
    with pytest.raises(g.InvalidShapeError):
        g.Point(float("nan"), 0.0)


def test_ring_needs_three_distinct_vertices():
    with pytest.raises(g.InvalidShapeError):
        g.Ring([(0, 0), (1, 0)])
    with pytest.raises(g.InvalidShapeError):
        g.Ring([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_ring_from_a_float_array_is_the_ring_from_tuples():
    verts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.5), (0.5, 1.0)]
    for dtype in (float, np.float32):
        arr = np.array(verts, dtype=dtype)
        ring = g.Ring(arr)
        want = g.Ring([(float(x), float(y)) for x, y in arr])
        assert ring.coords.dtype == float and np.array_equal(ring.coords, want.coords)
        assert not ring.coords.flags.writeable
        arr[0] = (9.0, 9.0)  # the caller's array stays the caller's
        assert np.array_equal(ring.coords, want.coords)
    bad = {
        "two vertices": [[0.0, 0.0], [1.0, 0.0]],
        "three columns": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
        "flat": [0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
        "non-finite": [[0.0, 0.0], [1.0, np.nan], [1.0, 1.0]],
        "infinite": [[0.0, 0.0], [np.inf, 0.0], [1.0, 1.0]],
        "repeated": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
        "repeated across the closing edge": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]],
    }
    for name, coords in bad.items():
        with pytest.raises(g.InvalidShapeError):
            g.Ring(np.array(coords))
            pytest.fail(name)


def test_exact_area_unit_square():
    assert g.exact_area(shapes.square()) == pytest.approx(1.0, abs=1e-12)


def test_exact_area_square_with_hole():
    assert g.exact_area(SQUARE_WITH_HOLE) == pytest.approx(0.75, abs=1e-12)


def test_exact_area_two_disjoint_squares():
    two = g.union_disjoint([shapes.square(), shapes.square(corner=(2.0, 0.0))])
    assert g.exact_area(two) == pytest.approx(2.0, abs=1e-12)
    assert g.exact_perimeter(two) == pytest.approx(8.0, abs=1e-12)


def test_exact_perimeter_square_and_annulus():
    assert g.exact_perimeter(shapes.square()) == pytest.approx(4.0, abs=1e-12)
    ann = shapes.annulus()
    # 64-gon polygonization sits just below the smooth-circle value
    smooth = 6.0 * math.pi
    poly = 2 * 64 * math.sin(math.pi / 64) * (1.0 + 2.0)
    assert g.exact_perimeter(ann) == pytest.approx(poly, rel=1e-12)
    assert abs(g.exact_perimeter(ann) - smooth) / smooth < 1e-3


def test_contains_basic():
    sq = shapes.square()
    assert g.contains(sq, g.Point(0.5, 0.5))
    assert not g.contains(sq, g.Point(2.0, 2.0))
    assert not g.contains(SQUARE_WITH_HOLE, g.Point(0.5, 0.5))
    assert g.contains(SQUARE_WITH_HOLE, g.Point(0.1, 0.5))


def test_contains_matches_pixel_count_area():
    # brute-force pixel oracle: the even-odd area equals a fine-grid count
    shape = g.Shape(
        [
            [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],  # L-shape
            [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)],  # hole
        ]
    )
    n = 251
    xs = np.linspace(0.001, 1.999, n)
    ys = np.linspace(0.001, 1.999, n)
    step = xs[1] - xs[0]
    count = sum(
        g.contains(shape, g.Point(x, y)) for x in xs for y in ys
    )
    pixel_area = count * step * step
    tol = 2.0 * step * g.exact_perimeter(shape)
    assert abs(pixel_area - g.exact_area(shape)) < tol


def test_bounding_circle_unit_square():
    c, r = g.bounding_circle(shapes.square())
    assert c.x == pytest.approx(0.5, abs=1e-9)
    assert c.y == pytest.approx(0.5, abs=1e-9)
    assert math.sqrt(2) / 2 <= r + 1e-12 <= 1.06


def test_bounding_circle_far_ring():
    far = g.Shape([[(100, 50), (101, 50), (101, 51), (100, 51)]])
    c, r = g.bounding_circle(far)
    assert math.hypot(c.x - 100.5, c.y - 50.5) < 0.1
    assert r < 1.0


def test_bounding_circle_two_squares_apart():
    two = g.union_disjoint([shapes.square(), shapes.square(corner=(10.0, 0.0))])
    _, r = g.bounding_circle(two)
    assert r >= 5.0


def test_bounding_circle_covers_all_vertices():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2)) * (3, 1) + (5, -2)
    ring = g.Ring(np.array(sorted(map(tuple, pts), key=lambda p: math.atan2(p[1] + 2, p[0] - 5))))
    shape = g.Shape([ring], validate=False)
    c, r = g.bounding_circle(shape)
    d = np.hypot(pts[:, 0] - c.x, pts[:, 1] - c.y)
    assert np.all(d <= r * (1 + 1e-9))


@pytest.mark.parametrize("name", shapes.BUILTIN_NAMES)
def test_bounding_circle_moves_with_the_shape(name):
    # at (1e6, -2e6) the circle is the moved circle of the shape at the
    # origin, to within the 2.3e-10 spacing of the moved coordinates, and
    # covers every vertex; computed in absolute coordinates, the squares of
    # a circumcircle through three vertices lose 5e-4 of the radius
    shape = shapes.builtin(name)
    motion = g.RigidTransform(0.3, g.Point(1e6, -2e6))
    far = g.transform(shape, motion)
    c0, r0 = g.bounding_circle(shape)
    c, r = g.bounding_circle(far)
    moved = motion.apply(c0.as_array())
    assert math.hypot(c.x - moved[0], c.y - moved[1]) <= 1e-9
    assert r == pytest.approx(r0, rel=1e-9, abs=0.0)
    pts = np.vstack([ring.coords for ring in far.rings])
    assert np.all(np.hypot(pts[:, 0] - c.x, pts[:, 1] - c.y) <= r + 1e-9)


def test_transform_identity_and_invariance():
    st = shapes.statue()
    ident = g.transform(st, g.RigidTransform())
    for r0, r1 in zip(st.rings, ident.rings):
        assert np.allclose(r0.coords, r1.coords)
    rot = g.RigidTransform(rotation=math.pi / 2, translation=g.Point(3, -1))
    assert g.exact_area(g.transform(st, rot)) == pytest.approx(g.exact_area(st), rel=1e-9)
    assert g.exact_perimeter(g.transform(st, rot)) == pytest.approx(
        g.exact_perimeter(st), rel=1e-9
    )
    mir = g.RigidTransform(mirror=True)
    lshape = g.Shape([[(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]])
    assert g.exact_area(g.transform(lshape, mir)) == pytest.approx(
        g.exact_area(lshape), rel=1e-9
    )


def test_transform_preserves_pairwise_distances():
    t = g.RigidTransform(rotation=0.7, translation=g.Point(-2, 4), mirror=True)
    pts = np.random.default_rng(0).normal(size=(10, 2))
    out = t.apply(pts)
    d0 = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    d1 = np.hypot(*(out[:, None, :] - out[None, :, :]).transpose(2, 0, 1))
    assert np.allclose(d0, d1, rtol=1e-12, atol=1e-12)


def test_union_disjoint_identity_and_errors():
    sq = shapes.square()
    assert g.union_disjoint([sq]) is sq
    with pytest.raises(g.InvalidShapeError):
        g.union_disjoint([])
    with pytest.raises(g.InvalidShapeError):
        g.union_disjoint([sq, shapes.square(corner=(0.5, 0.5))])  # edge crossing
    with pytest.raises(g.InvalidShapeError):
        g.union_disjoint([shapes.square(side=4.0, corner=(-2, -2)), sq])  # contained


def test_union_disjoint_nested_hole_is_allowed():
    # a small square inside the hole of the big one: disjoint interiors
    inner = shapes.square(side=0.2, corner=(0.4, 0.4))
    both = g.union_disjoint([SQUARE_WITH_HOLE, inner])
    assert g.exact_area(both) == pytest.approx(0.75 + 0.04, abs=1e-12)


def test_crossing_rings_rejected():
    with pytest.raises(g.InvalidShapeError):
        g.Shape([[(0, 0), (2, 0), (2, 2), (0, 2)], [(1, 1), (3, 1), (3, 3), (1, 3)]])


def test_self_intersecting_ring_rejected():
    with pytest.raises(g.InvalidShapeError):
        g.Shape([[(0, 0), (2, 2), (2, 0), (0, 2)]])  # bowtie


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_ring_validation_does_not_depend_on_distance_from_origin(offset):
    def moved(*rings):
        return [[(x + offset, y + offset) for x, y in ring] for ring in rings]

    outer = [(0, 0), (1, 0), (1, 1), (0, 1)]
    holed = g.Shape(moved(outer, [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]))
    assert g.exact_area(holed) == pytest.approx(0.75, rel=1e-9)
    with pytest.raises(g.InvalidShapeError):
        g.Shape(moved([(0, 0), (1, 1), (1, 0), (0, 1)]))  # bowtie
    with pytest.raises(g.InvalidShapeError):
        # the hole's apex lies on the outer ring's right edge
        g.Shape(moved(outer, [(0.25, 0.25), (1, 0.5), (0.25, 0.75)]))


def test_statue_matches_triangle_area():
    assert g.exact_area(shapes.statue()) == pytest.approx(
        g.exact_area(shapes.triangle()), rel=1e-9
    )


def test_shape_file_roundtrip(tmp_path):
    path = tmp_path / "shape.json"
    g.save_shape(SQUARE_WITH_HOLE, path)
    back = g.load_shape(path)
    assert len(back.rings) == 2
    assert g.exact_area(back) == pytest.approx(0.75, abs=1e-12)


def test_shape_file_rejects_too_few_vertices(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rings": [[[0, 0], [1, 0]]]}')
    with pytest.raises(g.InvalidShapeError):
        g.load_shape(path)


def test_duplicate_rings_rejected():
    ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(g.InvalidShapeError):
        g.Shape([ring, ring])

"""Polygonal shapes with even-odd interiors: exact oracles and rigid motions.

A Shape is a set of simple, pairwise non-crossing rings; a point is interior
when a ray from it crosses the union of ring edges an odd number of times.
Holes and disconnected pieces are just extra rings, no orientation needed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Membership rays are cast at a fixed angle with irrational slope so they are
# never collinear with an edge of a hand-entered polygon. Queries exactly on a
# boundary edge are unspecified (callers keep sample points off boundaries).
RAY_ANGLE = 0.6180339887498949

_EPS = 1e-12


class InvalidShapeError(ValueError):
    """A ring or shape violates the geometry invariants."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidShapeError(f"non-finite point ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class RigidTransform:
    """Mirror (across the x axis), then rotate, then translate."""

    rotation: float = 0.0
    translation: Point = Point(0.0, 0.0)
    mirror: bool = False

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        rot = np.array([[c, -s], [s, c]])
        if self.mirror:
            rot = rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
        return rot

    def apply(self, coords: np.ndarray) -> np.ndarray:
        out = np.asarray(coords, dtype=float) @ self.matrix().T
        out[..., 0] += self.translation.x
        out[..., 1] += self.translation.y
        return out


class Ring:
    """A closed polygon boundary; vertices are implicitly closed."""

    __slots__ = ("coords",)

    def __init__(self, vertices):
        if isinstance(vertices, np.ndarray) and vertices.dtype.kind == "f":
            coords = np.array(vertices, dtype=float)  # a copy the caller cannot change
        else:
            try:
                coords = np.array([(v.x, v.y) if isinstance(v, Point) else v for v in vertices], float)
            except (TypeError, ValueError):
                raise InvalidShapeError("a ring is a list of (x, y) vertices") from None
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 3:
            raise InvalidShapeError("a ring needs at least 3 (x, y) vertices")
        if not np.isfinite(coords).all():
            raise InvalidShapeError("ring has non-finite coordinates")
        step = np.abs(np.concatenate((coords[1:], coords[:1])) - coords)
        if (step <= _EPS).all(axis=1).any():
            raise InvalidShapeError("ring has repeated consecutive vertices")
        coords.setflags(write=False)
        self.coords = coords

    def __len__(self) -> int:
        return self.coords.shape[0]

    def signed_area(self) -> float:
        x, y = self.coords[:, 0], self.coords[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def length(self) -> float:
        d = np.roll(self.coords, -1, axis=0) - self.coords
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


class Shape:
    """Immutable collection of non-crossing rings with an even-odd interior."""

    __slots__ = ("rings", "name", "_derived")

    def __init__(self, rings, name: str | None = None, validate: bool = True):
        self.rings = tuple(r if isinstance(r, Ring) else Ring(r) for r in rings)
        self.name = name
        self._derived = {}  # filled by derived() on first use
        if not self.rings:
            raise InvalidShapeError("a shape needs at least one ring")
        if validate:
            _validate_rings(self.rings)
            if exact_area(self) <= 0.0:
                raise InvalidShapeError("shape has non-positive even-odd area")

    def derived(self, key: str, build):
        """build(self), made on first use and kept with the shape under key.

        A shape never changes, so its kernel arrays and arena circle are made once;
        a maker may fix one first, as letter_shape its arena (a transformed copy has none).
        """
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _edges_table(rings) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All edges of all rings as (start, end, ring id, position in ring)."""
    starts, ends, rid, pos = [], [], [], []
    for i, ring in enumerate(rings):
        c = ring.coords
        starts.append(c)
        ends.append(np.roll(c, -1, axis=0))
        rid.append(np.full(len(c), i))
        pos.append(np.arange(len(c)))
    return np.vstack(starts), np.vstack(ends), np.concatenate(rid), np.concatenate(pos)


def _validate_rings(rings) -> None:
    """Reject self-intersecting rings and crossing/touching ring pairs.

    Pairwise segment test over all edges; adjacent edges of the same ring are
    exempt (they legitimately share a vertex).
    """
    p, q, rid, pos = _edges_table(rings)
    sizes = np.array([len(r) for r in rings])
    n = p.shape[0]
    # Cross products of coordinate differences grow with the shape's extent and
    # their rounding error with extent x coordinate size, not with offset alone.
    scale = max(1.0, float(np.max(np.abs(p))))
    extent = float(np.max(np.ptp(p, axis=0)))
    tol = _EPS * extent * scale
    d = q - p

    block = 512
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        pa, qa, da = p[lo:hi, None, :], q[lo:hi, None, :], d[lo:hi, None, :]
        # cross products orienting each endpoint against the other segment
        c1 = _cross2(d[None, :, :], pa - p[None, :, :])
        c2 = _cross2(d[None, :, :], qa - p[None, :, :])
        c3 = _cross2(da, p[None, :, :] - pa)
        c4 = _cross2(da, q[None, :, :] - pa)

        pairable = np.ones((hi - lo, n), dtype=bool)
        idx_a = np.arange(lo, hi)[:, None]
        idx_b = np.arange(n)[None, :]
        pairable &= idx_b > idx_a  # each unordered pair once, skip self
        same_ring = rid[lo:hi, None] == rid[None, :]
        gap = np.abs(pos[lo:hi, None] - pos[None, :])
        ring_n = sizes[rid[lo:hi]][:, None]
        adjacent = same_ring & ((gap == 1) | (gap == ring_n - 1))
        pairable &= ~adjacent

        proper = (c1 * c2 < -tol * tol) & (c3 * c4 < -tol * tol)
        # collinear-but-distant pairs are fine; require bounding boxes to meet
        amin = np.minimum(pa, qa)
        amax = np.maximum(pa, qa)
        bmin = np.minimum(p[None, :, :], q[None, :, :])
        bmax = np.maximum(p[None, :, :], q[None, :, :])
        boxes_meet = np.all((amin <= bmax + tol) & (bmin <= amax + tol), axis=2)
        touch = _segments_really_touch(c1, c2, c3, c4, pa, qa, p, q, tol)
        bad = pairable & (proper | (boxes_meet & touch))
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise InvalidShapeError(
                f"edges {lo + i} and {j} intersect (rings {rid[lo + i]}, {rid[j]})"
            )


def _segments_really_touch(c1, c2, c3, c4, pa, qa, pb, qb, tol) -> np.ndarray:
    """Does some endpoint lie on the other segment? c1..c4 are pa's, qa's,
    pb's and qb's cross products with the other segment, as _validate_rings
    computes them: near zero when the endpoint is near the segment's line."""

    def on_seg(cross, pt, s0, s1):
        seg = s1 - s0
        rel = pt - s0
        dotv = seg[..., 0] * rel[..., 0] + seg[..., 1] * rel[..., 1]
        lens = seg[..., 0] ** 2 + seg[..., 1] ** 2
        return (np.abs(cross) <= tol) & (dotv >= -tol) & (dotv <= lens + tol)

    return on_seg(c1, pa, pb, qb) | on_seg(c2, qa, pb, qb) | on_seg(c3, pb, pa, qa) | on_seg(c4, qb, pa, qa)


def _ray_crossings(coords: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Crossings of the fixed-angle ray from each probe (a row of probes)
    with one ring (half-open rule)."""
    u = np.array([math.cos(RAY_ANGLE), math.sin(RAY_ANGLE)])
    nrm = np.array([-u[1], u[0]])
    rel = (coords[None, :, :] - probes[:, None, :]).reshape(-1, 2)
    eta = (rel @ nrm).reshape(len(probes), -1)
    xi = (rel @ u).reshape(len(probes), -1)
    eta2, xi2 = np.roll(eta, -1, axis=1), np.roll(xi, -1, axis=1)
    straddles = (eta > 0.0) != (eta2 > 0.0)
    e1, e2 = eta[straddles], eta2[straddles]
    x1, x2 = xi[straddles], xi2[straddles]
    xc = x1 + (x2 - x1) * (e1 / (e1 - e2))
    return np.bincount(np.nonzero(straddles)[0][xc > 0.0], minlength=len(probes))


def contains(shape: Shape, pt: Point) -> bool:
    """Even-odd membership; points exactly on a boundary edge are unspecified."""
    probe = pt.as_array()[None]
    return sum(int(_ray_crossings(r.coords, probe)[0]) for r in shape.rings) % 2 == 1


def exact_area(shape: Shape) -> float:
    """Lebesgue measure of the even-odd interior.

    Each ring contributes |shoelace| with sign (-1)**depth, depth counting the
    rings strictly containing it (those that cross the ray from its first
    vertex an odd number of times). Valid because rings never cross.
    """
    probes = np.array([r.coords[0] for r in shape.rings])
    depth = np.zeros(len(probes), dtype=np.intp)
    for j, ring in enumerate(shape.rings):
        odd = _ray_crossings(ring.coords, probes) % 2
        odd[j] = 0  # a ring does not contain itself
        depth += odd
    total = 0.0
    for ring, d in zip(shape.rings, depth.tolist()):
        total += abs(ring.signed_area()) * (1.0 if d % 2 == 0 else -1.0)
    return total


def exact_perimeter(shape: Shape) -> float:
    """Total boundary length, hole boundaries included."""
    return sum(r.length() for r in shape.rings)


def bounding_circle(shape: Shape) -> tuple[Point, float]:
    """Minimal enclosing circle of all vertices (Welzl, move-to-front).

    Found about o, the vertices' box centre truncated to a multiple of g =
    2**ceil(log2(extent)): an exact shift, 0 about the origin, that keeps
    circle3's squares at the shape's size, so the circle moves with the shape.
    """
    pts = np.vstack([r.coords for r in shape.rings])
    pts = pts[np.random.default_rng(8675309).permutation(len(pts))]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    g = 2.0 ** math.ceil(math.log2(np.max(hi - lo)))
    o = np.trunc((lo + hi) / (2.0 * g)) * g
    pts = pts - o

    def circle2(a, b):
        c = (a + b) / 2.0
        return c, float(np.hypot(*(a - c)))

    def circle3(a, b, c):
        # circumcircle; falls back to the widest pair when nearly collinear
        d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
        if abs(d) < 1e-14 * max(1.0, np.max(np.abs([a, b, c]))) ** 2:
            pairs = [circle2(a, b), circle2(b, c), circle2(a, c)]
            return max(pairs, key=lambda cr: cr[1])
        ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
        uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
        ctr = np.array([ux, uy])
        return ctr, float(np.hypot(*(a - ctr)))

    def inside(ctr, r, pt):
        return np.hypot(*(pt - ctr)) <= r * (1.0 + 1e-12) + 1e-14

    ctr, rad = pts[0], 0.0
    for i in range(1, len(pts)):
        if inside(ctr, rad, pts[i]):
            continue
        ctr, rad = pts[i], 0.0
        for j in range(i):
            if inside(ctr, rad, pts[j]):
                continue
            ctr, rad = circle2(pts[i], pts[j])
            for k in range(j):
                if inside(ctr, rad, pts[k]):
                    continue
                ctr, rad = circle3(pts[i], pts[j], pts[k])
    ctr = ctr + o
    return Point(float(ctr[0]), float(ctr[1])), rad


def transform(shape: Shape, t: RigidTransform) -> Shape:
    """Apply a rigid motion; validity is preserved, so no re-validation."""
    rings = [Ring(t.apply(r.coords)) for r in shape.rings]
    return Shape(rings, name=shape.name, validate=False)


def union_disjoint(shapes) -> Shape:
    """Concatenate the rings of non-overlapping shapes into one shape."""
    shapes = list(shapes)
    if not shapes:
        raise InvalidShapeError("union of no shapes")
    if len(shapes) == 1:
        return shapes[0]
    for i, a in enumerate(shapes):
        for j, b in enumerate(shapes):
            if i != j and contains(b, Point(*a.rings[0].coords[0])):
                raise InvalidShapeError(f"shapes {i} and {j} overlap")
    rings = [r for s in shapes for r in s.rings]
    return Shape(rings, validate=True)  # also catches boundary crossings


def to_dict(shape: Shape) -> dict:
    doc = {"rings": [r.coords.tolist() for r in shape.rings]}
    if shape.name:
        doc["name"] = shape.name
    return doc


def from_dict(doc: dict) -> Shape:
    if not isinstance(doc, dict) or not isinstance(doc.get("rings"), list):
        raise InvalidShapeError("shape document must contain a 'rings' list")
    return Shape(doc["rings"], name=doc.get("name"))


def save_shape(shape: Shape, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(shape), fh, indent=2)
        fh.write("\n")


def load_shape(path) -> Shape:
    with open(path) as fh:
        return from_dict(json.load(fh))

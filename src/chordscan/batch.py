"""Vectorized many-lines-at-once observation kernel and its per-line record.

A line is (theta, p) as the samplers draw it (see sampling): the angle theta
in [0, pi) of its normal and its offset p from the centre of the shape's
arena, the one centre a shape has. _scan finds every boundary crossing of
arrays of such lines: the one ring scan in the package. Each line tests
only the edges its cell of the shape's candidate-edge table lists (see
CompiledShape), so the work per line follows the edges it can cross, not the
vertex count. Endpoints z are complex, relative to the arena's centre, so
one multiply z (cos theta - i sin theta) gives an endpoint's signed distance
s from the line plus i times its position x along it. A line passing within
the vertex band of any vertex is rejected: 1e-12 x max(1, R), R the radius
of the shape's arena circle, which a rigid motion leaves as it is. Random
lines hit this with probability ~0, and rejections are counted. The band is
tested once per vertex, at the start of each candidate edge: every vertex
starts exactly one edge, and the table lists that edge wherever a line
passes within tolerance of the vertex.
A line's cos theta and sin theta are _sincos' floats, each within eps of
its true value. Error model (cf. Higham, Accuracy and Stability of Numerical
Algorithms, 2002): with the scan's own floats taken as exact (those cos and
sin, a line's offset p as drawn, the endpoints), a crossing lies within
4 eps E kappa of its exact position, E the largest absolute endpoint
coordinate and kappa = 1 + |x2 - x1| / |s1 - s2| its conditioning;
tests/test_batch.py measured at most 0.89 eps E kappa. numpy may fuse the
complex multiply, so the last bit can differ across CPUs and numpy builds.
One call may span several shapes: its lines come in parts, each part's
lines placed in its own shape's table and tested against its own shape's
vertex band, while the tables are joined and
_sincos runs once, so a part's numbers are those of its own call.
observe_segments reduces the crossings to a BatchObservations, the one record
of a block of lines from the kernel to the accumulator. A lone chord is read
straight from its two events; the other hit lines go most events first, and
each run of one event count is sorted at that count, not every line at the
longest line's count. With a line's events taken as exact, its L1 and L3 lie
within relative (k + c) eps of their signed all-pairs gap sums, k its chord
count and c = 5: every term of _line_sums' O(k) sums is non-negative, so
nothing cancels, and a term meets at most k + 9 roundings of eps / 2 each;
tests/test_batch.py measured at most 0.41 (k + 5) eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import Shape
from .sampling import arena_for

# Half-width of the vertex band, relative to max(1, R), R the radius of the
# shape's arena circle: a line this close to a vertex is rejected.
ONLINE_TOL = 1e-12
# Slack past the tolerance band when the table lists an edge for a cell, so
# rounding in a line's angle, offset and vertex distances never drops an edge
# the line reaches.
_PAD = 1e-9
# Elements per reduction sub-block: lines x events at its longest line.
# The ring scan takes (line, candidate edge) pairs, and the table build
# (angle row, edge) pairs, _BLOCK // 8 at a time: each pair carries about a
# dozen temporaries, and at that size none passes 64 kB (the scan's complex
# ones reach it). The temporaries do not grow with the lines observed.
_BLOCK = 1 << 15
# Side of a table cell along the offset axis, as a fraction of the shape's
# mean edge length (an angle bin moves the farthest vertex's offset as far),
# and the most cells along either axis. At 0.1 a line tests about a fifth
# fewer edges, but the tables are three to four times as large and take
# twice as long to build, and observe_segments measured no faster.
_CELL = 0.25
_MAX_CELLS = 256
# Compare-exchange networks that sort 4 and 6 events (Knuth, The Art of
# Computer Programming, vol. 3, 5.3.4). np.sort along a run's columns costs
# about 60 ns a line, a compare-exchange a few us whatever the run's length,
# so a network sorts a run of at least _EXCHANGE_LINES lines per exchange:
# on 6,816 four-event lines it took 50 us, np.sort 426 us.
_NETWORKS = {
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    6: (
        (0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3),
        (2, 5), (0, 1), (2, 3), (4, 5), (1, 2), (3, 4),
    ),
}
_EXCHANGE_LINES = 64
# _sincos' table: cos and sin at the nodes k pi / 1024, k = 0..1024.
_NODE_STEP = math.pi / 1024
_NODE_COS = np.cos(np.arange(1025) * _NODE_STEP)
_NODE_SIN = np.sin(np.arange(1025) * _NODE_STEP)


class CompiledShape:
    """A shape's edges and its candidate-edge table: the arrays the ring scan reads.

    A line is placed by the angle phi in [0, pi) of its normal and its offset
    c along that normal from the centre O of the shape's arena (the Hough
    parametrisation): the (theta, p) a sampler draws.
    The band |c| <= reach, outside which a line is farther than the tolerance
    band from every vertex, is cut into n_phi x n_c cells; cell (i, j), at
    index i * n_c + j, lists edges[ptr[cell]:ptr[cell + 1]]: every edge that
    a line of the cell can cross or pass within tol of an endpoint of. A last,
    empty cell serves the lines out of reach. Edge i runs from zp[i] to
    zq[i], complex numbers x + iy relative to O (views of one (x, y) array
    each), so the differences stay small for shapes far from the origin. Callers take it from
    shape.derived("kernel", CompiledShape), built once per shape.
    """

    __slots__ = ("center", "zp", "zq", "tol", "reach", "n_phi", "n_c", "ptr", "edges")

    def __init__(self, shape: Shape):
        coords = [r.coords for r in shape.rings]
        arena = arena_for(shape, 1.0)
        self.center = arena.center
        p = np.concatenate(coords) - self.center.as_array()
        q = np.concatenate([np.roll(c, -1, axis=0) for c in coords]) - self.center.as_array()
        self.zp, self.zq = p.view(complex)[:, 0], q.view(complex)[:, 0]
        self.tol = ONLINE_TOL * max(1.0, arena.radius)
        slack = self.tol + _PAD
        self.reach = float(np.max(np.hypot(p[:, 0], p[:, 1]))) + slack
        side = _CELL * float(np.mean(np.hypot(*(q - p).T)))
        self.n_c = min(_MAX_CELLS, math.ceil(2.0 * self.reach / side))
        self.n_phi = min(_MAX_CELLS, math.ceil(math.pi * self.reach / side))
        self.ptr, self.edges = self._table(p, q, slack)

    def _table(self, p: np.ndarray, q: np.ndarray, slack: float):
        """(ptr, edges) of the cells, counted and then filled a few angle rows at a time.

        Over an angle bin of width dphi, an endpoint v's offset n(phi).v
        moves by at most |v| dphi / 2 from its value at the bin's middle
        (|d/dphi n(phi).v| <= |v|), so an edge reaches the offsets between
        its endpoints' middle offsets, widened by that motion and by the
        tolerance band plus _PAD. Each cell lists its edges in index order.
        The cells' counts come first, so edges is filled where it lies and
        the table is never held twice.
        """
        n_edges = len(p)
        dphi = math.pi / self.n_phi
        move_p = np.hypot(p[:, 0], p[:, 1]) * (0.5 * dphi) + slack
        move_q = np.hypot(q[:, 0], q[:, 1]) * (0.5 * dphi) + slack
        to_col = self.n_c / (2.0 * self.reach)
        step = max(1, _BLOCK // 8 // n_edges)
        chunks = range(0, self.n_phi, step)

        def columns(row0):
            """The chunk's rows, and each (row, edge) pair's first and last cell column."""
            rows = np.arange(row0, min(row0 + step, self.n_phi))
            phi = ((rows + 0.5) * dphi)[:, None]
            cos, sin = np.cos(phi), np.sin(phi)
            off_p = p[:, 0] * cos + p[:, 1] * sin
            off_q = q[:, 0] * cos + q[:, 1] * sin
            lo = np.minimum(off_p - move_p, off_q - move_q)
            hi = np.maximum(off_p + move_p, off_q + move_q)
            col_lo = np.clip((lo + self.reach) * to_col, 0, self.n_c - 1)
            col_hi = np.clip((hi + self.reach) * to_col, 0, self.n_c - 1)
            return rows, col_lo, col_hi

        # a pair lists its edge in the cells from its first column to its
        # last: +1 at the first, -1 past the last, summed along the cells
        n_cells = self.n_phi * self.n_c
        steps = np.zeros(n_cells + 1, dtype=np.intp)
        for row0 in chunks:
            rows, col_lo, col_hi = columns(row0)
            at = (self.n_c * (rows - row0))[:, None]
            size = rows.size * self.n_c + 1
            into = steps[row0 * self.n_c : row0 * self.n_c + size]
            into += np.bincount((at + col_lo.astype(np.intp)).ravel(), minlength=size)
            into -= np.bincount((at + col_hi.astype(np.intp) + 1).ravel(), minlength=size)
        # one more, empty cell for the lines out of reach
        ptr = np.zeros(n_cells + 2, dtype=np.int32)
        np.cumsum(np.cumsum(steps[:-1]), out=ptr[1:-1])
        ptr[-1] = ptr[-2]
        del steps
        # each chunk's listings are sorted as one key, cell << bits | edge,
        # with cells numbered from the chunk's first row (fewer than 2**16)
        bits = 16 if n_edges <= 1 << 16 else 32
        key_type = np.uint32 if bits == 16 else np.uint64
        edge_ids = np.arange(n_edges, dtype=key_type)
        edges = np.empty(int(ptr[-1]), dtype=np.min_scalar_type(n_edges - 1))
        for row0 in chunks:
            rows, col_lo, col_hi = columns(row0)
            col_lo, col_hi = col_lo.astype(key_type), col_hi.astype(key_type)
            # a (row, edge) pair lists the edge in span cells from its first;
            # the keys wrap around in unsigned arithmetic, and end in range
            span = (col_hi - col_lo + 1).ravel()
            first = (col_lo + self.n_c * (rows - row0).astype(key_type)[:, None]) << bits
            skip = (np.cumsum(span, dtype=key_type) - span) << bits
            key = np.repeat((first | edge_ids).ravel() - skip, span)
            key += np.arange(key.size, dtype=key_type) << bits
            key.sort()
            key &= (1 << bits) - 1
            start = int(ptr[row0 * self.n_c])
            edges[start : start + key.size] = key
        return ptr, edges


@dataclass
class BatchObservations:
    """Per-line observation arrays; rejected lines carry zeroed statistics."""

    k: np.ndarray  # chords per line
    L1: np.ndarray  # == per-line chord sum
    L3: np.ndarray
    chord_cube_sum: np.ndarray
    chords_flat: np.ndarray  # all chord lengths, line by line (k[i] for line i)
    rejected: np.ndarray  # bool mask
    theta: np.ndarray  # the lines as observed (see sampling)
    p: np.ndarray

    def __len__(self) -> int:
        return len(self.k)

    def select(self, lines: np.ndarray) -> "BatchObservations":
        """The record of the given lines (indices into this one), in that order."""
        cols = {f.name: getattr(self, f.name)[lines] for f in fields(self) if f.name != "chords_flat"}
        k = cols["k"]
        # each selected line's chords: its first chord here, then on
        chord = np.repeat((np.cumsum(self.k) - self.k)[lines] - (np.cumsum(k) - k), k)
        chord += np.arange(chord.size)
        return BatchObservations(chords_flat=self.chords_flat[chord], **cols)

    @staticmethod
    def concatenate(parts: list["BatchObservations"]) -> "BatchObservations":
        """One record of the parts' lines, in order."""
        if len(parts) == 1:
            return parts[0]
        cols = [[getattr(part, f.name) for part in parts] for f in fields(BatchObservations)]
        return BatchObservations(*(np.concatenate(col) for col in cols))


def _cells(cshape: CompiledShape, theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each line's table cell; the empty last cell for lines out of reach."""
    row = (theta * (cshape.n_phi / math.pi)).astype(np.intp)
    np.minimum(row, cshape.n_phi - 1, out=row)
    col = (c + cshape.reach) * (cshape.n_c / (2.0 * cshape.reach))
    np.clip(col, -1.0, cshape.n_c, out=col)  # far lines stay in integer range
    inside = (col >= 0.0) & (col < cshape.n_c)
    row *= cshape.n_c
    row += col.astype(np.intp)
    row[~inside] = cshape.ptr.size - 2
    return row


def _sincos(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos theta, sin theta) for angles in [0, pi], each within eps.

    The package's one rule for a line's direction, at a multiply's speed
    where np.cos and np.sin each cost a libm call per angle. theta is its
    nearest table node theta_k = k pi / 1024 plus delta = theta - theta_k,
    which is exact (Sterbenz: theta_k / 2 <= theta <= 2 theta_k, or k = 0),
    and |delta| <= pi / 2048. Angle addition combines the node's cos and sin
    with cos delta - 1 to its delta^4 term and sin delta to its delta^5 term,
    whose truncation errors stay below 2e-19. A result is the node's value,
    within half an ulp, plus a correction below 1.6e-3 that is off by about
    1e-19, rounded once more: within eps of the true value.
    """
    k = theta * (1.0 / _NODE_STEP)
    np.rint(k, out=k)
    node = k.astype(np.intp)
    k *= _NODE_STEP
    delta = np.subtract(theta, k, out=k)
    d2 = delta * delta
    cos_m1 = d2 * (1.0 / 24.0)  # cos delta - 1
    cos_m1 -= 0.5
    cos_m1 *= d2
    sin_d = d2 * (1.0 / 120.0)  # sin delta
    sin_d -= 1.0 / 6.0
    sin_d *= d2
    sin_d *= delta
    sin_d += delta
    cos_k, sin_k = _NODE_COS.take(node), _NODE_SIN.take(node)
    # cos_k + (cos_k (cos delta - 1) - sin_k sin delta), and sin likewise
    cos = cos_k * cos_m1
    cos -= np.multiply(sin_k, sin_d, out=d2)
    cos += cos_k
    sin = np.multiply(sin_k, cos_m1, out=cos_m1)
    sin += np.multiply(cos_k, sin_d, out=sin_d)
    sin += sin_k
    return cos, sin


def _joined(shapes: list[CompiledShape]):
    """zp, zq, ptr and edges of the shapes one after another, and each
    shape's first cell in them, by id: one table the ring scan reads."""
    if len(shapes) == 1:
        s = shapes[0]
        return s.zp, s.zq, s.ptr, s.edges, {id(s): 0}
    n_z = np.cumsum([0] + [s.zp.size for s in shapes])
    n_e = np.cumsum([0] + [s.edges.size for s in shapes])
    n_cell = np.cumsum([0] + [s.ptr.size - 1 for s in shapes])
    zp = np.concatenate([s.zp for s in shapes])
    zq = np.concatenate([s.zq for s in shapes])
    edges = np.concatenate([s.edges + z for s, z in zip(shapes, n_z)])
    ptr = np.concatenate([s.ptr[:-1] + e for s, e in zip(shapes, n_e)] + [n_e[-1:]])
    return zp, zq, ptr, edges, {id(s): int(c) for s, c in zip(shapes, n_cell)}


def _scan(
    parts: list[tuple[CompiledShape, int]], theta: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary crossings of M lines (theta, p).

    parts lists (cshape, n) in line order: the part's n lines cross cshape's
    edges, their p measured from its centre O. Returns each line's number
    of crossings, each crossing's position along its line (direction
    (-sin theta, cos theta), from the foot of O), grouped
    by line in line order and in no particular order within a line, and the
    mask of lines that pass within their shape's tolerance of a vertex.
    """
    m = theta.size
    # z (cos - i sin) is (offset along the normal) + i (position along the line);
    # the imaginary part is 0 - sin, so +0 at theta = 0
    cos, sin = _sincos(theta)
    rot = np.empty(m, dtype=complex)
    rot.real = cos
    np.subtract(0.0, sin, out=rot.imag)
    del cos, sin
    shapes = list({id(cs): cs for cs, _ in parts}.values())
    zp, zq, ptr, edges, first_cell = _joined(shapes)
    # each line's cell in its own shape's table
    ends = np.cumsum([n for _, n in parts])
    cell = [
        _cells(cs, theta[end - n : end], p[end - n : end]) + first_cell[id(cs)]
        for (cs, n), end in zip(parts, ends.tolist())
    ]
    cell = np.concatenate(cell)
    tols = {cs.tol for cs in shapes}
    tol = max(tols)

    start = ptr[cell]
    count = ptr[cell + 1] - start
    del cell
    lines = np.flatnonzero(count)
    count = count[lines]
    pair_end = np.cumsum(count)
    # a line's candidates sit at table positions shift + its pair numbers
    shift = start[lines] - (pair_end - count)
    del start

    ev_t: list[np.ndarray] = []
    ev_end = np.empty(lines.size, dtype=np.intp)  # events up to each line's last
    rejected = np.zeros(m, dtype=bool)
    lo = 0
    while lo < lines.size:
        # as many lines as fit _BLOCK // 8 candidate pairs (at least one)
        done = int(pair_end[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(pair_end, done + _BLOCK // 8, side="right")))
        cnt = count[lo:hi]
        line = np.repeat(lines[lo:hi], cnt)
        edge = np.repeat(shift[lo:hi], cnt)
        edge += np.arange(done, done + edge.size)
        edge = edges[edge].astype(np.intp)
        # each candidate edge's endpoints in the line's frame
        lrot = rot[line]
        lc = p[line]
        v1 = zp[edge]
        v1 *= lrot
        v2 = zq[edge]
        v2 *= lrot
        s1, x1 = v1.real - lc, v1.imag
        s2, x2 = v2.real - lc, v2.imag
        # every vertex starts one edge: testing the starts tests them all
        bad = np.abs(s1) <= tol
        if bad.any():
            bad = np.flatnonzero(bad)
            if len(tols) > 1:
                # the band at the largest tolerance held; now each at its own
                own = np.array([cs.tol for cs, _ in parts])
                bad = bad[np.abs(s1[bad]) <= own[np.searchsorted(ends, line[bad], side="right")]]
            rejected[line[bad]] = True
        k = np.flatnonzero((s1 > 0.0) != (s2 > 0.0))
        # the pairs come grouped by line, and so do the events
        ev_end[lo:hi] = np.searchsorted(k, pair_end[lo:hi] - done)
        ev_end[lo:hi] += ev_end[lo - 1] if lo else 0
        s1 = s1[k]
        x1 = x1[k]
        ev_t.append(x1 + (x2[k] - x1) * (s1 / (s1 - s2[k])))
        lo = hi
    counts = np.zeros(m, dtype=np.intp)
    counts[lines] = np.diff(ev_end, prepend=0)
    # the per-line arrays go before the events are joined
    del rot, lines, count, pair_end, shift, ev_end
    return counts, np.concatenate(ev_t) if ev_t else np.empty(0), rejected


def observe_segments(cshape, theta, p) -> BatchObservations:
    """Observe M lines (theta, p), p measured from cshape.center; the record keeps the lines.

    cshape, theta and p may instead be lists, one item per part: part i's
    lines are observed on cshape[i], and the record holds all parts' lines
    in order, each as its part's own call gives it.
    """
    if isinstance(cshape, CompiledShape):
        parts = [(cshape, theta.size)]
    else:
        parts = [(cs, t.size) for cs, t in zip(cshape, theta)]
        theta, p = (x[0] if len(x) == 1 else np.concatenate(x) for x in (theta, p))
    return _reduce(*_scan(parts, theta, p), theta, p)


def _reduce(counts, t_all, rejected, theta, p) -> BatchObservations:
    """Record of the lines (theta, p), line i with counts[i] events, at t_all
    line by line; odd counts are rejected."""
    m = rejected.size
    rejected |= (counts & 1).astype(bool)
    if rejected.any():
        t_all = t_all[np.repeat(~rejected, counts)]
        counts[rejected] = 0
    L1, L3, cube, chords = np.zeros(m), np.zeros(m), np.zeros(m), np.empty(t_all.size // 2)
    # The hit lines, most events first (a stable radix sort on a small key).
    hit = np.flatnonzero(counts)
    n_ev = counts[hit]
    most = int(n_ev.max(initial=0))
    order = np.argsort((most - n_ev).astype(np.min_scalar_type(most)), kind="stable")
    first = (np.cumsum(n_ev) - n_ev)[order]  # each line's first event in t_all
    hit, n_ev = hit[order], n_ev[order]
    # The one-chord lines, last in that order, are their two events apart.
    lone = hit.size - int(np.count_nonzero(n_ev == 2))
    f = first[lone:]
    ch = np.abs(t_all[f + 1] - t_all[f])
    chords[f // 2] = L1[hit[lone:]] = ch
    L3[hit[lone:]] = cube[hit[lone:]] = ch * ch * ch
    # The others a sub-block at a time: as many lines as fit _BLOCK events at
    # the sub-block's longest line (at least one), so the temporaries do not
    # grow with m.
    lo = 0
    while lo < lone:
        hi = min(lone, lo + max(1, _BLOCK // int(n_ev[lo])))
        sub = hit[lo:hi]
        L1[sub], cube[sub], L3[sub] = _line_sums(t_all, first[lo:hi], n_ev[lo:hi], chords)
        lo = hi
    return BatchObservations(counts // 2, L1, L3, cube, chords, rejected, theta, p)


def _line_sums(t: np.ndarray, first: np.ndarray, n_ev: np.ndarray, chords: np.ndarray):
    """(L1, chord cube sum, L3) of lines whose events are t[first:first + n_ev],
    n_ev non-increasing; each line's chords go to chords[first // 2:]."""
    # Row i of ev holds every line's i-th event, and past a line's count some
    # other (finite) event, whose chords are zeroed. Each run of lines with one
    # count c sorts its c rows: long runs of 4 or 6 by a sorting network.
    n_chords = int(n_ev[0]) // 2
    ev = t.take(first + np.arange(2 * n_chords)[:, None], mode="clip")
    ends = [*(np.flatnonzero(n_ev[1:] != n_ev[:-1]) + 1).tolist(), n_ev.size]
    starts = [0, *ends[:-1]]
    for a, b, c in zip(starts, ends, n_ev[starts].tolist()):
        net = _NETWORKS.get(c, ())
        if b - a < _EXCHANGE_LINES * len(net) or not net:
            ev[:c, a:b].sort(axis=0)
            continue
        low = np.empty(b - a)
        for i, j in net:
            np.minimum(ev[i, a:b], ev[j, a:b], out=low)
            np.maximum(ev[i, a:b], ev[j, a:b], out=ev[j, a:b])
            ev[i, a:b] = low
    ch = ev[1::2] - ev[0::2]
    np.abs(ch[0], out=ch[0])
    chord_j = np.arange(n_chords)[:, None]
    real = chord_j < n_ev // 2
    chords[(first // 2 + chord_j)[real]] = ch[real]
    ch *= real
    # Sorted events alternate in/out, so each step along a line is one vector
    # op across lines. S_3 = sum_i c_i^3 + 6 sum_{i<j} c_i c_j (m_j - m_i),
    # with chord lengths c and midpoints m: the signed pair terms of chords i
    # and j collapse to 6 c_i c_j (m_j - m_i). Running sums over j of the
    # chord length so far and of (chord length so far) x (midpoint step) give
    # it in O(k); every term is non-negative, so nothing cancels, and a
    # zeroed chord adds exact zeros. The chord and cube sums run in chord
    # order too: numpy would sum a lone line's column pairwise, and its
    # result would then depend on the lines that share its sub-block.
    ch3 = ch * ch * ch
    mid_step = 0.5 * (ch[:-1] + ch[1:]) + (ev[2::2] - ev[1:-1:2])
    so_far = ch[0].copy()
    cube_sum = ch3[0].copy()
    weighted_gap = np.zeros(n_ev.size)
    pair_terms = np.zeros(n_ev.size)
    for j in range(1, n_chords):
        weighted_gap += so_far * mid_step[j - 1]
        pair_terms += ch[j] * weighted_gap
        so_far += ch[j]
        cube_sum += ch3[j]
    return so_far, cube_sum, cube_sum + 6.0 * pair_terms

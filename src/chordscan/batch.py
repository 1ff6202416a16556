"""Vectorized many-lines-at-once observation kernel and its per-line record.

_scan finds every boundary crossing of arrays of segments: the one ring scan
in the package, which chords.crossings also runs on a single line. A line
passing within tolerance of any vertex is rejected outright; random lines hit
this with probability ~0, and rejections are counted. observe_segments reduces
the crossings to a BatchObservations: the one record of a block of lines,
from the kernel through the line stream to the accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import Shape

# Relative half-width of the "on the line" band for vertex classification.
ONLINE_TOL = 1e-12
_PAD = 1e-9  # prefilter slack so tolerance-band vertices are never missed
# Lines x vertices per ring-scan block: the block's temporaries stay in cache.
_SCAN_BLOCK = 1 << 17


class CompiledShape:
    """Shape flattened to per-ring arrays plus per-ring bounding circles.

    Each ring's vertices are kept relative to the ring's centre and transposed
    to (2, V): projecting them on K line normals is then one (K, 2) @ (2, V)
    product, and the differences stay small for shapes far from the origin.
    """

    __slots__ = ("shape", "rel", "centers", "radii", "tol")

    def __init__(self, shape: Shape):
        self.shape = shape
        self.rel = []
        centers = []
        radii = []
        for r in shape.rings:
            c = r.coords
            mid = 0.5 * (c.min(axis=0) + c.max(axis=0))
            rel = c - mid
            self.rel.append(np.ascontiguousarray(rel.T))
            centers.append(mid)
            radii.append(float(np.max(np.hypot(rel[:, 0], rel[:, 1]))))
        self.centers = np.array(centers)
        self.radii = np.array(radii)
        self.tol = ONLINE_TOL * shape.coordinate_scale()


@dataclass
class BatchObservations:
    """Per-line observation arrays; rejected lines carry zeroed statistics."""

    k: np.ndarray  # chords per line
    L1: np.ndarray  # == per-line chord sum
    L3: np.ndarray
    chord_cube_sum: np.ndarray
    chords_flat: np.ndarray  # all chord lengths, line by line (k[i] for line i)
    rejected: np.ndarray  # bool mask
    theta: np.ndarray | None = None  # line parameters, only for the dump
    p: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.k)

    def _per_line(self) -> dict[str, np.ndarray]:
        names = ("k", "L1", "L3", "chord_cube_sum", "rejected", "theta", "p")
        return {f: getattr(self, f) for f in names if getattr(self, f) is not None}

    def accepted(self) -> "BatchObservations":
        """The record without its rejected lines."""
        if not self.rejected.any():
            return self
        keep = ~self.rejected
        return replace(
            self,
            chords_flat=self.chords_flat[np.repeat(keep, self.k)],
            **{f: col[keep] for f, col in self._per_line().items()},
        )

    def lines(self, lo: int, hi: int) -> "BatchObservations":
        """The record of lines lo to hi - 1."""
        first, last = (int(self.k[:i].sum()) for i in (lo, hi))
        return replace(
            self,
            chords_flat=self.chords_flat[first:last],
            **{f: col[lo:hi] for f, col in self._per_line().items()},
        )

    @staticmethod
    def concatenate(parts: list["BatchObservations"]) -> "BatchObservations":
        """One record of the parts' lines, in order."""
        if len(parts) == 1:
            return parts[0]
        cols = [part._per_line() for part in parts]
        return replace(
            parts[0],
            chords_flat=np.concatenate([part.chords_flat for part in parts]),
            **{f: np.concatenate([c[f] for c in cols]) for f in cols[0]},
        )


def _scan(
    cshape: CompiledShape, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary crossings of M segments given as (M, 2) endpoint arrays.

    Returns each crossing's line index and arclength position along its
    segment, in no particular order, and the mask of lines that pass within
    tolerance of a vertex.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[0]
    d = b - a
    length = np.hypot(d[:, 0], d[:, 1])
    active = length > 0.0
    u = d / np.where(active, length, 1.0)[:, None]
    ux, uy = u[:, 0], u[:, 1]
    nrm = np.column_stack([-uy, ux])
    tol = cshape.tol

    ev_line: list[np.ndarray] = []
    ev_t: list[np.ndarray] = []
    rejected = np.zeros(m, dtype=bool)

    for rel, center, rad in zip(cshape.rel, cshape.centers, cshape.radii):
        dcx = center[0] - a[:, 0]
        dcy = center[1] - a[:, 1]
        s_c = dcx * nrm[:, 0] + dcy * nrm[:, 1]
        xi_c = dcx * ux + dcy * uy
        reach = rad + _PAD
        keep = active & (np.abs(s_c) <= reach) & (xi_c >= -reach) & (xi_c <= length + reach)
        idx = np.flatnonzero(keep)
        n_vert = rel.shape[1]
        rows_per_block = max(1, _SCAN_BLOCK // n_vert)
        for lo in range(0, idx.size, rows_per_block):
            blk = idx[lo : lo + rows_per_block]
            # signed distance of every vertex from each line of the block. A
            # lone line would take numpy's matrix-vector product, which rounds
            # differently; scanned twice, each line's result is the same
            # whatever lines share its block.
            pair = blk if blk.size > 1 else np.repeat(blk, 2)
            s = (nrm[pair] @ rel)[: blk.size]
            s += s_c[blk, None]
            above = s > 0.0
            cross = above != np.roll(above, -1, axis=1)
            rows, cols = np.divmod(np.flatnonzero(cross), n_vert)
            s1 = s[rows, cols]
            cols2 = (cols + 1) % n_vert
            s2 = s[rows, cols2]
            # s is not read again, so |s| may overwrite it
            bad = (np.abs(s, out=s) <= tol).any(axis=1)
            if bad.any():
                rejected[blk[bad]] = True
            if rows.size == 0:
                continue
            lines = blk[rows]
            lux = ux[lines]
            luy = uy[lines]
            x1 = rel[0, cols] * lux + rel[1, cols] * luy
            x2 = rel[0, cols2] * lux + rel[1, cols2] * luy
            t = xi_c[lines] + (x1 + (x2 - x1) * (s1 / (s1 - s2)))
            inside = (t >= 0.0) & (t <= length[lines])
            ev_line.append(lines[inside])
            ev_t.append(t[inside])

    if ev_line:
        lines_all = np.concatenate(ev_line)
        t_all = np.concatenate(ev_t)
    else:
        lines_all = np.empty(0, dtype=int)
        t_all = np.empty(0)
    return lines_all, t_all, rejected


def observe_segments(cshape: CompiledShape, a: np.ndarray, b: np.ndarray) -> BatchObservations:
    """Observe M segments given as (M, 2) endpoint arrays, endpoints outside."""
    lines_all, t_all, rejected = _scan(cshape, a, b)
    m = rejected.size
    counts = np.bincount(lines_all, minlength=m)
    rejected |= counts % 2 == 1
    if rejected.any():
        valid_ev = ~rejected[lines_all]
        lines_all = lines_all[valid_ev]
        t_all = t_all[valid_ev]
        counts[rejected] = 0

    k = np.zeros(m, dtype=np.int64)
    L1 = np.zeros(m)
    L3 = np.zeros(m)
    cube = np.zeros(m)
    hit = np.flatnonzero(counts)
    if hit.size == 0:
        return BatchObservations(k, L1, L3, cube, np.empty(0), rejected)

    # One row per hit line, its events in any order, padded with the largest
    # event position so that padded chords and gaps come out exactly zero.
    hit_counts = counts[hit]
    cmax = int(hit_counts.max())
    order = np.argsort(lines_all, kind="stable")
    row_start = np.cumsum(hit_counts) - hit_counts
    flat = np.arange(t_all.size) + np.repeat(np.arange(hit.size) * cmax - row_start, hit_counts)
    grid = np.full((hit.size, cmax), t_all.max())
    grid.ravel()[flat] = t_all[order]
    grid.sort(axis=1)

    # Sorted events alternate in/out. Transposed, row j holds every line's
    # j-th event, so each step along a line is one vector op across lines.
    ev = np.ascontiguousarray(grid.T)
    ch = ev[1::2] - ev[0::2]
    ch3 = ch * ch * ch
    k_hit = hit_counts // 2
    k[hit] = k_hit
    # S_3 = sum_i c_i^3 + 6 sum_{i<j} c_i c_j (m_j - m_i), with chord lengths
    # c and midpoints m: the signed pair terms of chords i and j collapse to
    # 6 c_i c_j (m_j - m_i). Running sums over j of the chord length so far
    # and of (chord length so far) x (midpoint step) give it in O(k); every
    # term is non-negative, so nothing cancels. The chord and cube sums run
    # in chord order too: numpy would sum a lone hit line's column pairwise,
    # and its result would then depend on the lines that share its block.
    mid_step = 0.5 * (ch[:-1] + ch[1:]) + (ev[2::2] - ev[1:-1:2])
    so_far = ch[0].copy()
    cube_sum = ch3[0].copy()
    weighted_gap = np.zeros(hit.size)
    pair_terms = np.zeros(hit.size)
    for j in range(1, cmax // 2):
        weighted_gap += so_far * mid_step[j - 1]
        pair_terms += ch[j] * weighted_gap
        so_far += ch[j]
        cube_sum += ch3[j]
    L1[hit] = so_far
    cube[hit] = cube_sum
    L3[hit] = cube_sum + 6.0 * pair_terms

    ch_valid = np.arange(cmax // 2) < k_hit[:, None]
    return BatchObservations(k, L1, L3, cube, ch.T[ch_valid], rejected)


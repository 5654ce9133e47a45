"""Loss terms for mesh fitting and the surface/overlap evaluation metrics.

The fit losses take pooled coordinates ``x`` of shape ``(T, V, 3)`` (every
frame's vertices in canonical structure order, as :func:`mesh.vectorize`
lays them out) and the :class:`mesh.Topology` all frames share; structure
``s`` is the row slice ``topology.rows[s]``.  Each returns ``(value, grad)``
with ``grad`` one ``(T, V, 3)`` array of dLoss/d(vertex).  The regularisers
make one pass per frame over every structure through the topology's pooled
connectivity, with per-structure sums over contiguous blocks.  Values are in mm
(Dice and correlations dimensionless).  Gradients are exact except at the
measure-zero kinks of norms and nearest-neighbour ties, where a fixed
subgradient is used.  A :class:`LabelledPoints` keeps its last matching
between calls and re-queries only the rows a triangle-inequality certificate
does not cover, so the results are those of fresh queries; as it updates
that state, it must not be shared between threads.

:func:`total_loss` weighs the regularisers by four constants: ``LAMBDA_EDGE``
(edge-length spread), ``LAMBDA_CURV`` (curvature correlation), ``LAMBDA_TEMP``
(frame-to-frame displacement) and ``LAMBDA_CYCLE`` (last-to-first frame
displacement).
"""

import numpy as np
from scipy.spatial import cKDTree

from .mesh import STRUCTURES, _cross, _scatter_rows, accumulated_normals


LAMBDA_EDGE = 0.5
LAMBDA_CURV = 1.0
LAMBDA_TEMP = 0.1
LAMBDA_CYCLE = 0.2


def _blocked(coords, labels, spacing):
    """Copy of ``coords`` with label k's rows moved by ``k * spacing`` along x."""
    out = coords.copy()
    out[:, 0] += spacing * labels
    return out


def _block_spacing(r):
    """Power of two at least ``12 r + 2`` for coordinates within ``r`` of a
    centre: same-block pairs are at most ``2 sqrt(3) r`` apart, pairs from
    different blocks at least ``spacing - 2 r``, until ``r`` passes
    ``(spacing - 1) / 6``."""
    return 2.0 ** np.ceil(np.log2(12.0 * r + 2.0))


class LabelledPoints:
    """Points carrying small non-negative int labels, and the matching of
    vertices against them (the symmetric nearest-neighbour distance of Besl
    & McKay 1992) for subject fitting.

    Each label's rows are moved along x into their own block, so one KD-tree
    over all the points serves every label and no match crosses blocks.  The
    tree is built on first use and kept while its block spacing still
    separates the blocks around the vertices it is given.

    Between calls it keeps each row's nearest neighbour (``vp``, ``pv``), a
    slack per row and the blocked vertices of the previous call (``last``),
    and asks the trees only for rows whose neighbour may have changed
    (Greenspan & Godin 2001).  A slack starts as the second-nearest distance
    and falls by every later step: a vertex row's by its own step, a point
    row's by the largest.  By the triangle inequality no other candidate is
    then nearer than the slack, so a row whose distance to its neighbour plus
    ``1e-11 * spacing`` is below its slack keeps what a fresh query returns.
    A fresh state (first call, tree rebuild, new vertex count) certifies no
    row, so every call runs the same lines; a relabelled vertex is a step of
    a block spacing.  Results are those of fresh queries, bit for bit.  Not
    to be shared between threads.
    """

    def __init__(self, points, labels):
        self.points = points
        self.labels = labels
        # column by column: an axis-0 reduction of (n, 3) rows is ~10x slower
        lo = np.array([c.min() for c in points.T])
        hi = np.array([c.max() for c in points.T])
        self.center = 0.5 * (lo + hi)
        self.radius = 0.5 * float((hi - lo).max())
        self.counts = np.bincount(labels)
        self.spacing = 0.0
        self.tree = None
        self.last = None

    def match(self, verts, vert_labels):
        """Value and vertex gradient of the matching distance.

        The value is, summed over labels, the mean vertex-to-point distance
        plus the mean point-to-vertex distance; the vertices must carry the
        points' set of labels.  Distances come from the unshifted
        coordinates.  Returns ``(value, grad)``, ``grad`` shaped like
        ``verts``.
        """
        # every coordinate lies in the cube of half-width r around the points' centre
        r = max(self.radius, float(np.abs(verts - self.center).max()))
        if self.spacing < 6.0 * r + 1.0:
            self.spacing = _block_spacing(r)
            self.tree = cKDTree(_blocked(self.points, self.labels, self.spacing))
            self.last = None
        blocked = _blocked(verts, vert_labels, self.spacing)
        points = self.tree.data  # the blocked points
        margin = 1e-11 * self.spacing
        last, self.last = self.last, None  # a call that raises keeps no state
        if last is None or len(last) != len(verts):  # a fresh state
            last = blocked
            self.vp, self.vp_slack = np.zeros(len(verts), np.int32), np.full(len(verts), -np.inf)
            self.pv, self.pv_slack = np.zeros(len(points), np.int32), np.full(len(points), -np.inf)
        step = _lengths(blocked - last)
        self.vp_slack -= step
        self.pv_slack -= step.max()
        stale = _uncertified(blocked - points[self.vp], self.vp_slack, margin)
        if len(stale):
            self.vp[stale], self.vp_slack[stale] = _nearest(self.tree, blocked[stale], margin)
        stale = _uncertified(blocked[self.pv] - points, self.pv_slack, margin)
        if len(stale):
            tree = cKDTree(blocked)  # only when some point row needs it
            self.pv[stale], self.pv_slack[stale] = _nearest(tree, points[stale], margin)
        self.last = blocked
        diff_vp = verts - self.points[self.vp]
        d_vp = _lengths(diff_vp)
        diff_pv = verts[self.pv] - self.points
        d_pv = _lengths(diff_pv)
        # each distance counts 1 / (size of its label on its side)
        n_v = np.bincount(vert_labels)[vert_labels]
        n_p = self.counts[self.labels]
        # einsum, not BLAS: a threaded ddot's sum depends on the thread count
        value = float(np.einsum("i,i->", d_vp, 1.0 / n_v) + np.einsum("i,i->", d_pv, 1.0 / n_p))
        grad = _safe_unit(diff_vp, d_vp * n_v)
        grad += _scatter_rows(self.pv, [_safe_unit(diff_pv, d_pv * n_p)], len(verts))
        return value, grad


def _lengths(diff):
    """Row norms, by einsum: about 3x faster than np.linalg.norm."""
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _nearest(tree, queries, margin):
    """Each query's nearest neighbour (int32) as a one-nearest query returns
    it, and its second-nearest distance.  At a tie a two-nearest query may
    order the neighbours otherwise, so rows tied within ``margin`` ask again."""
    dist, idx = tree.query(queries, k=2)
    near = idx[:, 0].astype(np.int32)
    tied = np.flatnonzero(dist[:, 1] <= dist[:, 0] + margin)
    if len(tied):
        near[tied] = tree.query(queries[tied])[1]
    return near, dist[:, 1].copy()  # not a view holding the first column


def _uncertified(diff, slack, margin):
    """Rows whose kept neighbour, ``diff`` away, the slack does not certify."""
    return np.flatnonzero(~(_lengths(diff) + margin < slack))


class TargetClouds:
    """Per-frame, per-structure target point sets to fit meshes against.

    Each frame's points are stored once, pooled in the order given, as the
    :class:`LabelledPoints` ``pooled[t]`` labelled by structure index;
    ``frames[t][s]`` and ``points(t, s)`` are views of that pool.
    """

    def __init__(self, frames):
        if len(frames) < 1:
            raise ValueError("TargetClouds needs at least one frame")
        self.frames = []
        self.pooled = []
        for t, fr in enumerate(frames):
            if not fr or set(fr) != set(frames[0]):
                raise ValueError(f"target frame {t}: no structures, or not frame 0's")
            arrays = []
            for s, pts in fr.items():
                if s not in STRUCTURES:
                    raise ValueError(f"unknown structure {s!r} in target frame {t}")
                pts = np.asarray(pts, dtype=np.float64)
                if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0 or not np.isfinite(pts).all():
                    raise ValueError(
                        f"target set for structure {s}, frame {t} must be a "
                        "non-empty, finite (n, 3) array"
                    )
                arrays.append(pts)
            sizes = [len(a) for a in arrays]
            pooled = np.concatenate(arrays)
            ids = np.array([STRUCTURES.index(s) for s in fr], dtype=np.int8)
            self.frames.append(dict(zip(fr, np.split(pooled, np.cumsum(sizes)[:-1]))))
            self.pooled.append(LabelledPoints(pooled, np.repeat(ids, sizes)))

    @property
    def n_frames(self):
        return len(self.frames)

    def frame(self, t):
        """Frame ``t`` alone, sharing its pool (and so its KD-tree) with ``self``."""
        one = object.__new__(TargetClouds)
        one.frames, one.pooled = [self.frames[t]], [self.pooled[t]]
        return one

    def structures(self):
        return tuple(self.frames[0].keys())

    def points(self, t, s):
        return self.frames[t][s]

    @classmethod
    def from_sequence(cls, seq):
        """Sample targets exactly at mesh vertices (self-targets)."""
        return cls([{s: fr[s].vertices for s in STRUCTURES} for fr in seq.frames])


def _safe_unit(diff, dist):
    """Rows of diff scaled by 1/dist; zero rows where dist == 0 (subgradient)."""
    return np.divide(diff, dist[..., None], out=np.zeros_like(diff), where=dist[..., None] > 0)


def recon_loss(x, topology, targets):
    """Symmetric mean nearest-neighbour distance between meshes and targets.

    The targets must cover every structure.  Per frame and structure both
    directions are averaged over their own point count, summed over the
    structures, and the frame sum is divided by the frame count.  The vertex
    gradient collects unit vectors from both directions.
    """
    T = len(x)
    if targets.n_frames != T:
        raise ValueError(f"targets have {targets.n_frames} frames, coordinates have {T}")
    missing = [s for s in STRUCTURES if s not in targets.structures()]
    if missing:
        raise ValueError(f"targets lack {', '.join(missing)}: recon_loss needs all five structures")
    grad = np.empty_like(x)
    total = 0.0
    for t in range(T):
        value, g = targets.pooled[t].match(x[t], topology.labels)
        total += value
        grad[t] = g / T
    return total / T, grad


def edge_loss(x, topology):
    """Standard deviation of edge length, averaged over frames, summed over
    structures."""
    T, V = x.shape[:2]
    vi, vj = topology.pooled_edges.T.copy()
    starts = np.searchsorted(topology.labels[vi], np.arange(len(STRUCTURES)))  # edge blocks
    n = np.diff(starts, append=len(vi))
    grad = np.empty_like(x)
    diff = np.empty((len(vi), 3))  # one buffer for every frame
    total = 0.0
    for t in range(T):
        np.take(x[t], vi, axis=0, out=diff)
        diff -= np.take(x[t], vj, axis=0)
        lengths = _lengths(diff)
        dev = lengths - np.repeat(np.add.reduceat(lengths, starts) / n, n)
        std = np.sqrt(np.add.reduceat(dev * dev, starts) / n)
        total += std.sum()
        # d std/d e_k = (e_k - mean)/(|E| std); mean term cancels.
        inv = np.divide(1.0, n * std * T, out=np.zeros_like(std), where=std > 0)
        coef = dev * np.repeat(inv, n)
        diff *= np.divide(coef, lengths, out=np.zeros_like(coef), where=lengths > 0)[:, None]
        grad[t] = _scatter_rows(vi, [diff], V)
        grad[t] -= _scatter_rows(vj, [diff], V)
    return total / T, grad


def _pearson_and_grad(h, h0, starts):
    """Per block of rows from ``starts``: Pearson r(h, h0) and dr/dh (h0 fixed)."""
    n = np.diff(starts, append=len(h))
    hc = h - np.repeat(np.add.reduceat(h, starts) / n, n)
    h0c = h0 - np.repeat(np.add.reduceat(h0, starts) / n, n)
    nh = np.sqrt(np.add.reduceat(hc * hc, starts))
    nh0 = np.sqrt(np.add.reduceat(h0c * h0c, starts))
    if (nh == 0).any() or (nh0 == 0).any():
        raise ValueError("zero-variance curvature field: correlation undefined")
    r = np.add.reduceat(hc * h0c, starts) / (nh * nh0)
    # Identical fields correlate at exactly 1 (avoids one-ulp noise).
    same = np.logical_and.reduceat(h == h0, starts)
    r[same] = 1.0
    # Both hc and h0c are zero-mean, so the centering projector is a no-op.
    dr_dh = (h0c - np.repeat(r * (nh0 / nh), n) * hc) / np.repeat(nh * nh0, n)
    dr_dh[np.repeat(same, n)] = 0.0
    return r, dr_dh


def _curvature_frame(verts, topology, lap_t, h0, scale):
    """One frame's per-structure curvature correlations r, and ``scale`` times
    the vertex gradient of sum(1 - r); the frame's temporaries go with the call."""
    lap, corners = topology.laplacian, topology.corners
    m, mnorm = accumulated_normals(verts, corners.T)
    n = m / mnorm[:, None]
    lv = lap @ verts
    h = -0.5 * np.einsum("ij,ij->i", lv, n)
    r, dr_dh = _pearson_and_grad(h, h0, topology.starts)
    g_h = -scale * dr_dh
    # Path through the Laplacian term (normals held fixed).
    g_v = -0.5 * (lap_t @ (g_h[:, None] * n))
    # Path through the normals: a face's (v1 - v0) x (v2 - v0) moves its
    # corner k by (v[k+1] - v[k-1]) x r_f, one corner at a time.
    q = -0.5 * g_h[:, None] * lv
    g_m = (q - (np.einsum("ij,ij->i", q, n))[:, None] * n) / mnorm[:, None]
    r_f = np.take(g_m, corners, axis=0).sum(axis=0)
    del m, n, lv, q, g_m  # not held through the face passes
    for k in range(3):
        d = np.take(verts, corners[k - 2], axis=0)
        d -= np.take(verts, corners[k - 1], axis=0)
        g_v += _scatter_rows(corners[k], [_cross(d, r_f)], len(verts))
    return r, g_v


def curvature_loss(x, topology, template_curvatures):
    """One minus the curvature correlation against the template, per frame and
    structure, averaged over frames.

    The gradient is exact: it differentiates both the Laplacian coordinate
    term and the vertex normals.
    """
    T = len(x)
    lap_t = topology.laplacian.T  # a view: the transpose is never stored
    h0 = np.concatenate([np.asarray(template_curvatures[s], dtype=np.float64) for s in STRUCTURES])
    grad = np.empty_like(x)
    total = 0.0
    for t in range(T):
        r, grad[t] = _curvature_frame(x[t], topology, lap_t, h0, 1.0 / T)
        total += (1.0 - r).sum()
    return total / T, grad


def temporal_loss(x, topology):
    """Mean vertex displacement between consecutive frames, summed over
    structures.  Zero (with zero gradient) for single-frame sequences."""
    T = len(x)
    # each structure's displacements average over its own vertex count
    n = (T - 1) * np.bincount(topology.labels)[topology.labels]
    grad = np.zeros_like(x)
    total = 0.0
    for t in range(T - 1):
        diff = x[t + 1] - x[t]
        dist = _lengths(diff)
        total += float((dist / n).sum())
        unit = _safe_unit(diff, dist * n)
        grad[t + 1] += unit
        grad[t] -= unit
    return total, grad


def cycle_loss(x, topology):
    """Mean per-vertex distance between the last and first frames, summed over
    structures.  Zero (with zero gradient) for single-frame sequences."""
    grad = np.zeros_like(x)
    if len(x) < 2:
        return 0.0, grad
    n = np.bincount(topology.labels)[topology.labels]
    diff = x[-1] - x[0]
    dist = np.linalg.norm(diff, axis=1)
    unit = _safe_unit(diff, dist * n)
    grad[-1] += unit
    grad[0] -= unit
    return float((dist / n).sum()), grad


def total_loss(x, topology, targets, template_curvatures):
    """Recon plus the regularisers weighted by the ``LAMBDA_*`` constants.

    Returns ``(value, grad, terms)`` where ``terms`` maps each term name to
    its unweighted value.  For single-frame sequences the temporal and cycle
    terms are zero.
    """
    total, grad = recon_loss(x, topology, targets)
    terms = {"recon": total}
    regularisers = [
        ("edge", LAMBDA_EDGE, edge_loss, ()),
        ("curv", LAMBDA_CURV, curvature_loss, (template_curvatures,)),
        ("temp", LAMBDA_TEMP, temporal_loss, ()),
        ("cycle", LAMBDA_CYCLE, cycle_loss, ()),
    ]
    for name, weight, fn, args in regularisers:
        value, g = fn(x, topology, *args)
        terms[name] = value
        total += weight * value
        g *= weight
        grad += g
        del g  # not held while the next term runs
    return total, grad, terms


def surface_distances(a, b):
    """ASSD, uni-directional ASSD (a to b) and HD90 between two point sets.

    ASSD is the mean of the pooled bidirectional nearest-neighbour distances;
    HD90 is their 90th percentile (linear interpolation).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("surface_distances requires non-empty point sets")
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    pooled = np.concatenate([d_ab, d_ba])
    return {
        "assd": float(pooled.mean()),
        "uni_assd_a_to_b": float(d_ab.mean()),
        "hd90": float(np.percentile(pooled, 90)),
    }


def dice(vol_a, vol_b, label):
    """Dice overlap of one label between two volumes; 1.0 when both empty."""
    vol_a = np.asarray(vol_a)
    vol_b = np.asarray(vol_b)
    if vol_a.shape != vol_b.shape:
        raise ValueError(
            f"volume shapes differ: {vol_a.shape} vs {vol_b.shape}"
        )
    ma = vol_a == label
    mb = vol_b == label
    denom = int(ma.sum()) + int(mb.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((ma & mb).sum()) / denom


def pearson_r(x, y):
    """Pearson correlation coefficient of two equal-length samples."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson_r needs two equal-length 1-D arrays, n >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    nx = np.linalg.norm(xc)
    ny = np.linalg.norm(yc)
    if nx == 0 or ny == 0:
        raise ValueError("pearson_r undefined for zero-variance input")
    if np.array_equal(x, y):
        return 1.0
    if np.array_equal(x, -y):
        return -1.0
    return float(np.clip(xc @ yc / (nx * ny), -1.0, 1.0))

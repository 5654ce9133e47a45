"""Loss terms for mesh fitting and the surface/overlap evaluation metrics.

Every loss returns ``(value, grads)`` where ``grads`` maps structure name to
a ``(T, n_c, 3)`` array of dLoss/d(vertex).  Values are in mm (Dice and
correlations dimensionless).  Gradients are exact except at the measure-zero
kinks of norms and nearest-neighbour ties, where a fixed subgradient is used.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .mesh import STRUCTURES, face_cross_products, graph_laplacian


@dataclass
class LossWeights:
    """Weights of the regularisation terms in the total objective."""

    lambda_edge: float = 0.5
    lambda_curv: float = 1.0
    lambda_temp: float = 0.1
    lambda_cycle: float = 0.2

    def __post_init__(self):
        for name in ("lambda_edge", "lambda_curv", "lambda_temp", "lambda_cycle"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and >= 0")


class TargetClouds:
    """Per-frame, per-structure target point sets to fit meshes against."""

    def __init__(self, frames):
        if len(frames) < 1:
            raise ValueError("TargetClouds needs at least one frame")
        self.frames = []
        for t, fr in enumerate(frames):
            clean = {}
            for s, pts in fr.items():
                pts = np.asarray(pts, dtype=np.float64)
                if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
                    raise ValueError(
                        f"target set for structure {s}, frame {t} must be a "
                        "non-empty (n, 3) array"
                    )
                clean[s] = pts
            self.frames.append(clean)
        self._trees = {}

    @property
    def n_frames(self):
        return len(self.frames)

    def structures(self):
        return tuple(self.frames[0].keys())

    def points(self, t, s):
        return self.frames[t][s]

    def tree(self, t, s):
        key = (t, s)
        if key not in self._trees:
            self._trees[key] = cKDTree(self.frames[t][s])
        return self._trees[key]

    @classmethod
    def from_sequence(cls, seq, structures=STRUCTURES):
        """Sample targets exactly at mesh vertices (self-targets)."""
        return cls(
            [{s: fr[s].vertices.copy() for s in structures} for fr in seq.frames]
        )


def _zero_grads(seq):
    """Zero vertex gradients, ``{structure: (T, n_c, 3)}``.

    The loss terms read coordinates frame by frame (or one structure at a
    time) instead of through ``seq.stacked()``, so no term holds a second
    copy of the whole sequence next to its gradients.
    """
    return {
        s: np.zeros((seq.n_frames,) + seq.frames[0][s].vertices.shape)
        for s in STRUCTURES
    }


def _safe_unit(diff, dist):
    """Rows of diff scaled by 1/dist; zero rows where dist == 0 (subgradient)."""
    out = np.zeros_like(diff)
    nz = dist > 0
    out[nz] = diff[nz] / dist[nz, None]
    return out


def _scatter_rows(index, rows, n):
    """(n, 3) sums of ``rows`` grouped by vertex ``index`` (one bincount per axis)."""
    return np.stack(
        [np.bincount(index, weights=rows[:, k], minlength=n) for k in range(3)], axis=1
    )


def recon_loss(seq, targets):
    """Symmetric mean nearest-neighbour distance between meshes and targets.

    Per frame and structure both directions are averaged over their own point
    count, summed over structures, and the frame sum is divided by the frame
    count.  The vertex gradient collects unit vectors from both directions.
    """
    wanted = [s for s in STRUCTURES if s in targets.structures()]
    if set(targets.structures()) - set(STRUCTURES):
        raise ValueError("targets contain unknown structures")
    if targets.n_frames != seq.n_frames:
        raise ValueError(
            f"targets have {targets.n_frames} frames, sequence has {seq.n_frames}"
        )
    T = seq.n_frames
    grads = _zero_grads(seq)
    total = 0.0
    for t in range(T):
        for s in wanted:
            verts = seq.frames[t][s].vertices
            pts = targets.points(t, s)
            tree_p = targets.tree(t, s)
            d_vp, idx_vp = tree_p.query(verts)
            tree_v = cKDTree(verts)
            d_pv, idx_pv = tree_v.query(pts)
            total += d_vp.mean() + d_pv.mean()
            g = grads[s][t]
            g += _safe_unit(verts - pts[idx_vp], d_vp) / (len(verts) * T)
            back = _safe_unit(verts[idx_pv] - pts, d_pv) / (len(pts) * T)
            g += _scatter_rows(idx_pv, back, len(verts))
    return total / T, grads


def edge_loss(seq):
    """Standard deviation of edge length, averaged over frames, summed over
    structures."""
    T = seq.n_frames
    grads = _zero_grads(seq)
    total = 0.0
    for s in STRUCTURES:
        e = seq.frames[0][s].edges()
        vi, vj = e[:, 0], e[:, 1]
        ends = np.concatenate([vi, vj])
        for t in range(T):
            verts = seq.frames[t][s].vertices
            diff = verts[vi] - verts[vj]
            lengths = np.linalg.norm(diff, axis=1)
            mean = lengths.mean()
            std = np.sqrt(np.mean((lengths - mean) ** 2))
            total += std
            if std > 0:
                # d std/d e_k = (e_k - mean)/(|E| std); mean term cancels.
                coef = (lengths - mean) / (len(lengths) * std * T)
                pull = coef[:, None] * _safe_unit(diff, lengths)
                grads[s][t] += _scatter_rows(
                    ends, np.concatenate([pull, -pull]), len(verts)
                )
    return total / T, grads


def _raw_normals(verts, faces):
    """Accumulated face cross products per vertex and their norms."""
    cr = face_cross_products(verts, faces)
    m = np.zeros_like(verts)
    for k in range(3):
        np.add.at(m, faces[:, k], cr)
    norm = np.linalg.norm(m, axis=1)
    if np.any(norm < 1e-300):
        raise ValueError("zero-area vertex star while computing normals")
    return m, norm


def _pearson_and_grad(h, h0):
    """Pearson r(h, h0) and dr/dh (h0 fixed)."""
    hc = h - h.mean()
    h0c = h0 - h0.mean()
    nh = np.linalg.norm(hc)
    nh0 = np.linalg.norm(h0c)
    if nh == 0 or nh0 == 0:
        raise ValueError("zero-variance curvature field: correlation undefined")
    if np.array_equal(h, h0):
        # Identical fields correlate at exactly 1 (avoids one-ulp noise).
        return 1.0, np.zeros_like(hc)
    r = float(hc @ h0c / (nh * nh0))
    # Both hc and h0c are zero-mean, so the centering projector is a no-op.
    dr_dh = (h0c - r * (nh0 / nh) * hc) / (nh * nh0)
    return r, dr_dh


def curvature_loss(seq, template_curvatures, laplacians=None):
    """One minus the curvature correlation against the template, per frame and
    structure, averaged over frames.

    The gradient is exact: it differentiates both the Laplacian coordinate
    term and the vertex normals.
    """
    T = seq.n_frames
    grads = _zero_grads(seq)
    if laplacians is None:
        laplacians = {s: graph_laplacian(seq.frames[0][s]) for s in STRUCTURES}
    total = 0.0
    for s in STRUCTURES:
        lap = laplacians[s]
        lap_t = lap.T.tocsr()
        faces = seq.frames[0][s].faces
        corners = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])
        h0 = np.asarray(template_curvatures[s], dtype=np.float64)
        for t in range(T):
            verts = seq.frames[t][s].vertices
            m, mnorm = _raw_normals(verts, faces)
            n = m / mnorm[:, None]
            lv = lap @ verts
            h = -0.5 * np.einsum("ij,ij->i", lv, n)
            r, dr_dh = _pearson_and_grad(h, h0)
            total += 1.0 - r
            g_h = -dr_dh / T
            # Path through the Laplacian term (normals held fixed).
            g_v = -0.5 * (lap_t @ (g_h[:, None] * n))
            # Path through the normals.
            q = -0.5 * g_h[:, None] * lv
            g_m = (q - (np.einsum("ij,ij->i", q, n))[:, None] * n) / mnorm[:, None]
            r_f = g_m[faces[:, 0]] + g_m[faces[:, 1]] + g_m[faces[:, 2]]
            v0 = verts[faces[:, 0]]
            u = verts[faces[:, 1]] - v0
            w = verts[faces[:, 2]] - v0
            g_u = np.cross(w, r_f)
            g_w = np.cross(r_f, u)
            g_v += _scatter_rows(
                corners, np.concatenate([g_u, g_w, -(g_u + g_w)]), len(verts)
            )
            grads[s][t] += g_v
    return total / T, grads


def temporal_loss(seq):
    """Mean vertex displacement between consecutive frames."""
    if seq.n_frames < 2:
        raise ValueError("temporal_loss needs at least two frames")
    T = seq.n_frames
    grads = _zero_grads(seq)
    total = 0.0
    for s in STRUCTURES:
        v = np.stack([fr[s].vertices for fr in seq.frames])
        n_c = v.shape[1]
        diff = v[1:] - v[:-1]
        dist = np.linalg.norm(diff, axis=2)
        total += dist.mean(axis=1).sum() / (T - 1)
        w = 1.0 / ((T - 1) * n_c)
        for t in range(T - 1):
            unit = _safe_unit(diff[t], dist[t]) * w
            grads[s][t + 1] += unit
            grads[s][t] -= unit
    return total, grads


def cycle_loss(seq):
    """Mean per-vertex distance between the last and first frames, summed over
    structures.  Zero (with zero gradient) for single-frame sequences."""
    grads = _zero_grads(seq)
    if seq.n_frames < 2:
        return 0.0, grads
    total = 0.0
    for s in STRUCTURES:
        diff = seq.frames[-1][s].vertices - seq.frames[0][s].vertices
        dist = np.linalg.norm(diff, axis=1)
        total += dist.mean()
        unit = _safe_unit(diff, dist) / len(diff)
        grads[s][-1] += unit
        grads[s][0] -= unit
    return total, grads


def total_loss(seq, targets, weights, template_curvatures, laplacians=None):
    """Weighted combination of all terms.

    Returns ``(value, grads, terms)`` where ``terms`` maps term name to its
    unweighted value.  For single-frame sequences the temporal term is
    skipped and the cycle term is zero.
    """
    val_r, g = recon_loss(seq, targets)
    terms = {"recon": val_r}
    total = val_r

    def add(name, weight, fn, *args):
        if weight == 0.0:
            return
        val, grad = fn(*args)
        terms[name] = val
        nonlocal total
        total += weight * val
        for s in STRUCTURES:
            g[s] += weight * grad[s]

    add("edge", weights.lambda_edge, edge_loss, seq)
    add(
        "curv",
        weights.lambda_curv,
        curvature_loss,
        seq,
        template_curvatures,
        laplacians,
    )
    if seq.n_frames >= 2:
        add("temp", weights.lambda_temp, temporal_loss, seq)
    add("cycle", weights.lambda_cycle, cycle_loss, seq)
    return total, g, terms


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


def temporal_laplacian_error(seq):
    """Mean second-temporal-difference magnitude over interior frames."""
    if seq.n_frames < 3:
        raise ValueError("temporal_laplacian_error needs at least three frames")
    stacked = seq.stacked()
    mags = []
    for s in STRUCTURES:
        v = stacked[s]
        second = v[:-2] + v[2:] - 2.0 * v[1:-1]
        mags.append(np.linalg.norm(second, axis=2).ravel())
    return float(np.concatenate(mags).mean())


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

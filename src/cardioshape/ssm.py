"""Statistical shape model over vectorised mesh sequences.

The model is a mean vector plus orthonormal principal directions learnt by
incremental PCA (sequential Karhunen-Loeve updates over mini-batches), so a
population far larger than memory can be streamed through.  Descriptors are
the projection weights.  Completing missing frames is a linear least-squares
problem solved in closed form; only sparse-contour fitting, whose
nearest-neighbour matching has no closed form, optimises the weights with
Adam.  Both work in variance-whitened coordinates, which makes the contour
learning rate scale-free.
"""

import numpy as np
from scipy.spatial import cKDTree

from .mesh import devectorize, vectorize
from .objectives import _safe_unit
from .optim import Adam


class ShapeModel:
    """Mean shape, principal components and explained variances.

    ``components`` is stored row-wise, shape (k, dim) with k <= n_components;
    rows are orthonormal.  ``explained_variance`` uses the sample (n-1)
    convention.  ``topology`` is needed only to rebuild mesh sequences.
    """

    def __init__(self, n_components=128, topology=None):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = int(n_components)
        self.topology = topology
        self.mean = None
        self.components = None
        self.explained_variance = None
        self.singular_values = None
        self.n_seen = 0
        self.sq_dev_total = 0.0  # running total sum of squared deviations

    @property
    def dim(self):
        return None if self.mean is None else self.mean.shape[0]

    @property
    def n_active(self):
        return 0 if self.components is None else self.components.shape[0]

    def total_variance(self):
        if self.n_seen < 2:
            raise ValueError("model has seen fewer than two samples")
        return self.sq_dev_total / (self.n_seen - 1)

    def require_trained(self):
        if self.components is None:
            raise ValueError("model has not been trained")


def _fix_signs(components):
    """Make each component's largest-magnitude coordinate positive."""
    idx = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(len(components)), idx])
    signs[signs == 0] = 1.0
    return components * signs[:, None]


def ipca_partial_fit(model, batch):
    """Update mean, components and variances with one mini-batch of rows."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or len(x) < 1:
        raise ValueError("batch must be a (n, dim) array with n >= 1")
    n_new = len(x)
    if model.mean is None:
        batch_mean = x.mean(axis=0)
        xc = x - batch_mean
        _, s, vt = np.linalg.svd(xc, full_matrices=False)
        n_total = n_new
        model.mean = batch_mean
        model.sq_dev_total = float((xc**2).sum())
    else:
        if x.shape[1] != model.dim:
            raise ValueError(
                f"batch dimension {x.shape[1]} does not match model dim {model.dim}"
            )
        n_old = model.n_seen
        n_total = n_old + n_new
        batch_mean = x.mean(axis=0)
        xc = x - batch_mean
        mean_shift = model.mean - batch_mean
        mean_correction = np.sqrt(n_old * n_new / n_total) * mean_shift
        stack = np.vstack(
            [
                model.singular_values[:, None] * model.components,
                xc,
                mean_correction[None, :],
            ]
        )
        _, s, vt = np.linalg.svd(stack, full_matrices=False)
        model.mean = (n_old * model.mean + n_new * batch_mean) / n_total
        model.sq_dev_total += float((xc**2).sum()) + (
            n_old * n_new / n_total
        ) * float(mean_shift @ mean_shift)
    k = min(model.n_components, len(s))
    components = _fix_signs(vt[:k])
    model.components = components
    model.singular_values = s[:k]
    model.explained_variance = s[:k] ** 2 / max(n_total - 1, 1)
    model.n_seen = n_total
    return model


def encode(model, v):
    """Project a shape vector onto the components: ``w = P^T (v - mean)``."""
    model.require_trained()
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (model.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({model.dim},)")
    return model.components @ (v - model.mean)


def decode(model, w):
    """Reconstruct a shape vector from descriptor weights."""
    model.require_trained()
    w = np.asarray(w, dtype=np.float64)
    return model.mean + model.components.T @ w


def compactness(model, k):
    """Cumulative explained-variance fraction of the first k components."""
    model.require_trained()
    if not 1 <= k <= model.n_active:
        raise ValueError(f"k must be in [1, {model.n_active}]")
    return float(model.explained_variance[:k].sum() / model.total_variance())


def generalization_error(model, test_vectors, k):
    """Root-mean-square per-vertex reconstruction distance with the top-k
    components, in mm.

    The RMS form makes the error provably non-increasing in k for every test
    vector (nested projections shrink the residual norm); a plain mean of
    per-vertex distances does not have that guarantee.  Returns
    ``(mean, sd, per_vector)`` over the test set.
    """
    model.require_trained()
    if not 1 <= k <= model.n_active:
        raise ValueError(f"k must be in [1, {model.n_active}]")
    comps = model.components[:k]
    errors = []
    for v in np.atleast_2d(np.asarray(test_vectors, dtype=np.float64)):
        centred = v - model.mean
        recon = model.mean + comps.T @ (comps @ centred)
        diff = (v - recon).reshape(-1, 3)
        errors.append(float(np.sqrt((diff**2).sum(axis=1).mean())))
    errors = np.array(errors)
    return float(errors.mean()), float(errors.std()), errors


def _whiten_scale(model):
    # Optimising z with w = sqrt(explained_variance) * z makes step sizes
    # comparable across modes and data scales; zero-variance modes stay zero.
    return np.sqrt(np.maximum(model.explained_variance, 0.0))


def _frame_slices(topology):
    per_frame = 3 * topology.total_vertices
    return [
        slice(t * per_frame, (t + 1) * per_frame) for t in range(topology.n_frames)
    ]


def _structure_rows(topology):
    rows = {}
    k = 0
    for s, n in topology.counts.items():
        rows[s] = slice(k, k + n)
        k += n
    return rows


def fit_to_contours(model, contours, lr=0.05, iters=500):
    """Estimate descriptor weights from sparse per-frame contour points.

    ``contours`` is a list with one dict per frame mapping a structure name
    (or None for unlabelled points, matched against all structures) to an
    (n, 3) point array in template space.  The objective is the symmetric
    mean nearest-neighbour distance between the decoded vertices and the
    contour points, per structure entry, summed over frames and entries.

    Structure-restricted matching is batched per frame by shifting every
    structure into its own distant coordinate block: nearest neighbours can
    then never cross structures while all lookups share one tree.
    """
    model.require_trained()
    topology = model.topology
    if topology is None:
        raise ValueError("model has no topology; cannot decode meshes")
    if len(contours) != topology.n_frames:
        raise ValueError(
            f"contours cover {len(contours)} frames, model has {topology.n_frames}"
        )
    slices = _frame_slices(topology)
    rows = _structure_rows(topology)
    block = 1e5  # far larger than any mesh extent
    offsets = {
        s: np.array([block * (i + 1), 0.0, 0.0])
        for i, s in enumerate(rows)
    }

    # Per frame: labelled points (offset trick) and unlabelled points
    # (matched against the union of all structures).
    frames_info = []
    any_points = False
    for t, frame in enumerate(contours):
        labelled_pts = []
        labelled_weight = []  # per point: 1 / (n points of its entry)
        union_entries = []
        vert_weight = np.zeros(topology.total_vertices)
        for s, pts in frame.items():
            pts = np.asarray(pts, dtype=np.float64)
            if len(pts) == 0:
                continue
            any_points = True
            if s is None:
                union_entries.append((pts, cKDTree(pts)))
                continue
            labelled_pts.append(pts + offsets[s])
            labelled_weight.append(np.full(len(pts), 1.0 / len(pts)))
            vert_weight[rows[s]] = 1.0 / topology.counts[s]
        info = {"labelled": None, "union": union_entries}
        if labelled_pts:
            pts_all = np.concatenate(labelled_pts)
            info["labelled"] = {
                "points": pts_all,
                "tree": cKDTree(pts_all),
                "point_weight": np.concatenate(labelled_weight)[:, None],
                "vert_weight": vert_weight[:, None],
            }
        frames_info.append(info)
    if not any_points:
        raise ValueError("no contour points given")

    vert_offset = np.concatenate(
        [np.tile(offsets[s], (topology.counts[s], 1)) for s in rows]
    )

    scale = _whiten_scale(model)
    z = np.zeros(model.n_active)
    adam = Adam(lr=lr)
    best = (np.inf, z.copy())
    for _ in range(iters):
        w = scale * z
        vec = decode(model, w)
        grad_vec = np.zeros_like(vec)
        value = 0.0
        for t, info in enumerate(frames_info):
            frame = vec[slices[t]].reshape(-1, 3)
            gf = grad_vec[slices[t]].reshape(-1, 3)
            lab = info["labelled"]
            if lab is not None:
                shifted = frame + vert_offset
                pts = lab["points"]
                vw = lab["vert_weight"]
                d_vp, idx_vp = lab["tree"].query(shifted)
                vert_tree = cKDTree(
                    shifted, balanced_tree=False, compact_nodes=False
                )
                d_pv, idx_pv = vert_tree.query(pts)
                # structures absent from this frame carry zero weight, so
                # their (huge cross-block) matches never contribute
                value += float(d_vp @ vw[:, 0])
                gf += _safe_unit(shifted - pts[idx_vp], d_vp) * vw
                value += float(d_pv @ lab["point_weight"][:, 0])
                back = _safe_unit(shifted[idx_pv] - pts, d_pv)
                np.add.at(gf, idx_pv, back * lab["point_weight"])
            for pts, tree in info["union"]:
                d_vp, idx_vp = tree.query(frame)
                vert_tree = cKDTree(
                    frame, balanced_tree=False, compact_nodes=False
                )
                d_pv, idx_pv = vert_tree.query(pts)
                value += d_vp.mean() + d_pv.mean()
                gf += _safe_unit(frame - pts[idx_vp], d_vp) / len(frame)
                back = _safe_unit(frame[idx_pv] - pts, d_pv) / len(pts)
                np.add.at(gf, idx_pv, back)
        if value < best[0]:
            best = (value, z.copy())
        g_z = scale * (model.components @ grad_vec)
        z = adam.step(z, g_z)
    return scale * best[1]


def complete_sequence(model, partial, observed):
    """Reconstruct a full sequence from a subset of observed frames.

    ``observed`` is a boolean mask over frames with at least one True entry;
    unobserved frames of ``partial`` are never read.  The descriptor weights
    minimise the squared distance on the observed frames: the minimum-norm
    least-squares solution in whitened coordinates, so observing every frame
    reproduces the encode/decode reconstruction.  The decoded full sequence
    is returned.
    """
    model.require_trained()
    topology = model.topology
    if topology is None:
        raise ValueError("model has no topology; cannot decode meshes")
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != (topology.n_frames,):
        raise ValueError(
            f"observed mask must cover {topology.n_frames} frames"
        )
    if not observed.any():
        raise ValueError("at least one frame must be observed")
    target = vectorize(partial)
    if target.shape != (model.dim,):
        raise ValueError("partial sequence does not match model dimension")
    per_frame = 3 * topology.total_vertices
    rows = (per_frame * np.flatnonzero(observed)[:, None] + np.arange(per_frame)).ravel()
    scale = _whiten_scale(model)
    a = model.components[:, rows].T * scale
    z = np.linalg.lstsq(a, target[rows] - model.mean[rows], rcond=None)[0]
    return devectorize(decode(model, scale * z), topology)


def sample_mode(model, pc_index, multiplier):
    """Decode the mean plus ``multiplier`` standard deviations of one mode."""
    model.require_trained()
    if model.topology is None:
        raise ValueError("model has no topology; cannot decode meshes")
    if not 0 <= pc_index < model.n_active:
        raise ValueError(f"pc_index must be in [0, {model.n_active})")
    w = np.zeros(model.n_active)
    w[pc_index] = multiplier * np.sqrt(model.explained_variance[pc_index])
    return devectorize(decode(model, w), model.topology)

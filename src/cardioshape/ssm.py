"""Statistical shape model over vectorised mesh sequences.

The model is a mean vector plus orthonormal principal directions learnt by
incremental PCA, one method-of-snapshots update per mini-batch, so a
population far larger than memory can be streamed through; only directions
the data span are kept.  Descriptors are the projection weights.  Both
estimators of weights from partial data work in variance-whitened
coordinates and are closed forms: completing missing frames is one
least-squares solve, and sparse-contour fitting is ICP whose every round is
one ridge-regularised k x k solve.
"""

import numpy as np
from scipy.spatial import cKDTree

from .mesh import STRUCTURES, devectorize, vectorize
from .objectives import _block_spacing, _blocked


class ShapeModel:
    """Mean shape, principal components and explained variances.

    ``components`` is stored row-wise, shape (n_active, dim), rows orthonormal,
    with n_active <= min(n_components, rank of the centred data seen).
    ``explained_variance`` (sample n-1 convention, all positive) and
    ``n_seen`` hold the whole spectrum.  ``topology`` is needed only to
    rebuild mesh sequences.
    """

    def __init__(self, n_components, topology=None):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = int(n_components)
        self.topology = topology
        self.mean = None
        self.components = None
        self.explained_variance = None
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


# Relative eigenvalue cutoff of the snapshot Gram matrix: directions the data
# do not span sit near 1e-16 of the largest, and must not be divided by.
RANK_TOL = 1e-12


def ipca_partial_fit(model, batch):
    """Update mean, components and variances with one mini-batch of rows.

    Method of snapshots (Sirovich 1987) on the stack of the components scaled
    by their singular values, the centred batch and the mean-shift row (Ross
    et al. 2008): the components are ``U^T stack / s`` for the eigenpairs
    ``(U, s^2)`` of ``stack stack^T`` above ``RANK_TOL`` of the largest, at
    most ``n_components`` of them.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or len(x) < 1:
        raise ValueError("batch must be a (n, dim) array with n >= 1")
    if model.mean is not None and x.shape[1] != model.dim:
        raise ValueError(
            f"batch dimension {x.shape[1]} does not match model dim {model.dim}"
        )
    n_old, n_new = model.n_seen, len(x)
    n_total = n_old + n_new
    batch_mean = x.mean(axis=0)
    stack = x - batch_mean
    model.sq_dev_total += float((stack**2).sum())
    if n_old:
        shift = model.mean - batch_mean
        s_old = np.sqrt(model.explained_variance * max(n_old - 1, 1))
        shift_row = np.sqrt(n_old * n_new / n_total) * shift
        stack = np.vstack([s_old[:, None] * model.components, stack, shift_row[None, :]])
        model.sq_dev_total += float(shift_row @ shift_row)
        model.mean = (n_old * model.mean + n_new * batch_mean) / n_total
    else:
        model.mean = batch_mean
    evals, u = np.linalg.eigh(stack @ stack.T)
    evals, u = evals[::-1], u[:, ::-1]
    k = min(model.n_components, int(np.count_nonzero(evals > RANK_TOL * evals[0])))
    model.components = _fix_signs(u[:, :k].T @ stack / np.sqrt(evals[:k])[:, None])
    model.explained_variance = evals[:k] / max(n_total - 1, 1)
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
    if w.shape != (model.n_active,):
        raise ValueError(f"weights have shape {w.shape}, expected ({model.n_active},)")
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


# Ridge of the contour fit in mm^2: the prior z ~ N(0, I) on the whitened
# weights against contour noise of sd ~0.03 mm (0.03^2 ~ 1e-3).
CONTOUR_RIDGE = 1e-3


def _neighbours(topology):
    """(V, d) pooled rows of each vertex's neighbours, padded with the vertex."""
    e = topology.pooled_edges
    ends = np.concatenate([e, e[:, ::-1]])  # every edge from both of its ends
    a, b = ends[np.argsort(ends[:, 0], kind="stable")].T
    counts = np.bincount(a, minlength=topology.total_vertices)
    out = np.repeat(np.arange(len(counts))[:, None], counts.max(), axis=1)
    out[a, np.arange(len(a)) - (np.cumsum(counts) - counts)[a]] = b
    return out


def _contour_rounds(model, contours, z):
    """Yield the whitened weights after each ICP round, starting from ``z``.

    Match: each point takes the closest point on the edges incident to its 3
    nearest decoded vertices, or on its previous edge, as a vertex pair and a
    fraction.  Solve: with the pairs fixed, the matched points are linear in
    ``z`` and the ridge objective's minimiser is one k x k normal system.
    Neither step raises the objective.
    """
    topology = model.topology
    if topology is None:
        raise ValueError("model has no topology; cannot decode meshes")
    if len(contours) != topology.n_frames:
        raise ValueError(f"contours cover {len(contours)} frames, model has {topology.n_frames}")
    n_verts = topology.total_vertices
    frames = []  # (frame, points, block per point: 0 any vertex, 1 + structure index)
    for t, frame in enumerate(contours):
        entries = [(s, np.asarray(p, dtype=np.float64)) for s, p in frame.items() if len(p)]
        if entries:
            ids = [0 if s is None else 1 + STRUCTURES.index(s) for s, _ in entries]
            blocks = np.repeat(ids, [len(p) for _, p in entries])
            frames.append((t, np.concatenate([p for _, p in entries]), blocks))
    if not frames:
        raise ValueError("no contour points given")
    points = np.concatenate([p for _, p, _ in frames])
    ends = np.cumsum([len(p) for _, p, _ in frames])
    frame_rows = np.repeat([t * n_verts for t, _, _ in frames], [len(p) for _, p, _ in frames])
    # each frame's tree holds the vertices twice: all in block 0, and by structure
    vert_blocks = np.concatenate([np.zeros(n_verts, int), topology.labels + 1])
    nbr = _neighbours(topology)
    scale = np.sqrt(model.explained_variance)
    # each point's last edge as frame rows; vertex 0 before the first match
    pair = np.zeros((2, len(points)), dtype=np.intp)
    frac = np.zeros(len(points))
    while True:
        x = decode(model, scale * z).reshape(topology.n_frames, n_verts, 3)
        # blocks far enough apart that no 3 nearest vertices cross them
        spacing = _block_spacing(max(np.abs(x).max(), np.abs(points).max()))
        for (t, pts, blocks), end in zip(frames, ends):
            span = slice(end - len(pts), end)
            verts = _blocked(np.concatenate([x[t], x[t]]), vert_blocks, spacing)
            tree = cKDTree(verts, balanced_tree=False)
            near = tree.query(_blocked(pts, blocks, spacing), k=3)[1] % n_verts
            a = np.column_stack([np.repeat(near, nbr.shape[1], axis=1), pair[0, span]])
            b = np.column_stack([nbr[near].reshape(len(pts), -1), pair[1, span]])
            start = np.take(x[t], a, axis=0)  # np.take: ~3x faster than x[t][a]
            edge = np.take(x[t], b, axis=0) - start
            offset = pts[:, None] - start
            length2 = np.einsum("nmi,nmi->nm", edge, edge)
            along = np.einsum("nmi,nmi->nm", offset, edge)
            f = np.clip(along / np.where(length2 > 0, length2, 1.0), 0.0, 1.0)
            offset -= f[..., None] * edge
            best = np.argmin(np.einsum("nmi,nmi->nm", offset, offset), axis=1)
            rows = np.arange(len(pts))
            pair[:, span] = a[rows, best], b[rows, best]
            frac[span] = f[rows, best]
        cols_a, cols_b = (3 * (pair + frame_rows)[..., None] + np.arange(3)).reshape(2, -1)
        f = np.repeat(frac, 3)
        design = np.take(model.components, cols_a, axis=1) * (1.0 - f)
        design += np.take(model.components, cols_b, axis=1) * f
        design *= scale[:, None]
        residual = points.ravel() - model.mean[cols_a] * (1.0 - f) - model.mean[cols_b] * f
        normal = design @ design.T + CONTOUR_RIDGE * np.eye(len(z))
        z = np.linalg.solve(normal, design @ residual)
        yield z


def fit_to_contours(model, contours, lr=None, iters=100):
    """Estimate descriptor weights from sparse per-frame contour points.

    ``contours`` is a list with one dict per frame mapping a structure name
    to an (n, 3) point array in template space; points under ``None`` match
    any vertex (the union of the structures).  The fit is ICP (Besl & McKay
    1992) under a Gaussian prior on the whitened weights (Albrecht et al.
    2013): it minimises the squared distances from the points to the decoded
    mesh edges plus ``CONTOUR_RIDGE`` times the squared whitened weights, and
    stops once no whitened weight moves by 1e-6 in a round, or after
    ``iters`` rounds.  ``lr`` is ignored; it is kept only for one existing
    caller that still passes it.
    """
    z = np.zeros(model.n_active)
    for _, z_next in zip(range(iters), _contour_rounds(model, contours, z)):
        step, z = np.abs(z_next - z).max(), z_next
        if step < 1e-6:
            break
    return np.sqrt(model.explained_variance) * z


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
    scale = np.sqrt(model.explained_variance)
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

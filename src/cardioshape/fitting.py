"""Subject fitting: optimise multi-scale FFD lattices so the template matches
per-frame target point clouds.

Stage 1 fits two global lattices (coarse then mid, composed sequentially) on
the first frame, producing the subject's initial mesh.  Stage 2 fits one
fine lattice per frame, jointly across frames, under the full objective so
the temporal and cycle terms can act.  The output sequence keeps the
template connectivity exactly.
"""

from dataclasses import dataclass

import numpy as np

from .ffd import ControlGrid, pull_back, weights
from .mesh import STRUCTURES, MeshSequence, Topology, mean_curvature
from .objectives import total_loss
from .optim import descend

LR_FINAL_FRAC = 0.05


@dataclass
class FitConfig:
    dims_coarse: tuple = (6, 6, 8)
    dims_mid: tuple = (12, 12, 16)
    dims_fine: tuple = (24, 24, 32)
    iterations: int = 200
    lr: float = 0.1

    def __post_init__(self):
        for dims in (self.dims_coarse, self.dims_mid, self.dims_fine):
            if min(dims) < 4:
                raise ValueError("control-grid dims must all be >= 4")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def lr_at(self, iteration):
        """``lr`` decayed exponentially over a stage to ``lr * LR_FINAL_FRAC``,
        which shrinks Adam's oscillation floor near convergence."""
        return self.lr * LR_FINAL_FRAC ** (iteration / max(self.iterations - 1, 1))


def _fit_box(template, targets):
    pts = [template.all_vertices()]
    for fr in targets.frames:
        pts.extend(fr.values())
    allp = np.concatenate(pts)
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    margin = 0.1 * (hi - lo) + 1.0
    return lo - margin, hi + margin


def _check_finite(x, stage, it):
    if not np.all(np.isfinite(x)):
        raise RuntimeError(f"non-finite vertex coordinates in stage {stage}, iteration {it}")


def fit_sequence(template, targets, cfg=None):
    """Fit the template to per-frame target clouds.

    Lattices are applied through their weight operators (:func:`ffd.weights`):
    the coarse one is built once, the mid one once per stage-1 iteration, and
    one serves every fine lattice, so all frames warp in one product.  The
    losses see the warped vertices as one ``(T, V, 3)`` array with the
    template's :class:`Topology`, whose pooled connectivity is built once;
    the returned sequence is the only mesh object the fit builds.

    Parameters
    ----------
    template : ChamberSet
    targets : TargetClouds
        Must cover all five structures in every frame.
    cfg : FitConfig, optional

    Returns
    -------
    sequence : MeshSequence
    grids : dict
        ``{"coarse": ControlGrid, "mid": ControlGrid, "fine": [ControlGrid]}``.
    trace : list of (stage, iteration, loss)
    """
    cfg = cfg or FitConfig()
    if set(targets.structures()) != set(STRUCTURES):
        raise ValueError("targets must cover all five structures")
    n_frames = targets.n_frames
    topology = Topology.from_chamber_set(template, n_frames)
    template_curvatures = {s: mean_curvature(template[s]) for s in STRUCTURES}
    lo, hi = _fit_box(template, targets)
    coarse = ControlGrid.for_box(lo, hi, cfg.dims_coarse)
    mid = ControlGrid.for_box(lo, hi, cfg.dims_mid)
    p0 = template.all_vertices()
    trace = []

    def loss(x, clouds):
        return total_loss(x, topology, clouds, template_curvatures)

    # Stage 1: global grids against the first frame.
    frame1 = targets.frame(0)
    split = coarse.displacements.size
    w_coarse = weights(coarse, p0)

    def set_global(param_vec, it):
        coarse.displacements = param_vec[:split].reshape(coarse.displacements.shape)
        mid.displacements = param_vec[split:].reshape(mid.displacements.shape)
        x1 = p0 + w_coarse @ param_vec[:split].reshape(-1, 3)
        _check_finite(x1, 1, it)
        w_mid = weights(mid, x1)
        warped = x1 + w_mid @ param_vec[split:].reshape(-1, 3)
        _check_finite(warped, 1, it)
        return x1, w_mid, warped

    def global_objective(param_vec, it):
        x1, w_mid, warped = set_global(param_vec, it)
        value, grad, _ = loss(warped[None], frame1)
        up = grad[0]
        del grad
        grad_mid = w_mid.T @ up
        del w_mid
        grad_coarse = w_coarse.T @ pull_back(mid, x1, up)
        return value, np.concatenate([grad_coarse.ravel(), grad_mid.ravel()])

    params = np.zeros(split + mid.displacements.size)
    best, best_it, values = descend(global_objective, params, cfg.iterations, cfg.lr_at, "stage 1")
    trace.extend(("global", it, value) for it, value in enumerate(values))
    initial = set_global(best, best_it)[2]
    del w_coarse, frame1

    # Stage 2: per-frame fine grids, jointly under the full objective.
    # params[g, t, :] is frame t's displacement of control point g, so the
    # (G, 3T) view of params warps every frame in one product.
    fine_shape = tuple(cfg.dims_fine) + (3,)
    fines = [ControlGrid.for_box(lo, hi, cfg.dims_fine) for _ in range(n_frames)]
    w_fine = weights(fines[0], initial)
    n_ctrl = w_fine.shape[1]

    def warp_frames(param_vec):
        moved = w_fine @ param_vec.reshape(n_ctrl, 3 * n_frames)
        x = moved.reshape(-1, n_frames, 3).transpose(1, 0, 2).copy()
        x += initial
        return x

    def frames_objective(param_vec, it):
        x = warp_frames(param_vec)
        _check_finite(x, 2, it)
        value, grad, _ = loss(x, targets)
        del x
        grad_vec = (w_fine.T @ grad.transpose(1, 0, 2).reshape(-1, 3 * n_frames)).ravel()
        del grad
        return value, grad_vec

    params = np.zeros(n_ctrl * n_frames * 3)
    best, _, values = descend(frames_objective, params, cfg.iterations, cfg.lr_at, "stage 2")
    trace.extend(("frames", it, value) for it, value in enumerate(values))
    per_frame = best.reshape(n_ctrl, n_frames, 3)
    for t in range(n_frames):
        fines[t].displacements = per_frame[:, t].reshape(fine_shape).copy()
    x = warp_frames(best)
    seq = MeshSequence([template.with_all_vertices(x[t]) for t in range(n_frames)])
    grids = {"coarse": coarse, "mid": mid, "fine": fines}
    return seq, grids, trace


def extract_surface_points(volume, label, spacing, origin=(0.0, 0.0, 0.0)):
    """Surface sampling of a label: centres of voxel faces that separate the
    label from anything else (world mm).

    The voxel centre of index (i, j, k) is at ``origin + (i, j, k) * spacing``.
    """
    volume = np.asarray(volume)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=np.float64), (3,))
    origin = np.asarray(origin, dtype=np.float64)
    mask = volume == label
    if not mask.any():
        raise ValueError(f"label {label} not present in volume")
    padded = np.pad(mask, 1, constant_values=False)
    points = []
    shifts = [
        (0, (1, 0, 0)), (0, (-1, 0, 0)),
        (1, (0, 1, 0)), (1, (0, -1, 0)),
        (2, (0, 0, 1)), (2, (0, 0, -1)),
    ]
    for axis, (dx, dy, dz) in shifts:
        neighbor = padded[
            1 + dx : padded.shape[0] - 1 + dx,
            1 + dy : padded.shape[1] - 1 + dy,
            1 + dz : padded.shape[2] - 1 + dz,
        ]
        boundary = mask & ~neighbor
        idx = np.argwhere(boundary).astype(np.float64)
        if len(idx) == 0:
            continue
        offset = np.zeros(3)
        offset[axis] = 0.5 * (dx + dy + dz)
        points.append((idx + offset) * spacing + origin)
    return np.concatenate(points)

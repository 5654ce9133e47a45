"""Subject fitting: optimise multi-scale FFD lattices so the template matches
per-frame target point clouds.

Stage 1 fits two global lattices (coarse then mid, composed sequentially) on
the first frame, producing the subject's initial mesh.  Stage 2 fits one
fine lattice per frame, jointly across frames, under the full objective so
the temporal and cycle terms can act.  The output sequence keeps the
template connectivity exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .ffd import ControlGrid, pull_back, weights
from .mesh import STRUCTURES, MeshSequence, Topology, mean_curvature
from .objectives import LossWeights, total_loss
from .optim import Adam


@dataclass
class FitConfig:
    weights: LossWeights = field(default_factory=LossWeights)
    dims_coarse: tuple = (6, 6, 8)
    dims_mid: tuple = (12, 12, 16)
    dims_fine: tuple = (24, 24, 32)
    iterations: int = 200
    lr: float = 0.1
    # Exponential decay of the step size over each stage; the final step is
    # lr * lr_final_frac.  Shrinks Adam's oscillation floor near convergence.
    lr_final_frac: float = 0.05

    def __post_init__(self):
        for dims in (self.dims_coarse, self.dims_mid, self.dims_fine):
            if min(dims) < 4:
                raise ValueError("control-grid dims must all be >= 4")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 < self.lr_final_frac <= 1:
            raise ValueError("lr_final_frac must be in (0, 1]")

    def lr_at(self, iteration):
        if self.iterations == 1:
            return self.lr
        frac = iteration / (self.iterations - 1)
        return self.lr * self.lr_final_frac**frac


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
        return total_loss(x, topology, clouds, cfg.weights, template_curvatures)

    # Stage 1: global grids against the first frame.
    frame1 = targets.frame(0)
    params = np.zeros(coarse.displacements.size + mid.displacements.size)
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

    adam = Adam(lr=cfg.lr)
    best = (np.inf, params.copy(), 0)
    for it in range(cfg.iterations):
        x1, w_mid, warped = set_global(params, it)
        value, grad, _ = loss(warped[None], frame1)
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss in stage 1, iteration {it}")
        trace.append(("global", it, value))
        if value < best[0]:
            best = (value, params.copy(), it)
        up = grad[0]
        del grad
        grad_mid = w_mid.T @ up
        del w_mid
        grad_coarse = w_coarse.T @ pull_back(mid, x1, up)
        grad_vec = np.concatenate([grad_coarse.ravel(), grad_mid.ravel()])
        adam.lr = cfg.lr_at(it)
        params = adam.step(params, grad_vec)
    initial = set_global(best[1], best[2])[2]
    del w_coarse, frame1

    # Stage 2: per-frame fine grids, jointly under the full objective.
    # params[g, t, :] is frame t's displacement of control point g, so the
    # (G, 3T) view of params warps every frame in one product.
    fine_shape = tuple(cfg.dims_fine) + (3,)
    fines = [ControlGrid.for_box(lo, hi, cfg.dims_fine) for _ in range(n_frames)]
    w_fine = weights(fines[0], initial)
    n_ctrl = w_fine.shape[1]
    params = np.zeros(n_ctrl * n_frames * 3)
    adam = Adam(lr=cfg.lr)
    best = (np.inf, params.copy())

    def warp_frames(param_vec):
        moved = w_fine @ param_vec.reshape(n_ctrl, 3 * n_frames)
        x = moved.reshape(-1, n_frames, 3).transpose(1, 0, 2).copy()
        x += initial
        return x

    for it in range(cfg.iterations):
        x = warp_frames(params)
        _check_finite(x, 2, it)
        value, grad, _ = loss(x, targets)
        del x
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss in stage 2, iteration {it}")
        trace.append(("frames", it, value))
        if value < best[0]:
            best = (value, params.copy())
        grad_vec = (w_fine.T @ grad.transpose(1, 0, 2).reshape(-1, 3 * n_frames)).ravel()
        del grad
        adam.lr = cfg.lr_at(it)
        params = adam.step(params, grad_vec)
        del grad_vec
    per_frame = best[1].reshape(n_ctrl, n_frames, 3)
    for t in range(n_frames):
        fines[t].displacements = per_frame[:, t].reshape(fine_shape).copy()
    x = warp_frames(best[1])
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

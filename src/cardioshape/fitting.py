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

from .ffd import ControlGrid, compose_warp, compose_warp_gradient, warp_gradient, warp_points
from .mesh import STRUCTURES, ChamberSet, MeshSequence, graph_laplacian, mean_curvature
from .objectives import LossWeights, TargetClouds, total_loss
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


def _split_pooled(template, pooled):
    coords = {}
    k = 0
    for s in STRUCTURES:
        n = template[s].n_vertices
        coords[s] = pooled[k : k + n]
        k += n
    return coords


def _pool_grads(template, grads, t):
    return np.concatenate([grads[s][t] for s in STRUCTURES])


def fit_sequence(template, targets, cfg=None, template_curvatures=None):
    """Fit the template to per-frame target clouds.

    Parameters
    ----------
    template : ChamberSet
    targets : TargetClouds
        Must cover all five structures in every frame.
    cfg : FitConfig, optional
    template_curvatures : dict, optional
        Per-structure template curvature fields; computed here if omitted.

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
    if template_curvatures is None:
        template_curvatures = {s: mean_curvature(template[s]) for s in STRUCTURES}
    laplacians = {s: graph_laplacian(template[s]) for s in STRUCTURES}
    lo, hi = _fit_box(template, targets)
    coarse = ControlGrid.for_box(lo, hi, cfg.dims_coarse)
    mid = ControlGrid.for_box(lo, hi, cfg.dims_mid)
    p0 = template.all_vertices()
    trace = []

    # Stage 1: global grids against the first frame.
    frame1 = TargetClouds([targets.frames[0]])
    params = np.zeros(coarse.displacements.size + mid.displacements.size)
    split = coarse.displacements.size
    adam = Adam(lr=cfg.lr)
    best = (np.inf, params.copy())
    for it in range(cfg.iterations):
        coarse.displacements = params[:split].reshape(coarse.displacements.shape)
        mid.displacements = params[split:].reshape(mid.displacements.shape)
        warped = compose_warp([coarse, mid], p0)
        seq1 = MeshSequence([template.with_all_vertices(warped)])
        value, grads, _ = total_loss(
            seq1, frame1, cfg.weights, template_curvatures, laplacians
        )
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss in stage 1, iteration {it}")
        trace.append(("global", it, value))
        if value < best[0]:
            best = (value, params.copy())
        grid_grads, _ = compose_warp_gradient(
            [coarse, mid], p0, _pool_grads(template, grads, 0)
        )
        grad_vec = np.concatenate([g.ravel() for g in grid_grads])
        adam.lr = cfg.lr_at(it)
        params = adam.step(params, grad_vec)
    params = best[1]
    coarse.displacements = params[:split].reshape(coarse.displacements.shape)
    mid.displacements = params[split:].reshape(mid.displacements.shape)
    initial = compose_warp([coarse, mid], p0)

    # Stage 2: per-frame fine grids, jointly under the full objective.
    n_frames = targets.n_frames
    fine_shape = tuple(cfg.dims_fine) + (3,)
    fine_size = int(np.prod(fine_shape))
    fines = [ControlGrid.for_box(lo, hi, cfg.dims_fine) for _ in range(n_frames)]
    params = np.zeros(n_frames * fine_size)
    adam = Adam(lr=cfg.lr)
    best = (np.inf, params.copy())

    def build_sequence(param_vec):
        frames = []
        for t in range(n_frames):
            fines[t].displacements = param_vec[
                t * fine_size : (t + 1) * fine_size
            ].reshape(fine_shape)
            frames.append(
                template.with_all_vertices(warp_points(fines[t], initial))
            )
        return MeshSequence(frames)

    for it in range(cfg.iterations):
        seq = build_sequence(params)
        value, grads, _ = total_loss(
            seq, targets, cfg.weights, template_curvatures, laplacians
        )
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss in stage 2, iteration {it}")
        trace.append(("frames", it, value))
        if value < best[0]:
            best = (value, params.copy())
        grad_vec = np.empty_like(params)
        for t in range(n_frames):
            g = warp_gradient(fines[t], initial, _pool_grads(template, grads, t))
            grad_vec[t * fine_size : (t + 1) * fine_size] = g.ravel()
        adam.lr = cfg.lr_at(it)
        params = adam.step(params, grad_vec)
    seq = build_sequence(best[1])
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

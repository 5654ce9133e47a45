"""Subject fitting: optimise multi-scale FFD lattices so the template matches
per-frame target point clouds.

Stage 1 fits two global lattices on the first frame, coarse and mid summed
at the template vertices (a multilevel B-spline), giving the subject's
initial mesh.  Stage 2 fits one fine lattice per frame at that mesh, jointly
across frames, under the full objective so the temporal and cycle terms can
act.  Both stages are one Adam loop over weight operators built once per
fit.  The output sequence keeps the template connectivity exactly.
"""

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .ffd import ControlGrid, weights
from .mesh import STRUCTURES, MeshSequence, Topology, mean_curvature
from .objectives import total_loss
from .optim import descend

LR_FINAL_FRAC = 0.05


@dataclass
class FitConfig:
    dims_coarse: tuple = (6, 6, 8)
    dims_mid: tuple = (12, 12, 16)
    dims_fine: tuple = (24, 24, 32)
    _: KW_ONLY
    iterations: int
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
    allp = np.concatenate([template.all_vertices()] + [lp.points for lp in targets.pooled])
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    margin = 0.1 * (hi - lo) + 1.0
    return lo - margin, hi + margin


def _fit_stage(ops, base, clouds, loss, cfg, what):
    """Adam over the displacements of lattices with fixed weight operators.

    Frame t is ``base + sum_k ops[k] @ D_k[:, t]``, and the gradient of
    ``D_k`` is ``ops[k].T @ U`` for the loss gradient ``U``.  Each ``D_k`` is
    held as ``(G_k, 3T)``, so one product per operator moves every frame.
    Returns each kept ``D_k`` as ``(G_k, T, 3)``, the kept frames and every
    loss value.
    """
    n_frames = clouds.n_frames
    cols = 3 * n_frames
    ends = np.cumsum([w.shape[1] * cols for w in ops])

    def warp(params):
        parts = np.split(params, ends[:-1])
        moved = ops[0] @ parts[0].reshape(-1, cols)
        for w, d in zip(ops[1:], parts[1:]):
            moved += w @ d.reshape(-1, cols)
        x = moved.reshape(-1, n_frames, 3).transpose(1, 0, 2).copy()
        x += base
        return x

    def objective(params, it):
        x = warp(params)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite vertex coordinates in {what}, iteration {it}")
        value, grad, _ = loss(x, clouds)
        del x
        up = grad.transpose(1, 0, 2).reshape(-1, cols)
        del grad
        return value, np.concatenate([(w.T @ up).ravel() for w in ops])

    best, _, values = descend(objective, np.zeros(ends[-1]), cfg.iterations, cfg.lr_at, what)
    kept = [d.reshape(-1, n_frames, 3) for d in np.split(best, ends[:-1])]
    return kept, warp(best), values


def fit_sequence(template, targets, cfg):
    """Fit the template to per-frame target clouds.

    Both stages run :func:`_fit_stage` on operators of :func:`ffd.weights`,
    three per fit.  The losses see the warped vertices as one ``(T, V, 3)``
    array with the template's :class:`Topology`; the returned sequence is
    the only mesh object the fit builds.

    Parameters
    ----------
    template : ChamberSet
    targets : TargetClouds
        Must cover all five structures in every frame
        (:func:`objectives.recon_loss` raises otherwise).
    cfg : FitConfig

    Returns
    -------
    sequence : MeshSequence
    grids : dict
        ``{"coarse": ControlGrid, "mid": ControlGrid, "fine": [ControlGrid]}``:
        the stage-1 mesh is the template plus the coarse and mid
        displacements at its vertices, and frame t is ``fine[t]`` applied
        to that mesh.
    trace : list of (stage, iteration, loss)
    """
    n_frames = targets.n_frames
    topology = Topology.from_chamber_set(template, n_frames)
    template_curvatures = {s: mean_curvature(template[s]) for s in STRUCTURES}
    lo, hi = _fit_box(template, targets)
    coarse = ControlGrid.for_box(lo, hi, cfg.dims_coarse)
    mid = ControlGrid.for_box(lo, hi, cfg.dims_mid)
    fines = [ControlGrid.for_box(lo, hi, cfg.dims_fine) for _ in range(n_frames)]
    p0 = template.all_vertices()

    def loss(x, clouds):
        return total_loss(x, topology, clouds, template_curvatures)

    # Stage 1: the global lattices, summed at the template, against frame 0.
    (d_coarse, d_mid), (initial,), values1 = _fit_stage(
        [weights(coarse, p0), weights(mid, p0)], p0, targets.frame(0), loss, cfg, "stage 1"
    )
    coarse.displacements = d_coarse.reshape(coarse.displacements.shape)
    mid.displacements = d_mid.reshape(mid.displacements.shape)

    # Stage 2: one fine lattice per frame, all at the stage-1 mesh.
    (d_fine,), x, values2 = _fit_stage(
        [weights(fines[0], initial)], initial, targets, loss, cfg, "stage 2"
    )
    for t, fine in enumerate(fines):
        fine.displacements = d_fine[:, t].reshape(fine.displacements.shape).copy()
    seq = MeshSequence([template.with_all_vertices(x[t]) for t in range(n_frames)])
    grids = {"coarse": coarse, "mid": mid, "fine": fines}
    trace = [("global", it, v) for it, v in enumerate(values1)]
    trace += [("frames", it, v) for it, v in enumerate(values2)]
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

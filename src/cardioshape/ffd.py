"""Cubic B-spline free-form deformation lattices.

A lattice stores one 3-D displacement per control point; warping a point
blends the 4x4x4 neighbouring displacements with the uniform cubic B-spline
basis.  :func:`compose_warp` chains lattices (the coarse result is
re-evaluated inside the finer lattice), with analytic gradients with respect
to the control displacements and, through :func:`pull_back`, the input
points.  Subject fitting instead sums lattices at one set of points.

All of it goes through one sparse operator of basis weights, :func:`weights`:
a warp is ``p + W @ D``, the displacement gradient ``W.T @ U``.  Lattices
sharing a geometry and input points share ``W``, with displacements stacked
as columns of ``D``; lattices of other geometries at the same points add
their own products.
"""

import numpy as np
from scipy import sparse


class ControlGrid:
    """A lattice of B-spline control-point displacements.

    Parameters
    ----------
    dims : (int, int, int)
        Control-point counts per axis, each >= 4 (cubic support).
    origin : array_like (3,)
        World position of control point (0, 0, 0), mm.
    spacing : array_like (3,)
        Positive control-point spacing per axis, mm.
    displacements : ndarray (Gx, Gy, Gz, 3), optional
        Initial displacements; zeros when omitted.
    """

    def __init__(self, dims, origin, spacing, displacements=None):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or min(dims) < 4:
            raise ValueError("dims must be three counts, each >= 4")
        origin = np.asarray(origin, dtype=np.float64)
        spacing = np.asarray(spacing, dtype=np.float64)
        if origin.shape != (3,) or spacing.shape != (3,):
            raise ValueError("origin and spacing must be 3-vectors")
        if np.any(spacing <= 0):
            raise ValueError("spacing must be positive")
        if displacements is None:
            displacements = np.zeros(dims + (3,))
        else:
            displacements = np.asarray(displacements, dtype=np.float64)
            if displacements.shape != dims + (3,):
                raise ValueError(
                    f"displacements must have shape {dims + (3,)}, "
                    f"got {displacements.shape}"
                )
            if not np.all(np.isfinite(displacements)):
                raise ValueError("displacements must be finite")
        self.dims = dims
        self.origin = origin
        self.spacing = spacing
        self.displacements = displacements

    @classmethod
    def for_box(cls, lo, hi, dims):
        """Lattice whose fully supported cells cover the box [lo, hi].

        Spacing is chosen so points inside the box fall in cells 1..G-3 and
        every warp evaluation sees a complete 4-point support.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        dims = tuple(int(d) for d in dims)
        extent = hi - lo
        if np.any(extent <= 0):
            raise ValueError("box must have positive extent")
        spacing = extent / (np.array(dims) - 3)
        origin = lo - spacing
        return cls(dims, origin, spacing)


def bspline_basis(u):
    """Uniform cubic B-spline basis values B0..B3 at local coordinate u.

    Accepts a scalar or array with every entry in [0, 1); returns the four
    weights along a trailing axis.  Weights sum to one (partition of unity).
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0) or np.any(u >= 1):
        raise ValueError("local coordinate u must satisfy 0 <= u < 1")
    return _basis(u)


def _basis(u):
    # Polynomial pieces are valid for any real u; partition of unity holds
    # identically, which keeps clamped out-of-lattice warps translation-exact.
    u = np.asarray(u, dtype=np.float64)
    u2 = u * u
    u3 = u2 * u
    b0 = (1.0 - 3.0 * u + 3.0 * u2 - u3) / 6.0
    b1 = (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0
    b2 = (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0
    b3 = u3 / 6.0
    return np.stack([b0, b1, b2, b3], axis=-1)


def _basis_deriv(u):
    u = np.asarray(u, dtype=np.float64)
    u2 = u * u
    d0 = (-3.0 + 6.0 * u - 3.0 * u2) / 6.0
    d1 = (9.0 * u2 - 12.0 * u) / 6.0
    d2 = (-9.0 * u2 + 6.0 * u + 3.0) / 6.0
    d3 = 3.0 * u2 / 6.0
    return np.stack([d0, d1, d2, d3], axis=-1)


def _cells_and_locals(grid, points):
    """Clamped cell indices, local coordinates, and a clamp mask, all (N, 3).

    The cell index is clamped to the fully supported range [1, G-3] and the
    local coordinate to [0, 1]: points outside the lattice evaluate the
    displacement field at the nearest boundary-cell position, so the warp is
    total (and exactly translation-equivariant for a constant field) at the
    cost of a derivative kink on the boundary.
    """
    pts = np.asarray(points, dtype=np.float64)
    s = (pts - grid.origin) / grid.spacing
    cell = np.floor(s).astype(np.int64)
    for ax in range(3):
        np.clip(cell[:, ax], 1, grid.dims[ax] - 3, out=cell[:, ax])
    raw = s - cell
    local = np.clip(raw, 0.0, 1.0)
    clamped = raw != local
    return cell, local, clamped


def weights(grid, points, deriv_axis=None):
    """B-spline weight operator of a lattice at fixed points, (n, G) CSR.

    Row ``p`` holds the 64 tensor-product basis weights of point ``p``'s
    4x4x4 support, in the columns of the flattened control grid (C order,
    ``G = Gx * Gy * Gz``), so the lattice displacement at every point is
    ``W @ grid.displacements.reshape(G, 3)`` and the displacement gradient of
    a loss is ``W.T @ upstream``.  With ``deriv_axis`` set, that axis uses the
    basis derivative scaled by 1/spacing, giving column ``deriv_axis`` of the
    displacement field's spatial Jacobian; the derivative is zero where the
    boundary clamp is active.  Indices are int32.
    """
    cell, local, clamped = _cells_and_locals(grid, points)
    n = len(cell)
    w = []
    for ax in range(3):
        if ax == deriv_axis:
            dw = _basis_deriv(local[:, ax]) / grid.spacing[ax]
            dw[clamped[:, ax]] = 0.0
            w.append(dw)
        else:
            w.append(_basis(local[:, ax]))
    data = w[0][:, :, None, None] * w[1][:, None, :, None] * w[2][:, None, None, :]
    # Support indices per axis; a, b, c ascending gives sorted row indices.
    gx, gy, gz = grid.dims
    idx = [(cell[:, ax, None] - 1 + np.arange(4)).astype(np.int32) for ax in range(3)]
    cols = (idx[0][:, :, None] * gy + idx[1][:, None, :])[:, :, :, None] * gz
    cols = cols + idx[2][:, None, None, :]
    indptr = np.arange(0, 64 * n + 1, 64)
    return sparse.csr_matrix(
        (data.reshape(-1), cols.reshape(-1), indptr), shape=(n, gx * gy * gz)
    )


def warp_points(grid, points):
    """Apply the FFD to points: ``p' = p + sum of basis-weighted displacements``.

    Points outside the lattice are clamped to the boundary cell (the warp is
    then a smooth polynomial extension; a constant displacement field still
    translates them exactly).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts + weights(grid, pts) @ grid.displacements.reshape(-1, 3)


def warp_gradient(grid, points, upstream):
    """Accumulate dLoss/d(displacements) from per-point upstream gradients.

    ``upstream`` holds dLoss/dp' per point; the result has the same shape as
    ``grid.displacements``.  It is ``W.T @ upstream`` for the weight operator
    ``W`` of :func:`weights`: linear in ``upstream`` and deterministic.
    """
    pts = np.asarray(points, dtype=np.float64)
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != pts.shape:
        raise ValueError(
            f"upstream shape {up.shape} does not match points shape {pts.shape}"
        )
    return (weights(grid, pts).T @ up).reshape(grid.displacements.shape)


def warp_jacobian(grid, points):
    """Spatial Jacobian of the displacement field, shape (n, 3, 3).

    ``J[p, m, n] = d(displacement_m)/d(point_n)`` evaluated at each point;
    needed to chain gradients through composed lattices.
    """
    pts = np.asarray(points, dtype=np.float64)
    d = grid.displacements.reshape(-1, 3)
    return np.stack([weights(grid, pts, deriv_axis=ax) @ d for ax in range(3)], axis=2)


def pull_back(grid, points, upstream):
    """``(I + J)^T upstream`` for ``p' = p + D(p)``: dLoss/dp from dLoss/dp',
    with ``J`` from :func:`warp_jacobian`."""
    up = np.asarray(upstream, dtype=np.float64)
    return up + np.einsum("nmk,nm->nk", warp_jacobian(grid, points), up)


def compose_warp(grids, points):
    """Sequential multi-scale warp: the output of each lattice feeds the next.

    Lattices are ordered coarse to fine.
    """
    if len(grids) < 1:
        raise ValueError("compose_warp needs at least one grid")
    out = np.asarray(points, dtype=np.float64)
    for g in grids:
        out = warp_points(g, out)
    return out


def compose_warp_gradient(grids, points, upstream):
    """Gradients of a loss through a sequential warp chain.

    Parameters
    ----------
    grids : list of ControlGrid
    points : ndarray (n, 3)
        Chain input points.
    upstream : ndarray (n, 3)
        dLoss/d(final points).

    Returns
    -------
    grid_grads : list of ndarray
        One displacement-gradient array per grid, in input order.
    point_grad : ndarray (n, 3)
        dLoss/d(input points), useful when the chain input itself moves.
    """
    pts = np.asarray(points, dtype=np.float64)
    inputs = [pts]
    for g in grids:
        inputs.append(warp_points(g, inputs[-1]))
    g_out = np.asarray(upstream, dtype=np.float64)
    grid_grads = [None] * len(grids)
    for k in range(len(grids) - 1, -1, -1):
        grid_grads[k] = warp_gradient(grids[k], inputs[k], g_out)
        g_out = pull_back(grids[k], inputs[k], g_out)
    return grid_grads, g_out

"""In-plane misalignment correction for multi-view slice stacks.

Each slice plane owns a continuous in-plane displacement (mm).  The
objective sums absolute intensity differences along every pair of
plane-plane intersection lines plus a through-stack Laplacian smoothness
term over the short-axis slices.  Each residual is a bilinear sample, so all
displacements are solved jointly by damped Gauss-Newton on the IRLS normal
system of the absolute residuals (Lucas-Kanade with an L1 penalty; Baker &
Matthews 2004): no step size.  In the solve the displacements are one (P, 2)
array, rows in ``ViewSet.planes()`` order; :func:`mc_optimize` runs the rounds."""

import warnings
from functools import cached_property, partial

import numpy as np

from .objectives import dice, pearson_r

IRLS_FLOOR = 1e-3  # IRLS weight 1 / max(|r|, IRLS_FLOOR)
MU_START, MU_DOWN, MU_UP = 1e-3, 3.0, 10.0  # Levenberg-Marquardt damping
STEP_TOL_PX = 1e-4  # a step that moves no plane this far ends the solve
REL_TOL = 1e-6  # so does an accepted step that lowers sum |r| by less than this share


class SlicePlane:
    """One 2-D+t slice with its in-plane displacement parameter.

    The pixel (x, y) = (column, row) sits at world position
    ``origin + x * du * axis_u + y * dv * axis_v``; images are indexed
    ``image[t, y, x]``.  The displacement starts at zero, is in mm and is
    applied continuously: the corrected image samples the stored one at
    ``(x + dx/du, y + dy/dv)``.  ``label`` is an integer image of the same
    shape, or None.
    """

    def __init__(self, origin, axis_u, axis_v, pixel_spacing, image, label, plane_id):
        self.origin = np.asarray(origin, dtype=np.float64)
        self.axis_u = np.asarray(axis_u, dtype=np.float64)
        self.axis_v = np.asarray(axis_v, dtype=np.float64)
        if max(abs(np.linalg.norm(a) - 1) for a in (self.axis_u, self.axis_v)) > 1e-9:
            raise ValueError("axis_u and axis_v must be unit vectors")
        if abs(self.axis_u @ self.axis_v) > 1e-9:
            raise ValueError("axis_u and axis_v must be orthogonal")
        self.pixel_spacing = (float(pixel_spacing[0]), float(pixel_spacing[1]))
        if min(self.pixel_spacing) <= 0:
            raise ValueError("pixel_spacing must be positive")
        self.image = np.ascontiguousarray(image, dtype=np.float64)
        if self.image.ndim != 3:
            raise ValueError("image must have shape (T, H, W)")
        if not np.isfinite(self.image).all():
            raise ValueError(f"plane {plane_id}: image has non-finite pixels")
        self.label = None if label is None else np.asarray(label)
        if self.label is not None and self.label.shape != self.image.shape:
            raise ValueError("label must match image shape")
        self.displacement = np.zeros(2)
        self.plane_id = plane_id

    @property
    def n_frames(self):
        return self.image.shape[0]

    @property
    def shape(self):
        return self.image.shape[1:]

    @property
    def normal(self):
        return np.cross(self.axis_u, self.axis_v)

    def world_to_pixels(self, points):
        """Project 3-D points into continuous pixel coordinates (N, 2)."""
        rel = np.atleast_2d(points) - self.origin
        return np.column_stack(
            [rel @ self.axis_u / self.pixel_spacing[0],
             rel @ self.axis_v / self.pixel_spacing[1]]
        )


def _bilinear(image, px, py, gradient=False):
    """Border-clamped bilinear sample of (T, H, W) at pixel coords px, py.

    ``px`` and ``py`` broadcast against each other: two (N,) arrays sample N
    points, and (W,) with (H, 1) samples a whole (H, W) grid.  ``image`` may
    also be a view set's ``_Lines``, sampled at its (M,) points.  Returns
    the values, or with ``gradient`` the x and y derivatives, each of shape
    (T,) + the broadcast shape.  The sampled function is constant beyond the
    border, so the derivative along a clamped coordinate is zero.
    """
    _, h, w = image.shape
    cx = np.clip(px, 0.0, w - 1.0)
    cy = np.clip(py, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(cx).astype(np.int64), np.maximum(w - 2, 0))
    y0 = np.minimum(np.floor(cy).astype(np.int64), np.maximum(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = cx - x0
    fy = cy - y0
    gx = 1 - fx
    gy = 1 - fy
    if isinstance(image, _Lines):
        take = image.take
    else:
        take = partial(np.take, image.reshape(len(image), -1), axis=1)
    # weights and masks meet the (T, ...) taps only after their own product
    i00, i01, i10, i11 = (take(y * w + x) for y, x in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
    if not gradient:
        return i00 * (gx * gy) + i01 * (fx * gy) + i10 * (gx * fy) + i11 * (fx * fy)
    mx = cx == px
    my = cy == py
    dx = (i01 - i00) * (mx * gy) + (i11 - i10) * (mx * fy)
    dy = (i10 - i00) * (my * gx) + (i11 - i01) * (my * fx)
    return dx, dy


class _Lines:
    """Every intersecting long/long and short/long plane pair as one batch of
    points that ``_bilinear`` samples in one call: undisplaced pixels ``pix``
    (M, 2) sorted by plane (``owner``), ``shape`` (T, H, W) with H and W per
    point, and per pair its planes' indices and its sides' (T, M) columns."""

    def __init__(self, views):
        self.planes = planes = views.planes()
        n = len(views.sax)
        index, sides = [], []
        for i, j in [(n, n + 1)] + [(d, n + k) for d in range(n) for k in (0, 1)]:
            pts = intersection_samples(planes[i], planes[j])
            if len(pts) == 0:
                warnings.warn(
                    f"empty intersection between {planes[i].plane_id} and "
                    f"{planes[j].plane_id}; term contributes 0"
                )
                continue
            index.append((i, j))
            sides += [(k, planes[k].world_to_pixels(pts)) for k in (i, j)]
        if not sides:
            raise ValueError("no two planes of the view set intersect")
        owner = np.concatenate([np.full(len(pix), k) for k, pix in sides])
        order = np.argsort(owner, kind="stable")  # keeps each side's points together
        self.pix, self.owner = np.concatenate([pix for _, pix in sides])[order], owner[order]
        self.stops = np.searchsorted(self.owner, np.arange(len(planes) + 1))
        self.shape = (views.n_frames, *np.array([p.shape for p in planes])[self.owner].T)
        first = np.argsort(order)[np.cumsum([0] + [len(pix) for _, pix in sides[:-1]])]
        cols = [slice(c, c + len(pix)) for c, (_, pix) in zip(first, sides)]
        self.pairs = [(i, j, a, b) for (i, j), a, b in zip(index, cols[::2], cols[1::2])]

    def pixels(self, shift):
        """The points' pixel coordinates x, y at the (P, 2) pixel ``shift``."""
        return (self.pix + shift[self.owner]).T

    def sides(self, sample):
        """A (T, M) sample's a and b sides, each flat in ``pairs`` order."""
        return [np.concatenate([sample[:, p[k]].ravel() for p in self.pairs]) for k in (2, 3)]

    def take(self, index, attr="image"):
        """Entry ``index[m]`` of each point's plane ``attr``, per frame (T, M)."""
        images = [getattr(p, attr) for p in self.planes]
        out = np.empty((self.shape[0], len(index)), images[0].dtype)
        for image, a, b in zip(images, self.stops, self.stops[1:]):
            np.take(image.reshape(len(image), -1), index[a:b], axis=1, out=out[:, a:b])
        return out


class ViewSet:
    """A short-axis stack plus two long-axis planes.

    All planes share one frame count, and all short-axis slices one
    (H, W): the through-stack term compares them pixel by pixel.
    """

    def __init__(self, sax, la_2ch, la_4ch):
        if len(sax) < 3:
            raise ValueError("the short-axis stack needs at least 3 slices")
        normal = sax[0].normal
        positions = []
        for p in sax:
            if np.linalg.norm(np.cross(p.normal, normal)) > 1e-9:
                raise ValueError("short-axis slices must be parallel")
            if p.shape != sax[0].shape:
                raise ValueError(
                    f"short-axis slice {p.plane_id} is {p.shape}, not {sax[0].shape}"
                )
            positions.append(p.origin @ normal)
        if not np.all(np.diff(positions) > 0):
            raise ValueError("short-axis slices must be ordered along the normal")
        for p in [*sax, la_2ch, la_4ch]:
            if p.n_frames != sax[0].n_frames:
                raise ValueError(
                    f"plane {p.plane_id} has {p.n_frames} frames, not {sax[0].n_frames}"
                )
        self.sax = list(sax)
        self.la_2ch = la_2ch
        self.la_4ch = la_4ch

    def planes(self):
        return self.sax + [self.la_2ch, self.la_4ch]

    @property
    def n_frames(self):
        return self.sax[0].n_frames

    lines = cached_property(_Lines)  # built on first use: only displacements change


def intersection_samples(a, b):
    """Points along the intersection line of two planes, clipped to both
    image rectangles and sampled at the smaller pixel spacing.

    Every returned point projects inside [0, W) x [0, H) of both planes.  An
    empty array is returned when the clipped segments do not overlap.
    """
    na = a.normal
    nb = b.normal
    direction = np.cross(na, nb)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        raise ValueError("planes are parallel: no intersection line")
    direction = direction / norm
    mat = np.stack([na, nb, direction])
    rhs = np.array([na @ a.origin, nb @ b.origin, 0.0])
    q0 = np.linalg.solve(mat, rhs)

    s_min, s_max = -np.inf, np.inf
    for plane in (a, b):
        h, w = plane.shape
        for axis, size, spacing in zip((plane.axis_u, plane.axis_v), (w, h), plane.pixel_spacing):
            c0 = (q0 - plane.origin) @ axis / spacing
            slope = direction @ axis / spacing
            if abs(slope) < 1e-12:
                if not (0.0 <= c0 <= size - 1):
                    return np.zeros((0, 3))
                continue
            lo = (0.0 - c0) / slope
            hi = (size - 1 - c0) / slope
            s_min = max(s_min, min(lo, hi))
            s_max = min(s_max, max(lo, hi))
    if not np.isfinite(s_min) or not np.isfinite(s_max) or s_min > s_max:
        return np.zeros((0, 3))
    step = min(min(a.pixel_spacing), min(b.pixel_spacing))
    count = int(np.floor((s_max - s_min) / step)) + 1
    s = s_min + step * np.arange(count)
    return q0 + s[:, None] * direction


def _slice(plane, shift, gradient=False):
    """``_bilinear`` of a whole slice shifted by ``shift`` = (x, y) pixels."""
    cols, rows = np.arange(plane.shape[1]) + shift[0], np.arange(plane.shape[0])[:, None]
    return _bilinear(plane.image, cols, rows + shift[1], gradient)


def _value(views, shift):
    """Sum of |r| at the (P, 2) pixel ``shift``, and the residuals r: first
    ``Ia - Ib`` on each pair line (T, N), then half the through-stack second
    difference at each inner short-axis slice (T, H, W)."""
    lines = views.lines
    vals = _bilinear(lines, *lines.pixels(shift))
    sampled = [_slice(p, s) for p, s in zip(views.sax, shift)]
    residuals = [vals[:, a] - vals[:, b] for _, _, a, b in lines.pairs] + [
        0.5 * (sampled[d - 1] + sampled[d + 1]) - sampled[d] for d in range(1, len(sampled) - 1)
    ]
    # one pairwise sum per residual, added in this order: the order fixes the rounding
    return sum(np.abs(residual).ravel().sum() for residual in residuals), residuals


def _jacobian(views, shift, residuals):
    """The (P, 2) sign subgradient of the sum of |r| and the (2P, 2P) IRLS
    normal matrix ``J^T diag(1 / max(|r|, IRLS_FLOOR)) J`` (Holland & Welsch
    1977) at the (P, 2) pixel ``shift``, given ``_value``'s residuals there.
    Each row of J is taken from ``_bilinear`` derivative taps."""
    planes = views.planes()
    grad = np.zeros(2 * len(planes))
    normal = np.zeros((len(grad), len(grad)))

    def add(residual, rows, coef, taps):
        # plane rows[k] moves the residual by coef[k] * its (x, y) taps[k]
        size = np.abs(residual).ravel()
        jac = taps.reshape(2 * len(rows), -1)
        coef = np.repeat(coef, 2)
        cols = [2 * k + axis for k in rows for axis in (0, 1)]
        grad[cols] += coef * (jac @ np.sign(residual).ravel())
        block = (jac / np.maximum(size, IRLS_FLOOR)) @ jac.T
        normal[np.ix_(cols, cols)] += np.outer(coef, coef) * block

    lines = views.lines
    dx, dy = _bilinear(lines, *lines.pixels(shift), gradient=True)
    for (i, j, a, b), residual in zip(lines.pairs, residuals):
        add(residual, (i, j), (1.0, -1.0), np.array([dx[:, a], dy[:, a], dx[:, b], dy[:, b]]))
    # (S, 2, T, H, W): three consecutive slices' taps are one contiguous view
    taps = np.empty((len(views.sax), 2) + residuals[-1].shape)
    for k, (p, s) in enumerate(zip(views.sax, shift)):
        taps[k, 0], taps[k, 1] = _slice(p, s, gradient=True)
    for d, residual in enumerate(residuals[len(lines.pairs) :], 1):
        add(residual, (d - 1, d, d + 1), (0.5, -1.0, 0.5), taps[d - 1 : d + 2])
    return grad.reshape(-1, 2), normal


def mc_objective(views):
    """Multi-view alignment objective and its displacement gradients.

    Value: frame-averaged sum of absolute intensity differences along the
    long-axis/long-axis and short-axis/long-axis intersections, plus half the
    absolute through-stack second difference of the short-axis slices over
    all pixels, at the planes' own displacements.  Returns the value and the
    (P, 2) gradient in mm, one row per plane in ``views.planes()`` order.
    Gradients use bilinear derivatives with the sign subgradient of the
    absolute value (zero at ties).
    """
    planes = views.planes()
    spacing = np.array([p.pixel_spacing for p in planes])
    shift = np.array([p.displacement for p in planes]) / spacing
    total, residuals = _value(views, shift)
    grad, _ = _jacobian(views, shift, residuals)
    # chain rule through shift = displacement / spacing, per plane
    return total / views.n_frames, grad / spacing / views.n_frames


def mc_optimize(views, epochs, lr=None):
    """Minimise the alignment objective by Levenberg-Marquardt rounds: solve
    ``(H + mu diag H) step = -g`` (:func:`_jacobian`), keep the step only if
    it lowers the objective, and stop at a kept step that lowers it by less
    than ``REL_TOL`` of its value (Madsen, Nielsen & Tingleff 2004), at a step
    that moves no plane by ``STEP_TOL_PX`` or after ``epochs`` rounds.  Trials
    are scored by their value alone (:func:`_value`), so g and H are built
    only at the start and at kept steps that go on.  ``lr`` is ignored.
    Returns the displacements per plane id (also set on the planes) and the
    trace: the starting objective, then the value tried in each round."""
    planes = views.planes()
    spacing = np.array([p.pixel_spacing for p in planes])
    shift = np.array([p.displacement for p in planes]) / spacing
    value, residuals = _value(views, shift)
    if not np.isfinite(value):
        raise RuntimeError("non-finite loss in motion correction")
    grad, normal = _jacobian(views, shift, residuals)
    trace = [value]
    mu = MU_START
    for _ in range(epochs):
        del residuals  # the previous point's; each trial samples its own
        system = normal + mu * np.diag(np.diag(normal))
        step = np.linalg.lstsq(system, -grad.ravel(), rcond=None)[0].reshape(-1, 2)
        if np.linalg.norm(step, axis=1).max() < STEP_TOL_PX:
            break
        trial, residuals = _value(views, shift + step)
        trace.append(trial)
        if trial < value:
            done = value - trial < REL_TOL * value
            shift, value, mu = shift + step, trial, mu / MU_DOWN
            if done:
                break
            grad, normal = _jacobian(views, shift, residuals)
        else:
            mu *= MU_UP
    best = shift * spacing
    for p, d in zip(planes, best):
        p.displacement = d.copy()
    return {p.plane_id: d.copy() for p, d in zip(planes, best)}, np.array(trace) / views.n_frames


def eval_intersections(views):
    """Consistency metrics along all intersection lines.

    Pearson r over paired intensities always; mean per-label Dice over paired
    nearest-neighbour labels when every plane carries labels (omitted
    otherwise).
    """
    planes = views.planes()
    lines = views.lines
    x, y = lines.pixels(np.array([p.displacement for p in planes]) / [p.pixel_spacing for p in planes])
    ints = _bilinear(lines, x, y)
    out = {"pearson_r": pearson_r(*lines.sides(ints))}
    if all(p.label is not None for p in planes):
        _, h, w = lines.shape
        x = np.clip(np.rint(x).astype(np.int64), 0, w - 1)
        y = np.clip(np.rint(y).astype(np.int64), 0, h - 1)
        out["dice"] = _label_dice(*lines.sides(lines.take(y * w + x, "label")))
    return out


def _label_dice(la, lb):
    """Mean Dice over all foreground labels present in either sample."""
    labels = np.union1d(la, lb)
    scores = [dice(la, lb, lab) for lab in labels[labels != 0]]
    return float(np.mean(scores)) if scores else 1.0

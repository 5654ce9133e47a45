"""In-plane misalignment correction for multi-view slice stacks.

Each slice plane owns a continuous in-plane displacement (mm).  The
objective sums absolute intensity differences along every pair of
plane-plane intersection lines plus a through-stack Laplacian smoothness
term over the short-axis slices.  Each residual is a bilinear sample, so all
displacements are solved jointly by damped Gauss-Newton on the IRLS normal
system of the absolute residuals (Lucas-Kanade with an L1 penalty; Baker &
Matthews 2004): no step size.  In the solve the displacements are one (P, 2)
array, rows in ``ViewSet.planes()`` order.  One residual pass
(``_linearise``) over one broadcasting sampler (``_bilinear``) serves the
intersection lines (``ViewSet.pairs``, built once per view set) and whole
short-axis slices, each shifted by one sub-pixel offset."""

import warnings
from functools import cached_property

import numpy as np

from .objectives import dice, pearson_r

IRLS_FLOOR = 1e-3  # IRLS weight 1 / max(|r|, IRLS_FLOOR)
MU_START, MU_DOWN, MU_UP = 1e-3, 3.0, 10.0  # Levenberg-Marquardt damping
STEP_TOL_PX = 1e-4  # a round whose step moves no plane this far ends the solve


class SlicePlane:
    """One 2-D+t slice with its in-plane displacement parameter.

    The pixel (x, y) = (column, row) sits at world position
    ``origin + x * du * axis_u + y * dv * axis_v``; images are indexed
    ``image[t, y, x]``.  The displacement starts at zero, is in mm and is
    applied continuously: the corrected image samples the stored one at
    ``(x + dx/du, y + dy/dv)``.
    """

    def __init__(
        self, origin, axis_u, axis_v, pixel_spacing, image, label=None,
        plane_id="plane",
    ):
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

    def displaced_pixels(self, pix):
        return pix + self.displacement / np.array(self.pixel_spacing)


def _bilinear(image, px, py):
    """Border-clamped bilinear sample of (T, H, W) at pixel coords px, py.

    ``px`` and ``py`` broadcast against each other: two (N,) arrays sample N
    points, and (W,) with (H, 1) samples a whole (H, W) grid.  Returns the
    values and the x and y derivatives, each of shape (T,) + the broadcast
    shape.  The sampled function is constant beyond the border, so the
    derivative along a clamped coordinate is zero.
    """
    _, h, w = image.shape
    cx = np.clip(px, 0.0, w - 1.0)
    cy = np.clip(py, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(cx).astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(np.floor(cy).astype(np.int64), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = cx - x0
    fy = cy - y0
    gx = 1 - fx
    gy = 1 - fy
    # weights and masks meet the (T, ...) taps only after their own product
    mx = cx == px
    my = cy == py
    flat = image.reshape(len(image), -1)
    i00, i01, i10, i11 = (
        np.take(flat, y * w + x, axis=1)
        for y, x in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))
    )
    vals = i00 * (gx * gy) + i01 * (fx * gy) + i10 * (gx * fy) + i11 * (fx * fy)
    dx = (i01 - i00) * (mx * gy) + (i11 - i10) * (mx * fy)
    dy = (i10 - i00) * (my * gx) + (i11 - i01) * (my * fx)
    return vals, dx, dy


def _sample_nearest_label(plane, pix):
    h, w = plane.shape
    dp = plane.displaced_pixels(pix)
    x = np.clip(np.rint(dp[:, 0]).astype(np.int64), 0, w - 1)
    y = np.clip(np.rint(dp[:, 1]).astype(np.int64), 0, h - 1)
    return plane.label[:, y, x]


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

    @cached_property
    def pairs(self):
        """(index a, index b, undisplaced pixels (N, 2) on a, on b) for every
        intersecting long/long and short/long pair, indices into ``planes()``.
        Built once: a plane's geometry does not change, only its displacement."""
        planes = self.planes()
        n = len(self.sax)
        index_pairs = [(n, n + 1)] + [(d, n + k) for d in range(n) for k in (0, 1)]
        out = []
        for i, j in index_pairs:
            a, b = planes[i], planes[j]
            pts = intersection_samples(a, b)
            if len(pts) == 0:
                warnings.warn(
                    f"empty intersection between {a.plane_id} and {b.plane_id}; "
                    "term contributes 0"
                )
                continue
            out.append((i, j, a.world_to_pixels(pts), b.world_to_pixels(pts)))
        return out


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


def _linearise(views, shift):
    """Sum of |r|, its (P, 2) sign subgradient and the (2P, 2P) IRLS normal
    matrix ``J^T diag(1 / max(|r|, IRLS_FLOOR)) J`` (Holland & Welsch 1977) at
    the (P, 2) pixel ``shift``.  The residuals are ``Ia - Ib`` on the pair
    lines and half the through-stack second difference, each row of J taken
    from the same ``_bilinear`` taps."""
    planes = views.planes()
    total = 0.0
    grad = np.zeros(2 * len(planes))
    normal = np.zeros((len(grad), len(grad)))

    def add(residual, rows, coef, taps):
        # plane rows[k] moves the residual by coef[k] * its (x, y) taps[k]
        nonlocal total
        size = np.abs(residual).ravel()
        jac = taps.reshape(2 * len(rows), -1)
        coef = np.repeat(coef, 2)
        cols = [2 * k + axis for k in rows for axis in (0, 1)]
        total += size.sum()
        grad[cols] += coef * (jac @ np.sign(residual).ravel())
        block = (jac / np.maximum(size, IRLS_FLOOR)) @ jac.T
        normal[np.ix_(cols, cols)] += np.outer(coef, coef) * block

    for i, j, pix_a, pix_b in views.pairs:
        va, *da = _bilinear(planes[i].image, *(pix_a + shift[i]).T)
        vb, *db = _bilinear(planes[j].image, *(pix_b + shift[j]).T)
        add(va - vb, (i, j), (1.0, -1.0), np.array(da + db))
    sampled = [
        _bilinear(p.image, np.arange(p.shape[1]) + x, np.arange(p.shape[0])[:, None] + y)
        for p, (x, y) in zip(views.sax, shift)
    ]
    # (S, 2, T, H, W): three consecutive slices' taps are one contiguous view
    taps = np.array([s[1:] for s in sampled])
    for d in range(1, len(sampled) - 1):
        second = 0.5 * (sampled[d - 1][0] + sampled[d + 1][0]) - sampled[d][0]
        add(second, (d - 1, d, d + 1), (0.5, -1.0, 0.5), taps[d - 1 : d + 2])
    return total, grad.reshape(-1, 2), normal


def mc_objective(views, displacements=None):
    """Multi-view alignment objective and its displacement gradients.

    Value: frame-averaged sum of absolute intensity differences along the
    long-axis/long-axis and short-axis/long-axis intersections, plus half the
    absolute through-stack second difference of the short-axis slices over
    all pixels.  ``displacements`` is a (P, 2) array in mm, one row per plane
    in ``views.planes()`` order; it defaults to the planes' own.  Returns the
    value and the (P, 2) gradient in the same order.  Gradients use bilinear
    derivatives with the sign subgradient of the absolute value (zero at
    ties).
    """
    planes = views.planes()
    if displacements is None:
        displacements = [p.displacement for p in planes]
    spacing = np.array([p.pixel_spacing for p in planes])
    total, grad, _ = _linearise(views, np.asarray(displacements, dtype=np.float64) / spacing)
    # chain rule through shift = displacement / spacing, per plane
    return total / views.n_frames, grad / spacing / views.n_frames


def mc_optimize(views, lr=None, epochs=1000):
    """Minimise the alignment objective by Levenberg-Marquardt rounds: solve
    ``(H + mu diag H) step = -g`` (:func:`_linearise`), keep the step only if
    it lowers the objective, and stop once a step moves no plane by
    ``STEP_TOL_PX`` or after ``epochs`` rounds.  ``lr`` is ignored; it is
    kept only for existing callers.  Returns the displacements per plane id
    (also set on the planes) and the trace: the starting objective, then the
    value tried in each round."""
    planes = views.planes()
    spacing = np.array([p.pixel_spacing for p in planes])
    shift = np.array([p.displacement for p in planes]) / spacing
    value, grad, normal = _linearise(views, shift)
    if not np.isfinite(value):
        raise RuntimeError("non-finite loss in motion correction")
    trace = [value]
    mu = MU_START
    for _ in range(epochs):
        system = normal + mu * np.diag(np.diag(normal))
        step = np.linalg.lstsq(system, -grad.ravel(), rcond=None)[0].reshape(-1, 2)
        if np.linalg.norm(step, axis=1).max() < STEP_TOL_PX:
            break
        trial = _linearise(views, shift + step)
        trace.append(trial[0])
        if trial[0] < value:
            shift, (value, grad, normal), mu = shift + step, trial, mu / MU_DOWN
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
    ints_a, ints_b = [], []
    labs_a, labs_b = [], []
    have_labels = all(p.label is not None for p in planes)
    for i, j, pix_a, pix_b in views.pairs:
        a, b = planes[i], planes[j]
        ints_a.append(_bilinear(a.image, *a.displaced_pixels(pix_a).T)[0].ravel())
        ints_b.append(_bilinear(b.image, *b.displaced_pixels(pix_b).T)[0].ravel())
        if have_labels:
            labs_a.append(_sample_nearest_label(a, pix_a).ravel())
            labs_b.append(_sample_nearest_label(b, pix_b).ravel())
    out = {"pearson_r": pearson_r(np.concatenate(ints_a), np.concatenate(ints_b))}
    if have_labels:
        la = np.concatenate(labs_a)
        lb = np.concatenate(labs_b)
        out["dice"] = _label_dice(la, lb)
    return out


def _label_dice(la, lb):
    """Mean Dice over all foreground labels present in either sample."""
    labels = np.union1d(la, lb)
    scores = [dice(la, lb, lab) for lab in labels[labels != 0]]
    return float(np.mean(scores)) if scores else 1.0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioshape.ffd import (
    ControlGrid,
    _basis,
    _basis_deriv,
    _cells_and_locals,
    bspline_basis,
    compose_warp,
    compose_warp_gradient,
    pull_back,
    warp_gradient,
    warp_jacobian,
    warp_points,
    weights,
)


def random_grid(rng, dims=(5, 5, 5), scale=0.05):
    g = ControlGrid(dims, origin=(-1, -1, -1), spacing=(0.5, 0.5, 0.5))
    g.displacements = rng.normal(0, scale, g.displacements.shape)
    return g


def _stencil(grid, points, deriv_axis=None):
    """Direct 4x4x4 stencil: per-axis support indices and weights."""
    cell, local, clamped = _cells_and_locals(grid, points)
    idx = [cell[:, ax, None] - 1 + np.arange(4) for ax in range(3)]
    w = []
    for ax in range(3):
        if ax == deriv_axis:
            dw = _basis_deriv(local[:, ax]) / grid.spacing[ax]
            dw[clamped[:, ax]] = 0.0
            w.append(dw)
        else:
            w.append(_basis(local[:, ax]))
    return idx, w


def stencil_field(grid, points, deriv_axis=None):
    """Reference: the displacement field (or one Jacobian column) summed
    over the 64 support terms of every point."""
    idx, w = _stencil(grid, points, deriv_axis)
    out = np.zeros((len(points), 3))
    d = grid.displacements
    for a in range(4):
        for b in range(4):
            for c in range(4):
                wk = w[0][:, a] * w[1][:, b] * w[2][:, c]
                out += wk[:, None] * d[idx[0][:, a], idx[1][:, b], idx[2][:, c]]
    return out


def stencil_gradient(grid, points, upstream):
    """Reference: the 64 support terms scattered into the control grid."""
    idx, w = _stencil(grid, points)
    grad = np.zeros_like(grid.displacements)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                wk = w[0][:, a] * w[1][:, b] * w[2][:, c]
                np.add.at(
                    grad,
                    (idx[0][:, a], idx[1][:, b], idx[2][:, c]),
                    wk[:, None] * upstream,
                )
    return grad


class TestBasis:
    def test_u0(self):
        w = bspline_basis(0.0)
        assert np.abs(w - [1 / 6, 2 / 3, 1 / 6, 0.0]).max() < 1e-12

    def test_u_near_one(self):
        w = bspline_basis(1.0 - 1e-12)
        assert np.abs(w - [0.0, 1 / 6, 2 / 3, 1 / 6]).max() < 1e-9

    def test_partition_of_unity_sweep(self):
        u = np.linspace(0.0, 1.0, 1000, endpoint=False)
        w = bspline_basis(u)
        assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-12

    def test_out_of_range(self):
        for bad in (-0.1, 1.0, 2.5):
            with pytest.raises(ValueError):
                bspline_basis(bad)


class TestWarp:
    def test_identity_with_zero_displacements(self):
        g = ControlGrid((6, 6, 8), origin=(-50, -50, -60), spacing=(20, 20, 20))
        pts = np.random.default_rng(0).uniform(-40, 40, (200, 3))
        assert np.abs(warp_points(g, pts) - pts).max() == 0.0

    def test_constant_displacement_is_translation(self):
        g = ControlGrid((6, 6, 8), origin=(-50, -50, -60), spacing=(20, 20, 20))
        g.displacements[:] = [1.5, -2.25, 0.75]
        rng = np.random.default_rng(1)
        # include points far outside the lattice: clamping keeps it exact
        pts = rng.uniform(-200, 200, (500, 3))
        out = warp_points(g, pts)
        assert np.abs(out - pts - [1.5, -2.25, 0.75]).max() < 1e-12

    def test_single_control_point_matches_brute_force(self):
        rng = np.random.default_rng(2)
        g = ControlGrid((6, 6, 6), origin=(0, 0, 0), spacing=(1, 1, 1))
        g.displacements[2, 3, 1] = rng.normal(0, 1, 3)
        pts = rng.uniform(0.5, 4.5, (100, 3))
        cell, local, _ = _cells_and_locals(g, pts)
        out_bf = pts.copy()
        # brute force over every control point
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    d = g.displacements[i, j, k]
                    if not d.any():
                        continue
                    for n in range(len(pts)):
                        a = i - (cell[n, 0] - 1)
                        b = j - (cell[n, 1] - 1)
                        c = k - (cell[n, 2] - 1)
                        if 0 <= a < 4 and 0 <= b < 4 and 0 <= c < 4:
                            w = (
                                _basis(local[n, 0])[a]
                                * _basis(local[n, 1])[b]
                                * _basis(local[n, 2])[c]
                            )
                            out_bf[n] += w * d
        assert np.abs(warp_points(g, pts) - out_bf).max() < 1e-12

    def test_locality_exact(self):
        rng = np.random.default_rng(3)
        g = ControlGrid((8, 8, 8), origin=(0, 0, 0), spacing=(1, 1, 1))
        pts = rng.uniform(1.0, 6.0, (2000, 3))
        base = warp_points(g, pts)
        g.displacements[4, 4, 4] = [1.0, 0.0, 0.0]
        moved = warp_points(g, pts)
        changed = np.abs(moved - base).max(axis=1) > 0
        # support of control point (4,4,4): cells with index in [2, 5]
        cell, _, _ = _cells_and_locals(g, pts)
        inside = np.all((cell >= 2) & (cell <= 5), axis=1)
        assert not np.any(changed & ~inside)

    def test_smoothness_of_straight_segment(self):
        rng = np.random.default_rng(4)
        g = random_grid(rng, dims=(7, 7, 7), scale=0.2)
        # stay inside the fully supported lattice region (no boundary clamp)
        t = np.linspace(-0.45, 1.45, 1000)
        pts = np.column_stack([t, np.full_like(t, 0.4), np.full_like(t, 0.8)])
        out = warp_points(g, pts)
        second = out[:-2] + out[2:] - 2 * out[1:-1]
        h = t[1] - t[0]
        # |f''| of a 1-D cubic B-spline curve is bounded by 4 max|d| / s^2
        bound = 4.0 * np.abs(g.displacements).max() * (h / g.spacing[0]) ** 2
        assert np.abs(second).max() <= bound * 1.0001


class TestWarpGradient:
    def test_zero_upstream(self):
        rng = np.random.default_rng(5)
        g = random_grid(rng)
        pts = rng.uniform(-0.5, 1.0, (50, 3))
        grad = warp_gradient(g, pts, np.zeros_like(pts))
        assert np.abs(grad).max() == 0.0

    def test_linearity_two_equal_points(self):
        g = ControlGrid((5, 5, 5), origin=(0, 0, 0), spacing=(1, 1, 1))
        pts = np.array([[1.5, 1.5, 1.5], [1.5, 1.5, 1.5]])
        up = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        grad_both = warp_gradient(g, pts, up)
        grad_a = warp_gradient(g, pts[:1], up[:1])
        grad_b = warp_gradient(g, pts[1:], up[1:])
        assert np.abs(grad_both - grad_a - grad_b).max() < 1e-15

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-4
        worst = 0.0
        for _ in range(20):
            g = random_grid(rng)
            pts = rng.uniform(-0.4, 0.9, (25, 3))
            up = rng.normal(0, 1, (25, 3))
            grad = warp_gradient(g, pts, up)
            gmax = np.abs(grad).max()
            flat_idx = rng.choice(g.displacements.size, 12, replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, g.displacements.shape)
                d_plus = g.displacements.copy()
                d_plus[idx] += h
                d_minus = g.displacements.copy()
                d_minus[idx] -= h
                gp = ControlGrid(g.dims, g.origin, g.spacing, d_plus)
                gm = ControlGrid(g.dims, g.origin, g.spacing, d_minus)
                fd = (
                    np.sum(warp_points(gp, pts) * up)
                    - np.sum(warp_points(gm, pts) * up)
                ) / (2 * h)
                if abs(fd) > 1e-3 * gmax:
                    worst = max(worst, abs(grad[idx] - fd) / abs(fd))
        assert worst < 1e-5


class TestCompose:
    def test_identity_chain(self):
        g1 = ControlGrid((4, 4, 4), origin=(0, 0, 0), spacing=(1, 1, 1))
        g2 = ControlGrid((5, 5, 5), origin=(0, 0, 0), spacing=(0.8, 0.8, 0.8))
        pts = np.random.default_rng(7).uniform(0, 2, (40, 3))
        assert np.abs(compose_warp([g1, g2], pts) - pts).max() == 0.0

    def test_translation_composition(self):
        g1 = ControlGrid((5, 5, 5), origin=(-2, -2, -2), spacing=(1, 1, 1))
        g2 = ControlGrid((6, 6, 6), origin=(-2, -2, -2), spacing=(0.9, 0.9, 0.9))
        g1.displacements[:] = [0.5, 0.0, -0.25]
        g2.displacements[:] = [0.125, 1.0, 0.5]
        pts = np.random.default_rng(8).uniform(-1, 1, (60, 3))
        out = compose_warp([g1, g2], pts)
        assert np.abs(out - pts - [0.625, 1.0, 0.25]).max() < 1e-12

    def test_equals_explicit_two_step(self):
        rng = np.random.default_rng(9)
        g1 = random_grid(rng)
        g2 = random_grid(rng, dims=(7, 7, 7))
        pts = rng.uniform(-0.5, 1.0, (80, 3))
        assert np.array_equal(
            compose_warp([g1, g2], pts), warp_points(g2, warp_points(g1, pts))
        )

    def test_gradient_through_composition(self):
        rng = np.random.default_rng(10)
        h = 1e-4
        g1 = random_grid(rng)
        g2 = random_grid(rng, dims=(7, 7, 7), scale=0.03)
        pts = rng.uniform(-0.4, 0.9, (30, 3))
        up = rng.normal(0, 1, (30, 3))
        grads, _ = compose_warp_gradient([g1, g2], pts, up)
        gmax = max(np.abs(g).max() for g in grads)

        def value(d1, d2):
            a = ControlGrid(g1.dims, g1.origin, g1.spacing, d1)
            b = ControlGrid(g2.dims, g2.origin, g2.spacing, d2)
            return np.sum(compose_warp([a, b], pts) * up)

        worst = 0.0
        for gi, ref in ((0, g1), (1, g2)):
            for fi in rng.choice(ref.displacements.size, 15, replace=False):
                idx = np.unravel_index(fi, ref.displacements.shape)
                d1p, d1m = g1.displacements.copy(), g1.displacements.copy()
                d2p, d2m = g2.displacements.copy(), g2.displacements.copy()
                (d1p if gi == 0 else d2p)[idx] += h
                (d1m if gi == 0 else d2m)[idx] -= h
                fd = (value(d1p, d2p) - value(d1m, d2m)) / (2 * h)
                if abs(fd) > 1e-3 * gmax:
                    worst = max(worst, abs(grads[gi][idx] - fd) / abs(fd))
        assert worst < 1e-5

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            compose_warp([], np.zeros((1, 3)))


class TestControlGridValidation:
    def test_dims_minimum(self):
        with pytest.raises(ValueError, match=">= 4"):
            ControlGrid((3, 4, 4), origin=(0, 0, 0), spacing=(1, 1, 1))

    def test_positive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            ControlGrid((4, 4, 4), origin=(0, 0, 0), spacing=(1, 0, 1))

    def test_for_box_covers_box(self):
        g = ControlGrid.for_box([-48, -48, -64], [48, 48, 64], (6, 6, 8))
        # box corners warp with full support: constant displacement exact
        g.displacements[:] = [1.0, 2.0, 3.0]
        corners = np.array(
            [[x, y, z] for x in (-48, 48) for y in (-48, 48) for z in (-64, 64)],
            dtype=float,
        )
        out = warp_points(g, corners)
        assert np.abs(out - corners - [1.0, 2.0, 3.0]).max() < 1e-12

    def test_default_fit_grid_dims_divide_volume(self):
        # the default lattice sizes are the 96 x 96 x 128 volume over
        # strides 16 / 8 / 4
        assert (96 // 16, 96 // 16, 128 // 16) == (6, 6, 8)
        assert (96 // 8, 96 // 8, 128 // 8) == (12, 12, 16)
        assert (96 // 4, 96 // 4, 128 // 4) == (24, 24, 32)


class TestWeightOperator:
    """The sparse operator against the direct stencil, inside the lattice and
    far outside it (the clamp path)."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(11)
        g = random_grid(rng, dims=(6, 7, 8), scale=0.3)
        inside = rng.uniform(-0.4, 1.4, (300, 3))
        outside = rng.uniform(-6.0, 6.0, (300, 3))
        return g, np.concatenate([inside, outside]), rng

    def test_warp_matches_stencil(self, case):
        g, pts, _ = case
        ref = pts + stencil_field(g, pts)
        assert np.abs(warp_points(g, pts) - ref).max() < 1e-12

    def test_gradient_matches_stencil(self, case):
        g, pts, rng = case
        up = rng.normal(0, 1, pts.shape)
        ref = stencil_gradient(g, pts, up)
        assert np.abs(warp_gradient(g, pts, up) - ref).max() < 1e-12

    def test_jacobian_matches_stencil(self, case):
        g, pts, _ = case
        jac = warp_jacobian(g, pts)
        for ax in range(3):
            ref = stencil_field(g, pts, deriv_axis=ax)
            assert np.abs(jac[:, :, ax] - ref).max() < 1e-12

    def test_pull_back_matches_jacobian(self, case):
        g, pts, rng = case
        up = rng.normal(0, 1, pts.shape)
        ref = up + np.einsum("nmk,nm->nk", warp_jacobian(g, pts), up)
        assert np.abs(pull_back(g, pts, up) - ref).max() < 1e-12

    def test_layout(self, case):
        g, pts, _ = case
        w = weights(g, pts)
        assert w.shape == (len(pts), int(np.prod(g.dims)))
        assert w.indices.dtype == np.int32 and w.indptr.dtype == np.int32
        assert np.all(np.diff(w.indptr) == 64)
        assert w.has_canonical_format
        assert np.abs(np.asarray(w.sum(axis=1)).ravel() - 1.0).max() < 1e-12

    def test_frames_batched_in_one_product(self, case):
        # lattices sharing a geometry and input points share one operator;
        # stacking their displacements as columns warps and back-propagates
        # every frame at once
        g, pts, rng = case
        n_frames = 4
        frames = [random_grid(rng, dims=g.dims, scale=0.3) for _ in range(n_frames)]
        w = weights(g, pts)
        stacked = np.stack([f.displacements.reshape(-1, 3) for f in frames], axis=1)
        moved = (w @ stacked.reshape(-1, 3 * n_frames)).reshape(-1, n_frames, 3)
        up = rng.normal(0, 1, (len(pts), n_frames, 3))
        grads = (w.T @ up.reshape(len(pts), -1)).reshape(-1, n_frames, 3)
        for t, f in enumerate(frames):
            assert np.abs(pts + moved[:, t] - warp_points(f, pts)).max() < 1e-12
            ref = warp_gradient(f, pts, up[:, t]).reshape(-1, 3)
            assert np.abs(grads[:, t] - ref).max() < 1e-12


class TestWarpProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(*[st.integers(4, 7)] * 3),
        reach=st.floats(0.5, 4.0),
    )
    def test_adjointness(self, seed, dims, reach):
        # <warp(D) - p, U> = <D, warp_gradient(U)>
        rng = np.random.default_rng(seed)
        g = random_grid(rng, dims=dims, scale=1.0)
        pts = rng.uniform(-reach, reach, (40, 3))
        up = rng.normal(0, 1, pts.shape)
        lhs = np.sum((warp_points(g, pts) - pts) * up)
        rhs = np.sum(g.displacements * warp_gradient(g, pts, up))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=25, deadline=None)
    @given(
        shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_constant_field_translates(self, shift, seed):
        g = ControlGrid((5, 6, 7), origin=(-3, -2, -1), spacing=(1.5, 1.0, 0.75))
        g.displacements[:] = shift
        pts = np.random.default_rng(seed).uniform(-20, 20, (50, 3))
        out = warp_points(g, pts)
        assert np.abs(out - pts - np.array(shift)).max() < 1e-12 * (1 + np.abs(shift).max())

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import cKDTree, distance_matrix
from scipy.spatial.transform import Rotation

from cardioshape import objectives, synth
from cardioshape.mesh import (
    STRUCTURES,
    ChamberSet,
    MeshSequence,
    TriMesh,
    _laplacian,
    _scatter_rows,
    accumulated_normals,
    edges_from_faces,
    graph_laplacian,
)
from cardioshape.objectives import (
    LabelledPoints,
    TargetClouds,
    curvature_loss,
    cycle_loss,
    dice,
    edge_loss,
    pearson_r,
    recon_loss,
    surface_distances,
    temporal_loss,
    total_loss,
)

from conftest import pooled, toy_sequence


@pytest.fixture(scope="module")
def small_pop():
    cfg = synth.SynthConfig(scale=0.02, n_frames=3, seed=5)
    return synth.synth_population(cfg, 1)


def fd_gradient_check(fn, seq, rng, n_probe=20, h=1e-4, tol=1e-5):
    """Central-difference check of d(value)/d(vertex) on random coordinates;
    ``fn(x, topology)`` is a loss on pooled coordinates."""
    x, topo = pooled(seq)
    _, grad = fn(x, topo)
    gmax = np.abs(grad).max()
    assert gmax > 0
    checked = 0
    worst = 0.0
    while checked < n_probe:
        s = STRUCTURES[rng.integers(5)]
        t = int(rng.integers(seq.n_frames))
        i = topo.rows[s].start + int(rng.integers(topo.counts[s]))
        k = int(rng.integers(3))
        perturbed = x.copy()
        perturbed[t, i, k] += h
        vp, _ = fn(perturbed, topo)
        perturbed[t, i, k] -= 2 * h
        vm, _ = fn(perturbed, topo)
        fd = (vp - vm) / (2 * h)
        if abs(fd) > 1e-3 * gmax:
            worst = max(worst, abs(grad[t, i, k] - fd) / abs(fd))
            checked += 1
    assert worst < tol


class TestReconLoss:
    def test_zero_at_self_targets(self, small_pop):
        seq = small_pop.sequences[0]
        value, grad = recon_loss(*pooled(seq), TargetClouds.from_sequence(seq))
        assert value == 0.0
        assert np.abs(grad).max() == 0.0

    def test_translated_targets_value(self):
        # shift well below the vertex spacing: every point matches its own
        # translated copy and both directions measure exactly d
        seq = toy_sequence(n_frames=1)
        d = 0.05
        targets = TargetClouds(
            [{s: seq.frames[0][s].vertices + [0, 0, d] for s in STRUCTURES}]
        )
        value, _ = recon_loss(*pooled(seq), targets)
        assert abs(value - 2 * d * len(STRUCTURES)) < 1e-12

    def test_matches_exhaustive_oracle(self, small_pop):
        rng = np.random.default_rng(0)
        seq = small_pop.sequences[0]
        targets = TargetClouds(
            [
                {
                    s: rng.normal(0, 30, (40, 3)) + fr[s].vertices.mean(axis=0)
                    for s in STRUCTURES
                }
                for fr in seq.frames
            ]
        )
        value, _ = recon_loss(*pooled(seq), targets)
        oracle = 0.0
        for t, fr in enumerate(seq.frames):
            for s in STRUCTURES:
                dm = distance_matrix(fr[s].vertices, targets.points(t, s))
                oracle += dm.min(axis=1).mean() + dm.min(axis=0).mean()
        assert abs(value - oracle / seq.n_frames) < 1e-12

    def test_gradient_fd(self, small_pop):
        rng = np.random.default_rng(1)
        seq = small_pop.sequences[0]
        targets = TargetClouds(
            [
                {s: fr[s].vertices + rng.normal(0, 2, fr[s].vertices.shape)
                 for s in STRUCTURES}
                for fr in seq.frames
            ]
        )
        fd_gradient_check(lambda x, topo: recon_loss(x, topo, targets), seq, rng)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            TargetClouds([{"LV-endo": np.zeros((0, 3))}])
        with pytest.raises(ValueError, match="frame 1"):
            TargetClouds([{"RV": np.zeros((2, 3))}, {"LA": np.zeros((2, 3))}])
        with pytest.raises(ValueError, match="finite"):
            TargetClouds([{"RV": np.array([[0.0, np.nan, 0.0]])}])


def match_oracle(verts, vert_labels, points, point_labels):
    """Value and vertex gradient of LabelledPoints.match from full distance
    matrices, one label at a time."""
    value = 0.0
    grad = np.zeros_like(verts)
    for k in np.unique(point_labels):
        vi = np.flatnonzero(vert_labels == k)
        pi = np.flatnonzero(point_labels == k)
        dm = distance_matrix(verts[vi], points[pi])
        value += dm.min(axis=1).mean() + dm.min(axis=0).mean()
        near_p = pi[dm.argmin(axis=1)]
        near_v = vi[dm.argmin(axis=0)]
        diff = verts[vi] - points[near_p]
        grad[vi] += diff / np.linalg.norm(diff, axis=1)[:, None] / len(vi)
        diff = verts[near_v] - points[pi]
        np.add.at(grad, near_v, diff / np.linalg.norm(diff, axis=1)[:, None] / len(pi))
    return value, grad


class TestLabelledPointsMatch:
    @pytest.mark.parametrize("origin", [0.0, 1e6])
    def test_matches_distance_matrix_oracle(self, origin):
        # labels 0, 2 and 4 only (1 and 3 absent); each label's points lie on
        # the vertices of the label before it, 40 mm from its own vertices,
        # so any match across labels would be far shorter than the true one
        rng = np.random.default_rng(16)
        base = {k: rng.normal(0, 5, (30 + 7 * k, 3)) for k in (0, 2, 4)}
        verts = np.concatenate([base[k] + [40.0 * k, 0, 0] for k in (0, 2, 4)])
        vert_labels = np.repeat([0, 2, 4], [len(base[k]) for k in (0, 2, 4)])
        points = np.concatenate(
            [verts[vert_labels == j][:20] + rng.normal(0, 0.1, (20, 3)) for j in (0, 2, 4)]
        )
        point_labels = np.repeat([2, 4, 0], 20)
        verts = verts + origin
        points = points + origin
        target = LabelledPoints(points, point_labels)
        value, grad = target.match(verts, vert_labels)
        ref_value, ref_grad = match_oracle(verts, vert_labels, points, point_labels)
        assert value > 30.0
        assert abs(value - ref_value) < 1e-12 * ref_value
        assert np.abs(grad - ref_grad).max() < 1e-12
        # the tree is reused while its spacing separates the blocks, and
        # rebuilt once the vertices spread further
        for factor, reused in ((1.01, True), (50.0, False)):
            moved = origin + factor * (verts - origin)
            old_tree = target.tree
            value, grad = target.match(moved, vert_labels)
            assert (target.tree is old_tree) == reused
            ref_value, ref_grad = match_oracle(moved, vert_labels, points, point_labels)
            assert abs(value - ref_value) < 1e-12 * ref_value
            assert np.abs(grad - ref_grad).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lattice=st.booleans(),
        moves=st.lists(
            st.sampled_from(["stay", "small", "jump", "relabel", "resize", "spread"]),
            min_size=1,
            max_size=8,
        ),
    )
    def test_kept_matching_equals_fresh_queries(self, seed, lattice, moves):
        # On a lattice every coordinate and step is a multiple of a power of
        # two, so distances are exact and many tie; some points are repeated.
        rng = np.random.default_rng(seed)

        def draw(shape, scale):
            if lattice:
                return rng.integers(-4, 5, shape) * (scale / 4)
            return rng.normal(0, scale, shape)

        def labelled(n):
            return np.concatenate([[0, 1, 2], rng.integers(0, 3, n - 3)])

        points = draw((int(rng.integers(3, 40)), 3), 2.0)
        points = np.concatenate([points, points[: len(points) // 3]])
        point_labels = labelled(len(points))
        verts = draw((int(rng.integers(3, 40)), 3), 2.0)
        vert_labels = labelled(len(verts))
        target = LabelledPoints(points, point_labels)
        for move in ["stay"] + moves:
            spacing = target.spacing
            if move == "small":
                verts = verts + draw(verts.shape, 0.5 if lattice else 0.02)
            elif move == "jump":
                verts = verts + draw(verts.shape, 8.0)
            elif move == "relabel":
                vert_labels = labelled(len(verts))
            elif move == "resize":
                verts = draw((int(rng.integers(3, 40)), 3), 2.0)
                vert_labels = labelled(len(verts))
            elif move == "spread":  # beyond the block spacing: a new tree
                verts = verts + (2.0 * spacing + 64.0)
            value, grad = target.match(verts, vert_labels)
            if move == "spread":
                assert target.spacing > spacing
            # the stateless reference: fresh one-nearest queries on the same tree
            blocked = objectives._blocked(verts, vert_labels, target.spacing)
            idx_vp = target.tree.query(blocked)[1]
            idx_pv = cKDTree(blocked).query(target.tree.data)[1]
            diff_vp = verts - points[idx_vp]
            d_vp = np.sqrt(np.einsum("ij,ij->i", diff_vp, diff_vp))
            diff_pv = verts[idx_pv] - points
            d_pv = np.sqrt(np.einsum("ij,ij->i", diff_pv, diff_pv))
            n_v = np.bincount(vert_labels)[vert_labels]
            n_p = np.bincount(point_labels)[point_labels]
            ref_grad = objectives._safe_unit(diff_vp, d_vp * n_v)
            ref_grad += _scatter_rows(
                idx_pv, [objectives._safe_unit(diff_pv, d_pv * n_p)], len(verts)
            )
            np.testing.assert_array_equal(target.vp, idx_vp)
            np.testing.assert_array_equal(target.pv, idx_pv)
            assert value == float(d_vp @ (1.0 / n_v) + d_pv @ (1.0 / n_p))
            np.testing.assert_array_equal(grad, ref_grad)

    def test_failed_call_keeps_no_state(self, monkeypatch):
        # the vertex side re-queries at `moved`, then the point side raises;
        # back near `verts`, a kept slack would certify stale neighbours
        rng = np.random.default_rng(3)
        points, verts = rng.normal(0, 2, (60, 3)), rng.normal(0, 2, (50, 3))
        p_labels, v_labels = np.zeros(60, dtype=int), np.zeros(50, dtype=int)
        target = LabelledPoints(points, p_labels)
        target.match(verts, v_labels)
        nearest = objectives._nearest

        def fail_second(tree, queries, margin):
            monkeypatch.setattr(objectives, "_nearest", None)
            return nearest(tree, queries, margin)

        monkeypatch.setattr(objectives, "_nearest", fail_second)
        with pytest.raises(TypeError):
            target.match(verts + rng.normal(0, 1.0, verts.shape), v_labels)
        monkeypatch.setattr(objectives, "_nearest", nearest)
        back = verts + rng.normal(0, 0.01, verts.shape)
        target.match(back, v_labels)
        fresh = LabelledPoints(points, p_labels)
        fresh.match(back, v_labels)
        np.testing.assert_array_equal(target.vp, fresh.vp)
        np.testing.assert_array_equal(target.pv, fresh.pv)

    def test_recon_rejects_a_subset_of_structures(self, small_pop):
        # targets for two structures: recon_loss names the three missing
        seq = small_pop.sequences[0]
        x, topo = pooled(seq)
        present = ("RV", "LV-endo")
        targets = TargetClouds([{s: fr[s].vertices for s in present} for fr in seq.frames])
        with pytest.raises(ValueError, match="lack LV-epi, LA, RA: .* all five structures"):
            recon_loss(x, topo, targets)


class TestEdgeLoss:
    def test_equal_edges_zero(self):
        seq = toy_sequence(n_frames=2)  # icospheres: not equal edges
        tri = TriMesh(
            [[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]], [[0, 1, 2]], "LV-endo"
        )
        seq = toy_sequence(n_frames=2, base=tri)
        value, _ = edge_loss(*pooled(seq))
        assert value < 1e-12

    def test_gradient_fd(self, small_pop):
        rng = np.random.default_rng(2)
        fd_gradient_check(edge_loss, small_pop.sequences[0], rng)


class TestCurvatureLoss:
    def test_template_repeated_is_zero(self, small_pop):
        template = small_pop.template
        seq = MeshSequence([template, template])
        value, _ = curvature_loss(*pooled(seq), small_pop.curvatures)
        assert value == 0.0

    def test_anticorrelated_term_is_two(self, small_pop):
        # flipping face orientation negates every curvature: r = -1 per term
        template = small_pop.template
        flipped = ChamberSet(
            {
                s: TriMesh(
                    template[s].vertices, template[s].faces[:, [0, 2, 1]], s
                )
                for s in STRUCTURES
            }
        )
        value, _ = curvature_loss(*pooled(MeshSequence([flipped])), small_pop.curvatures)
        assert abs(value - 2.0 * len(STRUCTURES)) < 1e-12

    def test_rigid_rotation_invariant(self, small_pop):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = small_pop.template.transformed(
            rotation=q, translation=np.array([4.0, 5.0, -6.0])
        )
        value, _ = curvature_loss(*pooled(MeshSequence([moved])), small_pop.curvatures)
        assert abs(value) < 1e-9

    def test_zero_variance_rejected(self, small_pop):
        template = small_pop.template
        flat = {s: np.zeros(template[s].n_vertices) for s in STRUCTURES}
        with pytest.raises(ValueError, match="zero-variance"):
            curvature_loss(*pooled(MeshSequence([template])), flat)

    def test_gradient_fd(self, small_pop):
        rng = np.random.default_rng(4)
        fd_gradient_check(
            lambda x, topo: curvature_loss(x, topo, small_pop.curvatures),
            small_pop.sequences[0],
            rng,
        )


class TestTemporalLoss:
    def test_static_zero(self):
        value, _ = temporal_loss(*pooled(toy_sequence(n_frames=3)))
        assert value == 0.0

    def test_unit_step_per_frame(self):
        seq = toy_sequence(n_frames=4, motion=lambda t: [float(t), 0, 0])
        value, _ = temporal_loss(*pooled(seq))
        assert abs(value - 1.0 * len(STRUCTURES)) < 1e-12

    def test_single_frame_is_zero(self):
        x, topo = pooled(toy_sequence(n_frames=1))
        value, grad = temporal_loss(x, topo)
        assert value == 0.0
        assert grad.shape == x.shape and not grad.any()

    def test_gradient_fd(self, small_pop):
        rng = np.random.default_rng(5)
        fd_gradient_check(temporal_loss, small_pop.sequences[0], rng)


class TestCycleLoss:
    def test_periodic_zero(self, small_pop):
        value, _ = cycle_loss(*pooled(small_pop.sequences[0]))
        assert value == 0.0

    def test_shifted_last_frame(self):
        seq = toy_sequence(
            n_frames=3, motion=lambda t: [0, 2.0 if t == 2 else 0.0, 0]
        )
        value, _ = cycle_loss(*pooled(seq))
        assert abs(value - 2.0 * len(STRUCTURES)) < 1e-12

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(6)
        seq = toy_sequence(n_frames=3, motion=lambda t: rng.normal(size=3))
        value, _ = cycle_loss(*pooled(seq))
        oracle = sum(
            np.sqrt(
                ((seq.frames[-1][s].vertices - seq.frames[0][s].vertices) ** 2).sum(
                    axis=1
                )
            ).mean()
            for s in STRUCTURES
        )
        assert abs(value - oracle) < 1e-12

    def test_gradient_fd(self):
        rng = np.random.default_rng(7)
        seq = toy_sequence(n_frames=3, motion=lambda t: rng.normal(size=3))
        fd_gradient_check(cycle_loss, seq, rng)


class TestTotalLoss:
    def test_recon_plus_weighted_terms(self, small_pop):
        seq = small_pop.sequences[0]
        rng = np.random.default_rng(8)
        targets = TargetClouds(
            [
                {s: fr[s].vertices + rng.normal(0, 1, fr[s].vertices.shape)
                 for s in STRUCTURES}
                for fr in seq.frames
            ]
        )
        curv = small_pop.curvatures
        terms = {
            "edge": (objectives.LAMBDA_EDGE, edge_loss, ()),
            "curv": (objectives.LAMBDA_CURV, curvature_loss, (curv,)),
            "temp": (objectives.LAMBDA_TEMP, temporal_loss, ()),
            "cycle": (objectives.LAMBDA_CYCLE, cycle_loss, ()),
        }
        single = MeshSequence(seq.frames[:1])
        for frames, clouds in ((seq, targets), (single, targets.frame(0))):
            x, topo = pooled(frames)
            value, grad, parts = total_loss(x, topo, clouds, curv)
            # a single frame has every term, its temporal and cycle terms zero
            assert set(parts) == set(terms) | {"recon"}
            ref, ref_grad = recon_loss(x, topo, clouds)
            for name, (weight, fn, args) in terms.items():
                term, term_grad = fn(x, topo, *args)
                assert parts[name] == term
                ref += weight * term
                ref_grad += weight * term_grad
            assert abs(value - ref) < 1e-12
            assert np.abs(grad - ref_grad).max() < 1e-12

    def test_zero_weights_equals_recon(self, small_pop, monkeypatch):
        for name in ("LAMBDA_EDGE", "LAMBDA_CURV", "LAMBDA_TEMP", "LAMBDA_CYCLE"):
            monkeypatch.setattr(objectives, name, 0.0)
        seq = small_pop.sequences[0]
        rng = np.random.default_rng(8)
        targets = TargetClouds(
            [
                {s: fr[s].vertices + rng.normal(0, 1, fr[s].vertices.shape)
                 for s in STRUCTURES}
                for fr in seq.frames
            ]
        )
        total, _, _ = total_loss(*pooled(seq), targets, small_pop.curvatures)
        ref, _ = recon_loss(*pooled(seq), targets)
        assert total == ref

    def test_linear_in_edge_weight(self, small_pop, monkeypatch):
        for name in ("LAMBDA_CURV", "LAMBDA_TEMP", "LAMBDA_CYCLE"):
            monkeypatch.setattr(objectives, name, 0.0)
        seq = small_pop.sequences[0]
        targets = TargetClouds.from_sequence(seq)
        curv = small_pop.curvatures
        x, topo = pooled(seq)
        monkeypatch.setattr(objectives, "LAMBDA_EDGE", 0.5)
        v1, _, _ = total_loss(x, topo, targets, curv)
        monkeypatch.setattr(objectives, "LAMBDA_EDGE", 1.0)
        v2, _, _ = total_loss(x, topo, targets, curv)
        e, _ = edge_loss(x, topo)
        assert abs((v2 - v1) - 0.5 * e) < 1e-12

    def test_all_terms_nonnegative(self, small_pop):
        seq = small_pop.sequences[0]
        rng = np.random.default_rng(9)
        targets = TargetClouds(
            [
                {s: fr[s].vertices + rng.normal(0, 1, fr[s].vertices.shape)
                 for s in STRUCTURES}
                for fr in seq.frames
            ]
        )
        _, _, terms = total_loss(*pooled(seq), targets, small_pop.curvatures)
        assert all(v >= 0 for v in terms.values())


class TestSurfaceDistances:
    def test_identical_sets(self):
        a = np.random.default_rng(10).normal(size=(30, 3))
        sd = surface_distances(a, a.copy())
        assert sd["assd"] == 0.0 and sd["uni_assd_a_to_b"] == 0.0 and sd["hd90"] == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0, 5, (10, 3))
        b = rng.normal(0, 5, (10, 3))
        sd = surface_distances(a, b)
        dm = distance_matrix(a, b)
        pooled = np.concatenate([dm.min(axis=1), dm.min(axis=0)])
        assert abs(sd["assd"] - pooled.mean()) < 1e-12
        assert abs(sd["uni_assd_a_to_b"] - dm.min(axis=1).mean()) < 1e-12
        assert abs(sd["hd90"] - np.percentile(pooled, 90)) < 1e-12

    def test_translated_interior_uni(self):
        # grid far larger than the 3 mm shift: interior matches are exact
        xs, ys = np.meshgrid(np.arange(30, dtype=float), np.arange(30, dtype=float))
        a = np.column_stack([xs.ravel() * 10, ys.ravel() * 10, np.zeros(900)])
        b = a + [0, 0, 3.0]
        sd = surface_distances(a, b)
        assert abs(sd["uni_assd_a_to_b"] - 3.0) < 1e-12

    def test_hd90_monotone_under_dilation(self):
        # dilating the separation between disjoint sets increases every
        # pooled nearest-neighbour distance, hence the percentile
        rng = np.random.default_rng(12)
        a = rng.normal(size=(100, 3))
        prev = 0.0
        for gap in (10.0, 15.0, 20.0, 40.0):
            sd = surface_distances(a, a + [gap, 0, 0])
            assert sd["hd90"] >= prev - 1e-12
            prev = sd["hd90"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            surface_distances(np.zeros((0, 3)), np.zeros((3, 3)))


class TestDice:
    def test_identical(self):
        vol = np.zeros((4, 4, 4), dtype=int)
        vol[1:3, 1:3, 1:3] = 2
        assert dice(vol, vol.copy(), 2) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), dtype=int)
        b = np.zeros((4, 4, 4), dtype=int)
        a[0, 0, 0] = 1
        b[3, 3, 3] = 1
        assert dice(a, b, 1) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4, 1), dtype=int)
        b = np.zeros((4, 4, 1), dtype=int)
        a[0:2, :, :] = 1  # 8 voxels
        b[1:3, :, :] = 1  # 8 voxels, overlap 4
        assert dice(a, b, 1) == 0.5

    def test_both_empty_is_one(self):
        assert dice(np.zeros((2, 2)), np.zeros((2, 2)), 5) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            dice(np.zeros((2, 2)), np.zeros((3, 2)), 1)


class TestPearson:
    def test_self(self):
        x = np.random.default_rng(13).normal(size=50)
        assert pearson_r(x, x) == 1.0

    def test_negated(self):
        x = np.random.default_rng(14).normal(size=50)
        assert pearson_r(x, -x) == -1.0

    def test_textbook_formula(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        n = len(x)
        num = n * (x * y).sum() - x.sum() * y.sum()
        den = np.sqrt(n * (x**2).sum() - x.sum() ** 2) * np.sqrt(
            n * (y**2).sum() - y.sum() ** 2
        )
        assert abs(pearson_r(x, y) - num / den) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson_r(np.ones(10), np.arange(10.0))


class TestLossInvariances:
    """Properties that hold whatever the vertex-gradient scatter does: the
    shape terms ignore rigid motion of the whole sequence (their gradients
    rotate with it), and the data term ignores the order of target points."""

    @settings(max_examples=10, deadline=None)
    @given(
        angles=st.tuples(*[st.floats(-180.0, 180.0)] * 3),
        shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    )
    def test_shape_terms_rigid_invariant(self, small_pop, angles, shift):
        rot = Rotation.from_euler("xyz", angles, degrees=True).as_matrix()
        seq = small_pop.sequences[0]
        moved = MeshSequence(
            [fr.transformed(rotation=rot, translation=np.array(shift)) for fr in seq.frames]
        )
        terms = [
            edge_loss,
            lambda x, topo: curvature_loss(x, topo, small_pop.curvatures),
            temporal_loss,
            cycle_loss,
        ]
        x, topo = pooled(seq)
        x_m = pooled(moved)[0]
        for fn in terms:
            value, grad = fn(x, topo)
            value_m, grad_m = fn(x_m, topo)
            assert abs(value_m - value) <= 1e-9 * abs(value)
            gmax = np.abs(grad).max()
            assert np.abs(grad_m - grad @ rot.T).max() <= 1e-8 * gmax

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_recon_target_permutation_invariant(self, small_pop, seed):
        rng = np.random.default_rng(seed)
        seq = small_pop.sequences[0]
        frames = [
            {s: fr[s].vertices + rng.normal(0, 1.5, fr[s].vertices.shape) for s in STRUCTURES}
            for fr in seq.frames
        ]
        shuffled = [{s: rng.permutation(fr[s]) for s in STRUCTURES} for fr in frames]
        x, topo = pooled(seq)
        value, grad = recon_loss(x, topo, TargetClouds(frames))
        value_p, grad_p = recon_loss(x, topo, TargetClouds(shuffled))
        assert abs(value_p - value) <= 1e-12 * value
        for rows in topo.rows.values():
            g = grad[:, rows]
            assert np.abs(grad_p[:, rows] - g).max() <= 1e-12 * np.abs(g).max()


# Per-structure loop versions of the regularisers, kept as the reference the
# pooled one-pass-per-frame code is checked against.


def _ref_scatter_rows(index, rows, n):
    return np.stack(
        [np.bincount(index, weights=rows[:, k], minlength=n) for k in range(3)], axis=1
    )


def _ref_safe_unit(diff, dist):
    return np.divide(diff, dist[..., None], out=np.zeros_like(diff), where=dist[..., None] > 0)


def _ref_edges_from_faces(faces):
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def _ref_accumulated_normals(vertices, faces):
    v0, v1, v2 = (vertices[faces[:, k]] for k in range(3))
    cr = np.cross(v1 - v0, v2 - v0)
    m = np.zeros_like(vertices)
    for k in range(3):
        np.add.at(m, faces[:, k], cr)
    norm = np.linalg.norm(m, axis=1)
    return m, norm


def _ref_edge_loss(x, topology):
    T = len(x)
    grad = np.zeros_like(x)
    total = 0.0
    for s, rows in topology.rows.items():
        e = _ref_edges_from_faces(topology.faces[s])
        vi, vj = e[:, 0], e[:, 1]
        ends = np.concatenate([vi, vj])
        for t in range(T):
            verts = x[t, rows]
            diff = verts[vi] - verts[vj]
            lengths = np.linalg.norm(diff, axis=1)
            mean = lengths.mean()
            std = np.sqrt(np.mean((lengths - mean) ** 2))
            total += std
            if std > 0:
                coef = (lengths - mean) / (len(lengths) * std * T)
                pull = coef[:, None] * _ref_safe_unit(diff, lengths)
                grad[t, rows] += _ref_scatter_rows(
                    ends, np.concatenate([pull, -pull]), len(verts)
                )
    return total / T, grad


def _ref_pearson_and_grad(h, h0):
    hc = h - h.mean()
    h0c = h0 - h0.mean()
    nh = np.linalg.norm(hc)
    nh0 = np.linalg.norm(h0c)
    if nh == 0 or nh0 == 0:
        raise ValueError("zero-variance curvature field: correlation undefined")
    if np.array_equal(h, h0):
        return 1.0, np.zeros_like(hc)
    r = float(hc @ h0c / (nh * nh0))
    dr_dh = (h0c - r * (nh0 / nh) * hc) / (nh * nh0)
    return r, dr_dh


def _ref_curvature_loss(x, topology, template_curvatures):
    T = len(x)
    grad = np.zeros_like(x)
    total = 0.0
    for s, rows in topology.rows.items():
        faces = topology.faces[s]
        lap = _laplacian(_ref_edges_from_faces(faces), topology.counts[s])
        lap_t = lap.T.tocsr()
        corners = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])
        h0 = np.asarray(template_curvatures[s], dtype=np.float64)
        for t in range(T):
            verts = x[t, rows]
            m, mnorm = _ref_accumulated_normals(verts, faces)
            n = m / mnorm[:, None]
            lv = lap @ verts
            h = -0.5 * np.einsum("ij,ij->i", lv, n)
            r, dr_dh = _ref_pearson_and_grad(h, h0)
            total += 1.0 - r
            g_h = -dr_dh / T
            g_v = -0.5 * (lap_t @ (g_h[:, None] * n))
            q = -0.5 * g_h[:, None] * lv
            g_m = (q - (np.einsum("ij,ij->i", q, n))[:, None] * n) / mnorm[:, None]
            r_f = g_m[faces[:, 0]] + g_m[faces[:, 1]] + g_m[faces[:, 2]]
            v0 = verts[faces[:, 0]]
            u = verts[faces[:, 1]] - v0
            w = verts[faces[:, 2]] - v0
            g_u = np.cross(w, r_f)
            g_w = np.cross(r_f, u)
            g_v += _ref_scatter_rows(
                corners, np.concatenate([g_u, g_w, -(g_u + g_w)]), len(verts)
            )
            grad[t, rows] += g_v
    return total / T, grad


def _ref_temporal_loss(x, topology):
    T = len(x)
    grad = np.zeros_like(x)
    total = 0.0
    for rows in topology.rows.values():
        diff = x[1:, rows] - x[:-1, rows]
        dist = np.linalg.norm(diff, axis=2)
        total += dist.mean(axis=1).sum() / (T - 1)
        w = 1.0 / ((T - 1) * dist.shape[1])
        for t in range(T - 1):
            unit = _ref_safe_unit(diff[t], dist[t]) * w
            grad[t + 1, rows] += unit
            grad[t, rows] -= unit
    return total, grad


def _ref_cycle_loss(x, topology):
    grad = np.zeros_like(x)
    if len(x) < 2:
        return 0.0, grad
    total = 0.0
    for rows in topology.rows.values():
        diff = x[-1, rows] - x[0, rows]
        dist = np.linalg.norm(diff, axis=1)
        total += dist.mean()
        unit = _ref_safe_unit(diff, dist) / len(diff)
        grad[-1, rows] += unit
        grad[0, rows] -= unit
    return total, grad


class TestPooledMatchesLoops:
    """The pooled regularisers agree with the per-structure loops to 1e-12
    (value relative, gradient as max |difference| / max |gradient|): the
    per-structure sums are only taken in another order."""

    @staticmethod
    def noisy_moved(template, n_frames, seed):
        rng = np.random.default_rng(seed)
        frames = []
        for _ in range(n_frames):
            rot = Rotation.random(random_state=rng).as_matrix()
            moved = template.transformed(rotation=rot, translation=rng.normal(0, 20, 3))
            frames.append(moved.with_all_vertices(
                moved.all_vertices() + rng.normal(0, 0.3, (moved.total_vertices, 3))
            ))
        return MeshSequence(frames)

    @pytest.mark.parametrize("n_frames", [1, 4])
    def test_value_and_gradient_agree(self, small_pop, n_frames):
        seq = self.noisy_moved(small_pop.template, n_frames, seed=n_frames)
        x, topo = pooled(seq)
        pairs = [
            (edge_loss, _ref_edge_loss),
            (
                lambda x, t: curvature_loss(x, t, small_pop.curvatures),
                lambda x, t: _ref_curvature_loss(x, t, small_pop.curvatures),
            ),
            (cycle_loss, _ref_cycle_loss),
        ]
        if n_frames > 1:
            pairs.append((temporal_loss, _ref_temporal_loss))
        for fn, ref in pairs:
            value, grad = fn(x, topo)
            ref_value, ref_grad = ref(x, topo)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_accumulated_normals_bit_identical(self, small_pop):
        seq = self.noisy_moved(small_pop.template, 2, seed=0)
        for chambers in [small_pop.template, *seq.frames]:
            for s in STRUCTURES:
                mesh = chambers[s]
                m, norm = accumulated_normals(mesh.vertices, mesh.faces)
                ref_m, ref_norm = _ref_accumulated_normals(mesh.vertices, mesh.faces)
                assert np.array_equal(m, ref_m)
                assert np.array_equal(norm, ref_norm)

    def test_edges_and_pooled_laplacian(self, small_pop):
        topo = pooled(MeshSequence([small_pop.template]))[1]
        for s in STRUCTURES:
            faces = small_pop.template[s].faces
            assert np.array_equal(edges_from_faces(faces), _ref_edges_from_faces(faces))
        blocks = sparse.block_diag(
            [graph_laplacian(small_pop.template[s]) for s in STRUCTURES], format="csr"
        )
        lap = topo.laplacian
        assert lap.shape == blocks.shape
        assert (lap != blocks).nnz == 0

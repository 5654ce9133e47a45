import dataclasses

import numpy as np
import pytest

from cardioshape import fitting, mesh, optim, synth
from cardioshape.ffd import ControlGrid, warp_points
from cardioshape.fitting import FitConfig, extract_surface_points, fit_sequence
from cardioshape.mesh import STRUCTURES, MeshSequence
from cardioshape.objectives import TargetClouds, cycle_loss, recon_loss, surface_distances

from conftest import pooled


class TestExtractSurfacePoints:
    def test_single_voxel_six_faces(self):
        vol = np.zeros((3, 3, 3), dtype=int)
        vol[1, 1, 1] = 2
        pts = extract_surface_points(vol, 2, spacing=1.0)
        assert len(pts) == 6
        centers = pts - np.array([1.0, 1.0, 1.0])
        assert np.allclose(np.sort(np.abs(centers).max(axis=1)), 0.5)

    def test_block_2x2x2(self):
        vol = np.zeros((4, 4, 4), dtype=int)
        vol[1:3, 1:3, 1:3] = 1
        pts = extract_surface_points(vol, 1, spacing=1.0)
        assert len(pts) == 24

    def test_ball_area_estimate(self):
        r = 10
        n = 2 * r + 3
        idx = np.indices((n, n, n)).astype(float) - (n - 1) / 2
        vol = (np.sqrt((idx**2).sum(axis=0)) <= r).astype(int)
        pts = extract_surface_points(vol, 1, spacing=1.0)
        # face-center count approximates surface area / voxel-face area,
        # inflated by the staircase factor (~1.5 for a sphere)
        area = 4 * np.pi * r**2
        assert 1.2 * area < len(pts) < 1.8 * area

    def test_spacing_and_origin(self):
        vol = np.zeros((3, 3, 3), dtype=int)
        vol[1, 1, 1] = 1
        pts = extract_surface_points(vol, 1, spacing=(2.0, 2.0, 2.0), origin=(10, 0, 0))
        assert np.allclose(sorted(pts[:, 0]), [11, 12, 12, 12, 12, 13])

    def test_missing_label(self):
        with pytest.raises(ValueError, match="not present"):
            extract_surface_points(np.zeros((2, 2, 2), dtype=int), 3, 1.0)


@pytest.fixture(scope="module")
def self_reconstruction():
    cfg = synth.SynthConfig(scale=0.03, n_frames=4, seed=3)
    template, _ = synth.make_template(cfg)
    p0 = template.all_vertices()
    lo, hi = p0.min(axis=0) - 10, p0.max(axis=0) + 10
    rng = np.random.default_rng(7)
    coarse = ControlGrid.for_box(lo, hi, (6, 6, 8))
    coarse.displacements = rng.normal(0, 2.0, coarse.displacements.shape)
    base = warp_points(coarse, p0)
    fine = ControlGrid.for_box(lo, hi, (8, 8, 10))
    fine_disp = rng.normal(0, 1.5, fine.displacements.shape)
    counts = np.cumsum([template[s].n_vertices for s in STRUCTURES])[:-1]
    frames = []
    for t in range(cfg.n_frames):
        fine.displacements = fine_disp * np.sin(np.pi * t / (cfg.n_frames - 1)) ** 2
        warped = warp_points(fine, base)
        frames.append(
            {
                s: np.ascontiguousarray(c)
                for s, c in zip(STRUCTURES, np.split(warped, counts))
            }
        )
    targets = TargetClouds(frames)
    fit_cfg = FitConfig(
        dims_coarse=(6, 6, 8),
        dims_mid=(8, 8, 10),
        dims_fine=(10, 10, 12),
        iterations=120,
        lr=0.5,
    )
    result = fit_sequence(template, targets, fit_cfg)
    return template, targets, fit_cfg, result


class TestFitSequence:
    def test_recon_loss_drops_and_assd_small(self, self_reconstruction):
        template, targets, _, (seq, grids, trace) = self_reconstruction
        initial = MeshSequence([template] * targets.n_frames)
        r0, _ = recon_loss(*pooled(initial), targets)
        r1, _ = recon_loss(*pooled(seq), targets)
        assert r1 < 0.1 * r0
        worst = max(
            surface_distances(seq.frames[t][s].vertices, targets.points(t, s))[
                "assd"
            ]
            for t in range(targets.n_frames)
            for s in STRUCTURES
        )
        assert worst < 0.5

    def test_connectivity_preserved_exactly(self, self_reconstruction):
        template, targets, _, (seq, _, _) = self_reconstruction
        for frame in seq.frames:
            for s in STRUCTURES:
                assert frame[s].n_vertices == template[s].n_vertices
                assert np.array_equal(frame[s].faces, template[s].faces)

    def test_cycle_small_on_periodic_targets(self, self_reconstruction):
        _, _, _, (seq, _, _) = self_reconstruction
        value, _ = cycle_loss(*pooled(seq))
        assert value < 0.1

    def test_trace_stages(self, self_reconstruction):
        _, _, cfg, (_, grids, trace) = self_reconstruction
        stages = [t[0] for t in trace]
        assert stages.count("global") == cfg.iterations
        assert stages.count("frames") == cfg.iterations
        assert len(grids["fine"]) == 4

    def test_best_so_far_envelope(self, self_reconstruction):
        _, _, _, (_, _, trace) = self_reconstruction
        losses = np.array([t[2] for t in trace if t[0] == "frames"])
        envelope = np.minimum.accumulate(losses)
        assert (np.diff(envelope) <= 0).all()

    def test_deterministic(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=2, seed=9)
        template, _ = synth.make_template(cfg)
        targets = TargetClouds(
            [
                {s: template[s].vertices + [1.0, 0.5, -0.25] for s in STRUCTURES}
                for _ in range(2)
            ]
        )
        fit_cfg = FitConfig(
            dims_coarse=(4, 4, 4),
            dims_mid=(5, 5, 5),
            dims_fine=(6, 6, 6),
            iterations=30,
            lr=0.3,
        )
        t1 = fit_sequence(template, targets, fit_cfg)[2]
        t2 = fit_sequence(template, targets, fit_cfg)[2]
        assert [x[2] for x in t1] == [x[2] for x in t2]

    def test_rigid_target_reached(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=1, seed=9)
        template, _ = synth.make_template(cfg)
        rot = np.array(
            [
                [np.cos(0.1), -np.sin(0.1), 0],
                [np.sin(0.1), np.cos(0.1), 0],
                [0, 0, 1.0],
            ]
        )
        moved = template.transformed(rotation=rot, translation=np.array([4.0, -2, 3]))
        targets = TargetClouds(
            [{s: moved[s].vertices.copy() for s in STRUCTURES}]
        )
        fit_cfg = FitConfig(
            dims_coarse=(6, 6, 8),
            dims_mid=(8, 8, 10),
            dims_fine=(10, 10, 12),
            iterations=150,
            lr=0.5,
        )
        seq, _, _ = fit_sequence(template, targets, fit_cfg)
        r, _ = recon_loss(*pooled(seq), targets)
        # below one synthetic voxel across the summed structures
        assert r < cfg.voxel_size

    def test_missing_structure_rejected(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=1, seed=9)
        template, _ = synth.make_template(cfg)
        targets = TargetClouds([{"RV": template["RV"].vertices.copy()}])
        with pytest.raises(ValueError, match="five structures"):
            fit_sequence(template, targets, FitConfig(iterations=1))

    def test_noop_fit_keeps_small_loss(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=1, seed=9)
        template, _ = synth.make_template(cfg)
        targets = TargetClouds.from_sequence(MeshSequence([template]))
        fit_cfg = FitConfig(
            dims_coarse=(4, 4, 4),
            dims_mid=(5, 5, 5),
            dims_fine=(6, 6, 6),
            iterations=60,
            lr=0.1,
        )
        seq, _, trace = fit_sequence(template, targets, fit_cfg)
        r, _ = recon_loss(*pooled(seq), targets)
        assert r < 1e-2


@pytest.fixture(scope="module")
def tiny_fit_inputs():
    cfg = synth.SynthConfig(scale=0.02, n_frames=3, seed=9)
    pop = synth.synth_population(cfg, 1)
    fit_cfg = FitConfig(
        dims_coarse=(4, 4, 4), dims_mid=(5, 5, 5), dims_fine=(6, 6, 6), iterations=2
    )
    return pop.template, TargetClouds.from_sequence(pop.sequences[0]), fit_cfg


class TestFitLoops:
    @pytest.mark.parametrize("iterations", [1, 4])
    def test_three_operators_per_fit(self, tiny_fit_inputs, monkeypatch, iterations):
        # coarse and mid at the template, fine at the stage-1 mesh
        template, targets, fit_cfg = tiny_fit_inputs
        built = []
        weights = fitting.weights

        def counting_weights(grid, points, *args):
            built.append(grid.dims)
            return weights(grid, points, *args)

        monkeypatch.setattr(fitting, "weights", counting_weights)
        fit_cfg = dataclasses.replace(fit_cfg, iterations=iterations)
        fit_sequence(template, targets, fit_cfg)
        assert built == [fit_cfg.dims_coarse, fit_cfg.dims_mid, fit_cfg.dims_fine]

    def test_grids_reproduce_every_frame(self, self_reconstruction):
        template, targets, _, (seq, grids, _) = self_reconstruction
        p0 = template.all_vertices()
        # the global lattices are summed at the template vertices
        initial = warp_points(grids["coarse"], p0) + warp_points(grids["mid"], p0) - p0
        for t, fine in enumerate(grids["fine"]):
            fitted = seq.frames[t].all_vertices()
            assert np.abs(warp_points(fine, initial) - fitted).max() < 1e-9

    def test_stage1_gradient_matches_finite_differences(self, tiny_fit_inputs, monkeypatch):
        template, targets, fit_cfg = tiny_fit_inputs
        objectives = []
        descend = fitting.descend

        def capturing_descend(objective, params, *args):
            objectives.append((objective, params.size))
            return descend(objective, params, *args)

        monkeypatch.setattr(fitting, "descend", capturing_descend)
        fit_sequence(template, targets, fit_cfg)
        objective, size = objectives[0]
        n_coarse = 3 * np.prod(fit_cfg.dims_coarse)
        assert size == n_coarse + 3 * np.prod(fit_cfg.dims_mid)
        rng = np.random.default_rng(5)
        params = rng.normal(0.0, 0.5, size)
        _, grad = objective(params, 0)
        h = 1e-5
        # probes in both the coarse and the mid block
        probes = [rng.choice(n_coarse, 6), n_coarse + rng.choice(size - n_coarse, 6)]
        for i in np.concatenate(probes):
            step = np.zeros(size)
            step[i] = h
            fd = (objective(params + step, 0)[0] - objective(params - step, 0)[0]) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd)), (i, grad[i], fd)

    def test_meshes_built_only_for_the_result(self, tiny_fit_inputs, monkeypatch):
        template, targets, fit_cfg = tiny_fit_inputs
        built = []
        init = mesh.TriMesh.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[-1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(mesh.TriMesh, "__init__", counting_init)
        fit_sequence(template, targets, fit_cfg)
        assert len(built) == len(STRUCTURES) * targets.n_frames

    @pytest.mark.parametrize("stage, bad_step", [(1, 1), (2, 3)])
    def test_non_finite_coordinates_name_stage(
        self, tiny_fit_inputs, monkeypatch, stage, bad_step
    ):
        # Adam steps 1-2 belong to stage 1 and 3-4 to stage 2; the step after
        # a poisoned one warps to NaN coordinates at the next iteration
        template, targets, fit_cfg = tiny_fit_inputs
        step = optim.Adam.step
        calls = []

        def poisoned_step(self, params, grads):
            calls.append(1)
            out = step(self, params, grads)
            return out * np.nan if len(calls) == bad_step else out

        monkeypatch.setattr(optim.Adam, "step", poisoned_step)
        with pytest.raises(RuntimeError, match=f"stage {stage}, iteration 1"):
            fit_sequence(template, targets, fit_cfg)

import numpy as np
import pytest

from cardioshape import synth
from cardioshape.mesh import STRUCTURES, vectorize
from cardioshape.objectives import cycle_loss, surface_distances

from conftest import pooled


class TestSphereMeshes:
    def test_icosphere_counts(self):
        for subdiv, count in ((0, 12), (1, 42), (2, 162), (3, 642)):
            assert synth.icosphere(subdiv).n_vertices == count

    def test_fibonacci_exact_count_closed(self):
        for n in (100, 431, 614):
            mesh = synth.sphere_mesh(n)
            assert mesh.n_vertices == n
            assert mesh.is_closed()

    def test_fibonacci_outward_orientation(self):
        mesh = synth.sphere_mesh(200)
        from cardioshape.mesh import vertex_normals

        normals = vertex_normals(mesh)
        assert (np.einsum("ij,ij->i", normals, mesh.vertices) > 0).all()


class TestMakeTemplate:
    def test_default_small_scale_budget(self):
        cfg = synth.SynthConfig()
        template, _ = synth.make_template(cfg)
        assert template.total_vertices == 2703

    def test_full_scale_budget(self):
        assert sum(synth.FULL_SCALE_BUDGETS) == 27034
        assert synth.FULL_SCALE_BUDGETS == (6141, 6141, 5696, 4305, 4751)

    def test_endo_epi_correspondence(self):
        cfg = synth.SynthConfig(scale=0.05)
        template, _ = synth.make_template(cfg)
        assert template["LV-endo"].n_vertices == template["LV-epi"].n_vertices
        assert np.array_equal(template["LV-endo"].faces, template["LV-epi"].faces)
        gaps = np.linalg.norm(
            template["LV-epi"].vertices - template["LV-endo"].vertices, axis=1
        )
        assert abs(gaps.mean() - 8.0) < 0.5

    def test_all_structures_closed(self):
        cfg = synth.SynthConfig(scale=0.04)
        template, _ = synth.make_template(cfg)
        for s in STRUCTURES:
            assert template[s].is_closed()

    def test_curvatures_returned(self):
        cfg = synth.SynthConfig(scale=0.03)
        template, curv = synth.make_template(cfg)
        for s in STRUCTURES:
            assert curv[s].shape == (template[s].n_vertices,)


class TestSynthPopulation:
    def test_deterministic_per_seed(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=3, seed=42)
        a = synth.synth_population(cfg, 3)
        b = synth.synth_population(cfg, 3)
        assert np.array_equal(a.weights, b.weights)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(vectorize(sa), vectorize(sb))

    def test_cycle_consistent(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=5, seed=1)
        pop = synth.synth_population(cfg, 3)
        for seq in pop.sequences:
            value, _ = cycle_loss(*pooled(seq))
            assert value < 1e-9

    def test_zero_weight_subject_is_template_with_motion(self):
        cfg = synth.SynthConfig(
            scale=0.02, n_frames=4, seed=2, mode_amplitude=0.0, motion_jitter=0.0
        )
        pop = synth.synth_population(cfg, 1)
        for t, frame in enumerate(pop.sequences[0].frames):
            for s in STRUCTURES:
                v_tpl = pop.template[s].vertices
                center = v_tpl.mean(axis=0)
                factor = synth._motion_factor(s, t, cfg.n_frames, cfg.motion_amplitude)
                expected = center + factor * (v_tpl - center)
                assert np.abs(frame[s].vertices - expected).max() < 1e-9

    def test_attributes_present(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=2, seed=3)
        pop = synth.synth_population(cfg, 10)
        assert set(pop.attributes) >= {"group", "age", "sex"}
        assert len(pop.attributes["age"]) == 10


class TestVoxelize:
    def test_sphere_volume_fraction(self):
        from cardioshape.mesh import ChamberSet, TriMesh

        cfg = synth.SynthConfig(scale=0.03)
        template, _ = synth.make_template(cfg)
        sphere = synth.icosphere(3)
        meshes = dict(template.meshes)
        meshes["LV-endo"] = TriMesh(sphere.vertices * 10.0, sphere.faces, "LV-endo")
        meshes["LV-epi"] = TriMesh(sphere.vertices * 13.0, sphere.faces, "LV-epi")
        chambers = ChamberSet(meshes)
        geometry = synth.VolumeGeometry(
            origin=(-20.0, -20.0, -20.0), spacing=(1.0, 1.0, 1.0), dims=(41, 41, 41)
        )
        labels = synth.voxelize(
            ChamberSet(
                {
                    s: (
                        meshes[s]
                        if s in ("LV-endo", "LV-epi")
                        else TriMesh(
                            synth.icosphere(1).vertices * 2.0 + [15.0, 15.0, 15.0],
                            synth.icosphere(1).faces,
                            s,
                        )
                    )
                    for s in STRUCTURES
                }
            ),
            geometry,
        )
        count = int((labels == synth.STRUCTURE_LABELS["LV-endo"]).sum())
        analytic = 4.0 / 3.0 * np.pi * 10.0**3
        assert abs(count - analytic) / analytic < 0.02

    def test_empty_region_background(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=1, seed=4)
        pop = synth.synth_population(cfg, 1)
        geometry = synth.VolumeGeometry.default(2.0)
        labels = synth.voxelize(pop.sequences[0].frames[0], geometry)
        assert labels[0, 0, 0] == 0 and labels[-1, -1, -1] == 0

    def test_myocardium_is_epi_minus_endo(self):
        cfg = synth.SynthConfig(scale=0.03, n_frames=1, seed=5)
        pop = synth.synth_population(cfg, 1)
        geometry = synth.VolumeGeometry.default(2.0)
        labels = synth.voxelize(pop.sequences[0].frames[0], geometry)
        endo = synth.STRUCTURE_LABELS["LV-endo"]
        epi = synth.STRUCTURE_LABELS["LV-epi"]
        assert (labels == endo).sum() > 0 and (labels == epi).sum() > 0

    def test_roundtrip_with_surface_extraction(self):
        from cardioshape.fitting import extract_surface_points

        cfg = synth.SynthConfig(scale=0.05, n_frames=1, seed=6)
        pop = synth.synth_population(cfg, 1)
        geometry = synth.VolumeGeometry.default(2.0)
        labels = synth.voxelize(pop.sequences[0].frames[0], geometry)
        pts = extract_surface_points(
            labels,
            synth.STRUCTURE_LABELS["RV"],
            geometry.spacing,
            geometry.origin,
        )
        sd = surface_distances(pts, pop.sequences[0].frames[0]["RV"].vertices)
        assert sd["uni_assd_a_to_b"] < 2.0  # within one voxel

    def test_mesh_outside_bounds_rejected(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=1, seed=7)
        pop = synth.synth_population(cfg, 1)
        geometry = synth.VolumeGeometry(
            origin=(0.0, 0.0, 0.0), spacing=(1.0, 1.0, 1.0), dims=(4, 4, 4)
        )
        with pytest.raises(ValueError, match="outside"):
            synth.voxelize(pop.sequences[0].frames[0], geometry)


@pytest.fixture(scope="module")
def volume_setup():
    cfg = synth.SynthConfig(scale=0.04, n_frames=2, seed=8)
    pop = synth.synth_population(cfg, 1)
    geometry = synth.VolumeGeometry.default(2.0)
    labels = synth.voxelize_sequence(pop.sequences[0], geometry)
    texture = synth.make_texture(
        geometry.dims, np.random.Generator(np.random.Philox(1))
    )
    intensity = [
        synth.intensity_volume(labels[t], texture=texture) for t in range(2)
    ]
    specs = synth.default_view_specs(geometry, n_sax=4, pixel_spacing=2.0)
    return intensity, labels, geometry, specs


class TestSliceViews:

    def test_sigma_zero_no_injection(self, volume_setup):
        intensity, labels, geometry, specs = volume_setup
        rng = np.random.Generator(np.random.Philox(2))
        views, injected = synth.slice_views(
            intensity, labels, geometry, specs, 0.0, rng
        )
        assert all(np.abs(v).max() == 0.0 for v in injected.values())

    def test_default_sigma_is_two(self):
        assert synth.SynthConfig().displacement_sigma == 2.0

    def test_injected_statistics(self, volume_setup):
        intensity, labels, geometry, specs = volume_setup
        draws = []
        for trial in range(84):  # 84 view sets x 6 planes x 2 axes = 1008 draws
            rng = np.random.Generator(np.random.Philox(100 + trial))
            _, injected = synth.slice_views(
                intensity, labels, geometry, specs, 2.0, rng
            )
            draws.extend(float(x) for v in injected.values() for x in v)
        sd = np.std(draws)
        assert abs(sd - 2.0) / 2.0 < 0.1

    def test_views_have_labels_and_geometry(self, volume_setup):
        intensity, labels, geometry, specs = volume_setup
        rng = np.random.Generator(np.random.Philox(3))
        views, _ = synth.slice_views(intensity, labels, geometry, specs, 1.0, rng)
        assert len(views.sax) == 4
        for p in views.planes():
            assert p.label is not None
            assert p.image.shape == p.label.shape


class TestPlaneSection:
    def test_sphere_section_radius(self):
        sphere = synth.icosphere(3)
        pts = synth.plane_section(sphere, np.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert len(pts) > 10
        radii = np.linalg.norm(pts[:, :2], axis=1)
        assert np.abs(radii - 1.0).max() < 0.05
        assert np.abs(pts[:, 2]).max() < 1e-12

    def test_no_intersection_empty(self):
        sphere = synth.icosphere(2)
        pts = synth.plane_section(
            sphere, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 1.0])
        )
        assert pts.shape == (0, 3)

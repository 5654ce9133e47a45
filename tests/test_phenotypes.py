import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cardioshape import synth
from cardioshape.mesh import STRUCTURES, ChamberSet, MeshSequence, TriMesh
from cardioshape.phenotypes import (
    mesh_volume,
    phenotype_table,
    volume_curve,
    wall_thickness,
)

from conftest import cube_mesh


def scaled_cube(side):
    cube = cube_mesh()
    return cube.with_vertices(cube.vertices * side)


def contracted_frames(template, factors):
    frames = []
    for f in factors:
        meshes = {}
        for s in STRUCTURES:
            v = template[s].vertices
            c = v.mean(axis=0)
            meshes[s] = template[s].with_vertices(c + f * (v - c))
        frames.append(ChamberSet(meshes))
    return MeshSequence(frames)


@pytest.fixture(scope="module")
def template():
    cfg = synth.SynthConfig(scale=0.03, n_frames=2, seed=1)
    return synth.make_template(cfg)[0]


class TestMeshVolume:
    def test_unit_cube_10mm(self):
        assert abs(mesh_volume(scaled_cube(10.0)) - 1.0) < 1e-12

    def test_sphere_within_one_percent(self):
        sphere = synth.icosphere(4)
        mesh10 = sphere.with_vertices(sphere.vertices * 10.0)
        analytic = 4.0 / 3.0 * np.pi * 1000.0 * 1e-3
        assert abs(mesh_volume(mesh10) - analytic) / analytic < 0.01

    def test_translation_invariance(self):
        cube = scaled_cube(10.0)
        v0 = mesh_volume(cube)
        v1 = mesh_volume(cube.with_vertices(cube.vertices + [123.0, -45.0, 6.0]))
        assert abs(v1 - v0) / v0 < 1e-9

    def test_cubic_scaling(self):
        cube = scaled_cube(10.0)
        v0 = mesh_volume(cube)
        v3 = mesh_volume(cube.with_vertices(cube.vertices * 3.0))
        assert abs(v3 - 27.0 * v0) / (27 * v0) < 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cube = scaled_cube(10.0)
        v1 = mesh_volume(cube.with_vertices(cube.vertices @ q.T))
        assert abs(v1 - mesh_volume(cube)) / mesh_volume(cube) < 1e-9

    def test_open_mesh_rejected(self):
        tri = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "RV")
        with pytest.raises(ValueError, match="open"):
            mesh_volume(tri)


class TestVolumeCurve:
    def test_static_constant(self, template):
        seq = MeshSequence([template] * 3)
        curve = volume_curve(seq, "LV-endo")
        assert np.ptp(curve) == 0.0

    def test_prescribed_modulation(self, monkeypatch):
        monkeypatch.setattr(synth, "MOTION_JITTER", 0.0)
        cfg = synth.SynthConfig(scale=0.03, n_frames=8, seed=2)
        pop = synth.synth_population(cfg, 1)
        curve = volume_curve(pop.sequences[0], "LV-endo")
        factors = np.array(
            [
                synth._motion_factor("LV-endo", t, cfg.n_frames, synth.MOTION_AMPLITUDE)
                for t in range(cfg.n_frames)
            ]
        )
        expected = curve[0] * factors**3
        assert np.abs(curve - expected).max() / curve[0] < 0.02

    def test_periodic_endpoints(self):
        cfg = synth.SynthConfig(scale=0.03, n_frames=6, seed=3)
        pop = synth.synth_population(cfg, 1)
        curve = volume_curve(pop.sequences[0], "RV")
        assert abs(curve[0] - curve[-1]) < 1e-9

    def test_equals_per_frame_mesh_volume(self):
        seq = synth.synth_population(synth.SynthConfig(scale=0.03, n_frames=4, seed=4), 1).sequences[0]
        for s in STRUCTURES:
            assert np.array_equal(volume_curve(seq, s), [mesh_volume(fr[s]) for fr in seq.frames])

    def test_open_structure_named(self, template):
        rv = template["RV"]
        meshes = {s: template[s] for s in STRUCTURES}
        meshes["RV"] = TriMesh(rv.vertices, rv.faces[1:], "RV")
        seq = MeshSequence([ChamberSet(meshes)] * 3)
        with pytest.raises(ValueError, match=r"mesh RV is open \(3 boundary edges\)"):
            volume_curve(seq, "RV")
        assert volume_curve(seq, "LA").shape == (3,)


class TestPhenotypeTable:
    def test_static_sequence_zero_sv_ef(self, template):
        table = phenotype_table(MeshSequence([template] * 3))
        assert table.LVSV == 0.0 and table.LVEF == 0.0
        assert table.RASV == 0.0 and table.RAEF == 0.0

    def test_prescribed_ef(self, template):
        target = 40.0
        factor = (1.0 - target / 100.0) ** (1.0 / 3.0)
        phases = np.sin(np.pi * np.arange(5) / 4) ** 2
        seq = contracted_frames(template, 1.0 - (1.0 - factor) * phases)
        table = phenotype_table(seq)
        assert abs(table.LVEF - target) < 1.0

    def test_shell_mass(self, template):
        sphere = synth.icosphere(4)
        meshes = dict(template.meshes)
        meshes["LV-endo"] = TriMesh(sphere.vertices * 30.0, sphere.faces, "LV-endo")
        meshes["LV-epi"] = TriMesh(sphere.vertices * 40.0, sphere.faces, "LV-epi")
        shell = ChamberSet(meshes)
        table = phenotype_table(MeshSequence([shell] * 2))
        analytic = 1.05 * 4.0 / 3.0 * np.pi * (40.0**3 - 30.0**3) * 1e-3
        assert abs(table.LVM - analytic) / analytic < 0.02

    def test_rigid_invariance(self, template):
        phases = np.sin(np.pi * np.arange(4) / 3) ** 2
        seq = contracted_frames(template, 1.0 - 0.15 * phases)
        table = phenotype_table(seq)
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = MeshSequence(
            [
                fr.transformed(rotation=q, translation=np.array([9.0, -4.0, 2.0]))
                for fr in seq.frames
            ]
        )
        moved_table = phenotype_table(moved)
        for a, b in zip(table.as_row(), moved_table.as_row()):
            assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)

    def test_ef_below_100(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=6, seed=5)
        pop = synth.synth_population(cfg, 3)
        for seq in pop.sequences:
            t = phenotype_table(seq)
            for name in ("LVEF", "RVEF", "LAEF", "RAEF"):
                assert 0 <= getattr(t, name) < 100
            for name in ("LVSV", "RVSV", "LASV", "RASV"):
                assert getattr(t, name) >= 0

    def test_generator_ground_truth_ef(self, monkeypatch):
        # prescribed motion at zero jitter: EF = 1 - (1 - amplitude)^3; an odd
        # frame count puts the contraction peak exactly on a frame
        monkeypatch.setattr(synth, "MOTION_JITTER", 0.0)
        monkeypatch.setattr(synth, "MOTION_AMPLITUDE", 0.16)
        cfg = synth.SynthConfig(scale=0.03, n_frames=11, seed=6)
        pop = synth.synth_population(cfg, 2)
        expected = 100.0 * (1.0 - (1.0 - 0.16) ** 3)
        for seq in pop.sequences:
            table = phenotype_table(seq)
            assert abs(table.LVEF - expected) < 1.0


class TestWallThickness:
    def test_inflated_shell(self, template):
        from cardioshape.mesh import inflate_along_normals

        endo = template["LV-endo"]
        epi_mesh = inflate_along_normals(endo, 8.0)
        epi = TriMesh(epi_mesh.vertices, endo.faces, "LV-epi")
        d, summary = wall_thickness(endo, epi)
        assert abs(summary["mean"] - 8.0) / 8.0 < 0.05

    def test_equal_meshes_zero(self, template):
        endo = template["LV-endo"]
        epi = TriMesh(endo.vertices.copy(), endo.faces, "LV-epi")
        d, summary = wall_thickness(endo, epi)
        assert summary["max"] == 0.0

    def test_max_at_least_mean(self, template):
        d, summary = wall_thickness(template["LV-endo"], template["LV-epi"])
        assert summary["max"] >= summary["mean"]

    def test_count_mismatch(self, template):
        with pytest.raises(ValueError, match="equal vertex counts"):
            wall_thickness(template["LV-endo"], template["RV"])


class TestPhenotypeProperties:
    """Volume is cubic in a uniform scale, and ejection fractions ignore a
    rigid motion of the whole sequence."""

    @settings(max_examples=15, deadline=None)
    @given(scale=st.floats(0.05, 20.0), level=st.integers(0, 2))
    def test_volume_scales_as_cube(self, scale, level):
        sphere = synth.icosphere(level)
        v1 = mesh_volume(sphere.with_vertices(sphere.vertices * 10.0))
        vs = mesh_volume(sphere.with_vertices(sphere.vertices * (10.0 * scale)))
        assert abs(vs - scale**3 * v1) <= 1e-12 * scale**3 * v1

    @settings(max_examples=10, deadline=None)
    @given(
        angles=st.tuples(*[st.floats(-180.0, 180.0)] * 3),
        shift=st.tuples(*[st.floats(-200.0, 200.0)] * 3),
    )
    def test_ejection_fractions_rigid_invariant(self, template, angles, shift):
        phases = np.sin(np.pi * np.arange(4) / 3) ** 2
        seq = contracted_frames(template, 1.0 - 0.2 * phases)
        rot = Rotation.from_euler("xyz", angles, degrees=True).as_matrix()
        moved = MeshSequence(
            [fr.transformed(rotation=rot, translation=np.array(shift)) for fr in seq.frames]
        )
        table, moved_table = phenotype_table(seq), phenotype_table(moved)
        assert abs(moved_table.LVEF - table.LVEF) <= 1e-9 * table.LVEF
        assert abs(moved_table.RVEF - table.RVEF) <= 1e-9 * table.RVEF

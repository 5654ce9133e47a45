import numpy as np
import pytest

from cardioshape import io as cio
from cardioshape import synth
from cardioshape.mesh import vectorize
from cardioshape.objectives import TargetClouds
from cardioshape.ffd import ControlGrid
from cardioshape.ssm import ShapeModel, ipca_partial_fit


@pytest.fixture(scope="module")
def population():
    cfg = synth.SynthConfig(scale=0.02, n_frames=3, seed=9)
    return synth.synth_population(cfg, 4)


class TestObjSequences:
    def test_sequence_roundtrip_bit_exact(self, population, tmp_path):
        seq = population.sequences[0]
        cio.save_sequence(tmp_path / "subj", seq)
        back = cio.load_sequence(tmp_path / "subj")
        assert np.array_equal(vectorize(back), vectorize(seq))
        for s in back.frames[0]:
            assert np.array_equal(
                back.frames[0][s].faces, seq.frames[0][s].faces
            )

    def test_write_is_deterministic(self, population, tmp_path):
        seq = population.sequences[1]
        cio.save_sequence(tmp_path / "a", seq)
        cio.save_sequence(tmp_path / "b", seq)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(cio.ValidationError, match="manifest"):
            cio.load_sequence(tmp_path / "empty")


class TestVolumeFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(2, 5, 6, 7))
        geometry = synth.VolumeGeometry(
            origin=(-1.0, 0.0, 2.0), spacing=(1.0, 2.0, 1.5), dims=(5, 6, 7)
        )
        cio.save_volume(tmp_path / "v.bin", frames, geometry)
        back, geo = cio.load_volume(tmp_path / "v.bin")
        assert np.array_equal(back, frames)
        assert np.array_equal(geo.origin, geometry.origin)
        assert np.array_equal(geo.spacing, geometry.spacing)

    def test_label_volume_roundtrip(self, tmp_path):
        labels = np.arange(24, dtype=np.int16).reshape(1, 2, 3, 4)
        geometry = synth.VolumeGeometry(
            origin=(0, 0, 0), spacing=(1, 1, 1), dims=(2, 3, 4)
        )
        cio.save_volume(tmp_path / "l.bin", labels, geometry)
        back, _ = cio.load_volume(tmp_path / "l.bin")
        assert back.dtype == np.int16
        assert np.array_equal(back, labels)

    def test_truncated_payload_rejected(self, tmp_path):
        frames = np.zeros((1, 2, 2, 2))
        geometry = synth.VolumeGeometry(
            origin=(0, 0, 0), spacing=(1, 1, 1), dims=(2, 2, 2)
        )
        cio.save_volume(tmp_path / "v.bin", frames, geometry)
        raw = (tmp_path / "v.bin").read_bytes()
        (tmp_path / "bad.bin").write_bytes(raw[:-8])
        with pytest.raises(cio.ValidationError, match="payload"):
            cio.load_volume(tmp_path / "bad.bin")

    def test_garbage_header_rejected(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"not json\n123")
        with pytest.raises(cio.ValidationError, match="header"):
            cio.load_volume(tmp_path / "junk.bin")


class TestViewsFile:
    def test_roundtrip(self, population, tmp_path):
        geometry = synth.VolumeGeometry.default(2.0)
        labels = synth.voxelize_sequence(population.sequences[0], geometry)
        intensity = [synth.intensity_volume(l) for l in labels]
        specs = synth.default_view_specs(geometry, n_sax=3, pixel_spacing=3.0)
        rng = np.random.Generator(np.random.Philox(4))
        views, _ = synth.slice_views(intensity, labels, geometry, specs, 1.0, rng)
        cio.save_views(tmp_path / "views.bin", views)
        back = cio.load_views(tmp_path / "views.bin")
        assert len(back.sax) == 3
        for p0, p1 in zip(views.planes(), back.planes()):
            assert p0.plane_id == p1.plane_id
            assert np.array_equal(p0.image, p1.image)
            assert np.array_equal(p0.label, p1.label)
            assert np.array_equal(p0.origin, p1.origin)

    def test_incomplete_set_rejected(self, tmp_path):
        (tmp_path / "v.bin").write_bytes(b'{"planes":[]}\n')
        with pytest.raises(cio.ValidationError, match="incomplete"):
            cio.load_views(tmp_path / "v.bin")


class TestTargetClouds:
    def test_roundtrip(self, population, tmp_path):
        targets = TargetClouds.from_sequence(population.sequences[2])
        cio.save_target_clouds(tmp_path / "t.bin", targets)
        back = cio.load_target_clouds(tmp_path / "t.bin")
        assert back.n_frames == targets.n_frames
        for t in range(back.n_frames):
            for s in targets.structures():
                assert np.array_equal(back.points(t, s), targets.points(t, s))


class TestModelFile:
    def test_roundtrip(self, population, tmp_path):
        vectors = np.stack([vectorize(s) for s in population.sequences])
        topology = population.sequences[0].topology()
        model = ShapeModel(n_components=3, topology=topology)
        ipca_partial_fit(model, vectors)
        cio.save_model(tmp_path / "m.hssm", model, topology)
        back = cio.load_model(tmp_path / "m.hssm", population.sequences[0].frames[0])
        assert back.topology.digest() == topology.digest()
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.explained_variance, model.explained_variance)
        assert back.n_seen == model.n_seen
        assert back.sq_dev_total == model.sq_dev_total

    def test_bad_magic_rejected(self, population, tmp_path):
        vectors = np.stack([vectorize(s) for s in population.sequences])
        topology = population.sequences[0].topology()
        model = ShapeModel(n_components=2, topology=topology)
        ipca_partial_fit(model, vectors)
        cio.save_model(tmp_path / "m.hssm", model, topology)
        raw = bytearray((tmp_path / "m.hssm").read_bytes())
        raw[:4] = b"XXXX"
        (tmp_path / "bad.hssm").write_bytes(bytes(raw))
        with pytest.raises(cio.ValidationError, match="magic"):
            cio.load_model(tmp_path / "bad.hssm")

    def test_digest_mismatch_rejected(self, population, small_template, tmp_path):
        vectors = np.stack([vectorize(s) for s in population.sequences])
        topology = population.sequences[0].topology()
        model = ShapeModel(n_components=2, topology=topology)
        ipca_partial_fit(model, vectors)
        cio.save_model(tmp_path / "m.hssm", model, topology)
        other, _ = small_template  # another scale: other vertex counts
        assert other.total_vertices != topology.total_vertices
        with pytest.raises(cio.ValidationError, match="digest"):
            cio.load_model(tmp_path / "m.hssm", other)


class TestGridFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        grids = [
            ControlGrid(
                (4, 5, 6),
                origin=rng.normal(size=3),
                spacing=np.abs(rng.normal(size=3)) + 0.5,
                displacements=rng.normal(size=(4, 5, 6, 3)),
            )
            for _ in range(3)
        ]
        cio.save_grids(tmp_path / "g.bin", grids)
        back = cio.load_grids(tmp_path / "g.bin")
        assert len(back) == 3
        for g0, g1 in zip(grids, back):
            assert g0.dims == g1.dims
            assert np.array_equal(g0.displacements, g1.displacements)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "g.bin").write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(cio.ValidationError, match="grids"):
            cio.load_grids(tmp_path / "g.bin")


class TestCsv:
    def test_features_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(5, 4))
        cio.save_features_csv(tmp_path / "f.csv", values)
        ids, back = cio.load_features_csv(tmp_path / "f.csv")
        assert np.array_equal(back, values)  # %.17g round-trips float64

    def test_phenotype_csv_units_in_header(self, population, tmp_path):
        from cardioshape.phenotypes import phenotype_table

        tables = [phenotype_table(s) for s in population.sequences[:2]]
        cio.save_phenotype_csv(tmp_path / "p.csv", tables)
        header = (tmp_path / "p.csv").read_text().splitlines()[0]
        assert "LVM (g)" in header and "LVEDV (mL)" in header
        assert "LVEF (%)" in header

    def test_groups_roundtrip(self, tmp_path):
        cio.save_groups_csv(tmp_path / "g.csv", ["a", "b", "a"])
        ids, groups = cio.load_groups_csv(tmp_path / "g.csv")
        assert list(groups) == ["a", "b", "a"]

    def test_correlation_csv_rows(self, population, tmp_path):
        topology = population.sequences[0].topology()
        n = topology.total_vertices
        rng = np.random.default_rng(3)
        cio.save_correlation_csv(
            tmp_path / "c.csv",
            topology,
            rng.normal(size=n),
            rng.uniform(size=n),
            rng.uniform(size=n) < 0.1,
        )
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert len(lines) == n + 1
        assert lines[0] == "vertex_id,structure,r,p,significant"

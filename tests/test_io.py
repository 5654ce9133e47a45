import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from cardioshape import io as cio
from cardioshape import synth
from cardioshape.cli import main
from cardioshape.mesh import STRUCTURES, ChamberSet, Topology, TriMesh, vectorize
from cardioshape.objectives import TargetClouds
from cardioshape.ffd import ControlGrid
from cardioshape.motion import SlicePlane, ViewSet
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

    def test_obj_bytes_match_per_coordinate_rendering(self, tmp_path):
        # the rendering write_obj once had: one "%.17g" per coordinate
        rng = np.random.default_rng(3)
        special = [[-0.0, 1e-300, 1e17], [0.1, -1.0 / 3.0, 2.0**60], [5e-324, -1e308, 7.0]]
        verts = np.concatenate([special, rng.normal(0, 40, (201, 3))])
        faces = np.arange(len(verts)).reshape(-1, 3)
        mesh = TriMesh(verts, faces, "RA")
        expected = "".join(
            [f"v {'%.17g' % x} {'%.17g' % y} {'%.17g' % z}\n" for x, y, z in verts.tolist()]
            + [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces]
        )
        cio.write_obj(tmp_path / "m.obj", mesh)
        assert (tmp_path / "m.obj").read_bytes() == expected.encode()
        back = cio.read_obj(tmp_path / "m.obj", "RA")
        assert np.array_equal(back.vertices, verts)
        assert np.signbit(back.vertices[0, 0])

    @pytest.mark.parametrize(
        "record", ["v 1 abc 3", "v 1 2", "f 1 2", "f 1 x 3", "f 1 2 3 4", "f -3 -2 -1"]
    )
    def test_malformed_obj_record_names_file_and_line(self, tmp_path, record):
        path = tmp_path / "m.obj"
        path.write_text(f"# mesh\nv 0 0 0\nv 1 0 0\n\nv 0 1 0\n{record}\nf 1 2 3\n")
        with pytest.raises(cio.ValidationError) as exc:
            cio.read_obj(path, "RA")
        assert str(exc.value) == f"{path}, line 6: malformed record {record!r}"

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(cio.ValidationError, match="manifest"):
            cio.load_sequence(tmp_path / "empty")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop("n_frames"), "missing 'n_frames'"),
            (lambda m: m.pop("vertex_counts"), "missing 'vertex_counts'"),
            (lambda m: m["vertex_counts"].pop("RV"), "vertex_counts missing 'RV'"),
            (lambda m: [m], "not a JSON object"),
        ],
        ids=["n_frames", "vertex_counts", "RV_count", "list"],
    )
    def test_malformed_manifest_names_file(self, population, tmp_path, edit, message):
        cio.save_sequence(tmp_path / "subj", population.sequences[0])
        path = tmp_path / "subj" / "manifest.json"
        manifest = json.loads(path.read_text())
        edited = edit(manifest)
        path.write_text(json.dumps(edited if isinstance(edited, list) else manifest))
        with pytest.raises(cio.ValidationError, match=re.escape(str(path))) as info:
            cio.load_sequence(tmp_path / "subj")
        assert message in str(info.value)


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
        intensity = [synth.intensity_volume(l, texture=0.0) for l in labels]
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

    def test_truncated_payload_rejected(self, tmp_path):
        meta = {"frames": 1, "height": 2, "width": 2, "has_label": True}
        header = json.dumps({"planes": [meta]}).encode() + b"\n"
        (tmp_path / "image.bin").write_bytes(header + bytes(8 * 3))
        with pytest.raises(cio.ValidationError, match="truncated image"):
            cio.load_views(tmp_path / "image.bin")
        (tmp_path / "label.bin").write_bytes(header + bytes(8 * 4 + 2 * 3))
        with pytest.raises(cio.ValidationError, match="truncated label"):
            cio.load_views(tmp_path / "label.bin")

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
        raw = (tmp_path / "t.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(raw[:-8])
        with pytest.raises(cio.ValidationError, match="truncated point"):
            cio.load_target_clouds(tmp_path / "cut.bin")


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

    def test_loaded_model_continues_training_as_in_memory(self, population, tmp_path):
        # the stored variances and sample count are the whole spectrum
        vectors = np.stack([vectorize(s) for s in population.sequences])
        topology = population.sequences[0].topology()
        model = ShapeModel(n_components=3, topology=topology)
        ipca_partial_fit(model, vectors[: len(vectors) // 2])
        cio.save_model(tmp_path / "m.hssm", model, topology)
        back = cio.load_model(tmp_path / "m.hssm", population.sequences[0].frames[0])
        for m in (model, back):
            ipca_partial_fit(m, vectors[len(vectors) // 2 :])
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.explained_variance, model.explained_variance)

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
            cio.load_model(tmp_path / "bad.hssm", population.sequences[0].frames[0])

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


    def test_truncated_and_short_files_rejected(self, population, tmp_path):
        vectors = np.stack([vectorize(s) for s in population.sequences])
        topology = population.sequences[0].topology()
        model = ShapeModel(n_components=2, topology=topology)
        ipca_partial_fit(model, vectors)
        cio.save_model(tmp_path / "m.hssm", model, topology)
        raw = (tmp_path / "m.hssm").read_bytes()
        (tmp_path / "cut.hssm").write_bytes(raw[:-8])
        with pytest.raises(cio.ValidationError, match="payload"):
            cio.load_model(tmp_path / "cut.hssm", population.sequences[0].frames[0])
        (tmp_path / "short.hssm").write_bytes(raw[:20])
        with pytest.raises(cio.ValidationError, match="too short"):
            cio.load_model(tmp_path / "short.hssm", population.sequences[0].frames[0])

    def test_load_peaks_near_file_size(self, tmp_path):
        # 10 components over 8,335 vertices x 10 frames: a 20 MB file
        template = ChamberSet({s: synth.sphere_mesh(1667, s) for s in STRUCTURES})
        topology = Topology.from_chamber_set(template, 10)
        rng = np.random.default_rng(0)
        model = ShapeModel(n_components=10, topology=topology)
        model.mean = rng.normal(size=topology.vector_length)
        model.components = rng.normal(size=(10, topology.vector_length))
        model.explained_variance = np.ones(10)
        model.n_seen = 11
        path = tmp_path / "big.hssm"
        cio.save_model(path, model, topology)
        size = path.stat().st_size
        assert size >= 20e6
        tracemalloc.start()
        try:
            back = cio.load_model(path, template)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * size
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.mean, model.mean)


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
            assert np.array_equal(g0.origin, g1.origin)
            assert np.array_equal(g0.spacing, g1.spacing)
            assert np.array_equal(g0.displacements, g1.displacements)
        raw = (tmp_path / "g.bin").read_bytes()
        for cut in (8, len(raw) - 12 - 40):  # in the last displacements; in a record head
            (tmp_path / "cut.bin").write_bytes(raw[:-cut])
            with pytest.raises(cio.ValidationError, match="truncated grid"):
                cio.load_grids(tmp_path / "cut.bin")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "g.bin").write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(cio.ValidationError, match="grids"):
            cio.load_grids(tmp_path / "g.bin")


def _tiny_views():
    rng = np.random.default_rng(5)

    def plane(i, origin, u, v):
        label = rng.integers(0, 3, (1, 2, 3)).astype(np.int16)
        image = rng.normal(size=(1, 2, 3))
        return SlicePlane(origin, u, v, (1.0, 1.0), image, label, plane_id=f"p{i}")

    x, y, z = np.eye(3)
    sax = [plane(i, (0, 0, i), x, y) for i in range(3)]
    return ViewSet(sax, plane(3, (0, 0, 0), x, z), plane(4, (0, 0, 0), y, z))


def _tiny_model(population):
    topology = population.sequences[0].topology()
    model = ShapeModel(n_components=2, topology=topology)
    ipca_partial_fit(model, np.stack([vectorize(s) for s in population.sequences]))
    return model, topology


def _load_tiny_model(path):
    # the template of the population fixture: make_template depends on the scale alone
    cfg = synth.SynthConfig(scale=0.02, n_frames=3, seed=9)
    return cio.load_model(path, synth.make_template(cfg)[0])


def _tiny_grids():
    rng = np.random.default_rng(6)
    displacements = rng.normal(size=(4, 4, 5, 3))
    return [ControlGrid((4, 4, 5), rng.normal(size=3), (1.0, 2.0, 3.0), displacements)]


def _drop_header_key(raw, edit):
    line, payload = raw.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    return json.dumps(header).encode() + b"\n" + payload


# name: (write a valid file, load it, a broken header or a short fixed header)
CONTAINERS = {
    "volume": (
        lambda path, pop: cio.save_volume(
            path, np.zeros((1, 2, 2, 2)), synth.VolumeGeometry((0, 0, 0), (1, 1, 1), (2, 2, 2))
        ),
        cio.load_volume,
        lambda raw: _drop_header_key(raw, lambda h: h.pop("frames")),
    ),
    "views": (
        lambda path, pop: cio.save_views(path, _tiny_views()),
        cio.load_views,
        lambda raw: _drop_header_key(raw, lambda h: h["planes"][1].pop("frames")),
    ),
    "targets": (
        lambda path, pop: cio.save_target_clouds(
            path, TargetClouds.from_sequence(pop.sequences[2])
        ),
        cio.load_target_clouds,
        lambda raw: _drop_header_key(raw, lambda h: h.pop("counts")),
    ),
    "model": (
        lambda path, pop: cio.save_model(path, *_tiny_model(pop)),
        _load_tiny_model,
        lambda raw: raw[:40],
    ),
    "grids": (
        lambda path, pop: cio.save_grids(path, _tiny_grids()),
        cio.load_grids,
        lambda raw: raw[:8],
    ),
}

DEFECTS = {
    "header": lambda raw, broken_header: broken_header(raw),
    "truncated": lambda raw, broken_header: raw[:-1],
    "trailing": lambda raw, broken_header: raw + bytes(16),
}


def _broken_file(population, tmp_path, container, defect):
    write, _, broken_header = CONTAINERS[container]
    good = tmp_path / f"{container}.bin"
    write(good, population)
    bad = tmp_path / f"{container}_{defect}.bin"
    bad.write_bytes(DEFECTS[defect](good.read_bytes(), broken_header))
    return good, bad


class TestContainers:
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("container", sorted(CONTAINERS))
    def test_defect_raises_naming_file(self, population, tmp_path, container, defect):
        good, bad = _broken_file(population, tmp_path, container, defect)
        load = CONTAINERS[container][1]
        load(good)
        with pytest.raises(cio.ValidationError, match=re.escape(str(bad))) as info:
            load(bad)
        expected = {"header": "header", "truncated": "truncated", "trailing": "trailing bytes"}
        assert expected[defect] in str(info.value)

    @pytest.mark.parametrize(
        "load, header",
        [
            (cio.load_views, b"[1, 2]"),
            (cio.load_views, b'{"planes": 5}'),
            (cio.load_views, b'{"planes": [{"frames": "x", "height": 1, "width": 1, '
                             b'"has_label": false}]}'),
            (cio.load_target_clouds, b'{"structures": ["RV"]}'),
            (cio.load_target_clouds, b'{"structures": ["RV"], "counts": [{}]}'),
            (cio.load_volume, b'{"dims": [2, 2], "spacing": [1, 1, 1], "origin": [0, 0, 0], '
                              b'"dtype": "uint8", "frames": 1}'),
            (cio.load_volume, b"5"),
            (cio.load_volume, b"\xff\xfe"),
        ],
        ids=["views-list", "views-planes-int", "views-frames-str", "targets-no-counts",
             "targets-count-missing", "volume-two-dims", "volume-int", "volume-not-utf8"],
    )
    def test_malformed_header_raises_naming_file(self, tmp_path, load, header):
        path = tmp_path / "bad.bin"
        path.write_bytes(header + b"\n" + bytes(8))
        with pytest.raises(cio.ValidationError, match=re.escape(str(path))):
            load(path)

    def test_corrupt_count_allocates_nothing(self, tmp_path):
        # a header naming ~2**60 points must fail at the size check, not in malloc
        path = tmp_path / "huge.bin"
        path.write_bytes(b'{"structures": ["RV"], "counts": [{"RV": 400000000000000000}]}\n')
        with pytest.raises(cio.ValidationError, match="truncated point"):
            cio.load_target_clouds(path)

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("container", ["views", "targets", "model"])
    def test_cli_exit_2_names_file(self, population, tmp_path, capsys, container, defect):
        _, bad = _broken_file(population, tmp_path, container, defect)
        template = tmp_path / "template"
        cio.save_sequence(template, population.sequences[0])
        argv = {
            "views": ["mc", "--views", str(bad)],
            "targets": ["fit", "--template", str(template), "--targets", str(bad)],
            "model": ["ssm", "encode", "--template", str(template), "--model", str(bad),
                      "--meshes", str(template)],
        }[container]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_writers_match_struct_layout(self, population, tmp_path):
        model, topology = _tiny_model(population)
        cio.save_model(tmp_path / "m.hssm", model, topology)
        head = struct.pack(
            "<4sIQIIIIQd", b"HSSM", 1, topology.digest(), topology.n_frames,
            topology.total_vertices, model.n_components, model.n_active,
            model.n_seen, model.sq_dev_total,
        )
        arrays = (model.mean, model.explained_variance, model.components)
        expected = head + b"".join(np.asarray(a, "<f8").tobytes() for a in arrays)
        assert (tmp_path / "m.hssm").read_bytes() == expected

        grids = _tiny_grids() * 2
        cio.save_grids(tmp_path / "g.bin", grids)
        expected = struct.pack("<4sII", b"HFFD", 1, 2) + b"".join(
            struct.pack("<3I", *g.dims) + struct.pack("<6d", *g.origin, *g.spacing)
            + g.displacements.astype("<f8").tobytes()
            for g in grids
        )
        assert (tmp_path / "g.bin").read_bytes() == expected


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
        cio.save_phenotype_csv(tmp_path / "p.csv", tables, ["s0", "s1"])
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

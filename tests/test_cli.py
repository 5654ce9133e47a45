import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cardioshape import io as cio
from cardioshape import motion
from cardioshape import ssm as cssm
from cardioshape.cli import _to_model_space, main
from cardioshape.mesh import STRUCTURES, MeshSequence, devectorize, vectorize
from cardioshape.objectives import TargetClouds
from cardioshape.synth import plane_section

from conftest import toy_chamber_set, toy_sequence


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(
        [
            "synth", "--subjects", "3", "--scale", "0.02", "--frames", "3",
            "--voxel-size", "2.0", "--sax", "3", "--views",
            "--seed", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestSynthCommand:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "template" / "manifest.json").exists()
        assert (synth_dir / "subject_000" / "meshes" / "manifest.json").exists()
        assert (synth_dir / "subject_000" / "targets.bin").exists()
        assert (synth_dir / "subject_000" / "views.bin").exists()
        assert (synth_dir / "ground_truth.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "synth", "--subjects", "2", "--scale", "0.02", "--frames", "2",
            "--sax", "3", "--seed", "7",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name


@pytest.fixture(scope="module")
def model_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    # train directly on the synthetic meshes (subject_* directories)
    rc = main(
        [
            "ssm", "train", "--data", str(synth_dir),
            "--template", str(synth_dir / "template"),
            "--components", "3", "--batch-size", "2",
            "--seed", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestSsmCommands:

    def test_encode_mean_is_zero(self, synth_dir, model_dir, tmp_path):
        template = cio.load_chamber_set(synth_dir / "template")
        model = cio.load_model(model_dir / "model.hssm", template)
        mean_seq = devectorize(model.mean, model.topology)
        cio.save_sequence(tmp_path / "mean_seq", mean_seq)
        rc = main(
            [
                "ssm", "encode", "--template", str(synth_dir / "template"),
                "--model", str(model_dir / "model.hssm"),
                "--meshes", str(tmp_path / "mean_seq"),
                "--out", str(tmp_path / "enc"),
            ]
        )
        assert rc == 0
        _, w = cio.load_features_csv(tmp_path / "enc" / "descriptor.csv")
        assert np.abs(w).max() < 1e-10

    def test_decode_roundtrip(self, synth_dir, model_dir, tmp_path):
        template = cio.load_chamber_set(synth_dir / "template")
        model = cio.load_model(model_dir / "model.hssm", template)
        cio.save_features_csv(tmp_path / "w.csv", np.zeros((1, model.n_active)))
        rc = main(
            [
                "ssm", "decode", "--template", str(synth_dir / "template"),
                "--model", str(model_dir / "model.hssm"),
                "--weights", str(tmp_path / "w.csv"),
                "--out", str(tmp_path / "dec"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "dec" / "meshes" / "manifest.json").exists()

    def test_fit_contours_recovers_weights(self, tmp_path):
        # a 5-mode model trained on 8 subjects, cut by 20 planes per frame
        data = tmp_path / "synth"
        argv = ["synth", "--subjects", "8", "--scale", "0.02", "--frames", "2"]
        assert main(argv + ["--seed", "3", "--out", str(data)]) == 0
        template = str(data / "template")
        assert main(
            ["ssm", "train", "--data", str(data), "--template", template,
             "--components", "5", "--batch-size", "4", "--out", str(tmp_path / "model")]
        ) == 0
        model_path = str(tmp_path / "model" / "model.hssm")
        model = cio.load_model(model_path, cio.load_chamber_set(template))
        w_true = np.array([1.5, -1.2, 1.3, -1.6, 1.1]) * np.sqrt(model.explained_variance)
        seq = devectorize(cssm.decode(model, w_true), model.topology)
        planes = [((0.0, 0.0, z), (0.0, 0.0, 1.0)) for z in np.linspace(-40, 40, 9)]
        planes += [((0.0, 0.0, 0.0), (np.sin(a), np.cos(a), 0.0)) for a in np.linspace(0, 3, 6)]
        frames = [
            {s: np.concatenate([plane_section(fr[s], o, n) for o, n in planes]) for s in STRUCTURES}
            for fr in seq.frames
        ]
        cio.save_target_clouds(tmp_path / "contours.bin", TargetClouds(frames))
        fit = ["ssm", "fit-contours", "--template", template, "--model", model_path,
               "--contours", str(tmp_path / "contours.bin"), "--out", str(tmp_path / "fit")]
        assert main(fit) == 0
        _, w = cio.load_features_csv(tmp_path / "fit" / "descriptor.csv")
        assert np.all(np.abs(w[0] - w_true) < 0.01 * np.abs(w_true))
        # no ssm action takes a learning rate or an iteration count any more
        for flag in (["--lr", "0.05"], ["--iterations", "10"]):
            with pytest.raises(SystemExit) as exc:
                main(fit + flag)
            assert exc.value.code == 2

    def test_modes_subcommand(self, synth_dir, model_dir, tmp_path):
        rc = main(
            [
                "ssm", "modes", "--template", str(synth_dir / "template"),
                "--model", str(model_dir / "model.hssm"),
                "--pc", "0", "--sd", "2.0", "--out", str(tmp_path / "modes"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "modes" / "mode_0_+2sd" / "manifest.json").exists()


@pytest.fixture(scope="module")
def fit_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    for subject in ("subject_000", "subject_001"):
        rc = main(
            [
                "fit", "--template", str(synth_dir / "template"),
                "--targets", str(synth_dir / subject / "targets.bin"),
                "--iterations", "10", "--lr", "0.5",
                "--dims-coarse", "4", "4", "4",
                "--dims-mid", "5", "5", "5",
                "--dims-fine", "6", "6", "6",
                "--out", str(out / subject),
            ]
        )
        assert rc == 0
    return out


class TestPipelineCommands:
    def test_fit_and_pheno(self, fit_dir, tmp_path):
        assert (fit_dir / "subject_000" / "loss_trace.csv").exists()
        metrics = (fit_dir / "subject_000" / "fit_metrics.csv").read_text()
        assert metrics.startswith("subject_id,frame,structure,metric,value")
        grids = cio.load_grids(fit_dir / "subject_000" / "grids.bin")
        assert len(grids) == 2 + 3  # coarse + mid + one fine grid per frame
        rc = main(["pheno", "--data", str(fit_dir), "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "phenotypes.csv").read_text()
        assert text.startswith("subject_id,LVM (g)")

    def test_fit_metrics_subject_ids(self, fit_dir, tmp_path):
        ids = []
        for subject in ("subject_000", "subject_001"):
            lines = (fit_dir / subject / "fit_metrics.csv").read_text().splitlines()
            ids.append({line.split(",")[0] for line in lines[1:]})
        assert ids == [{"subject_000"}, {"subject_001"}]
        # the same ids as the phenotype table's rows
        assert main(["pheno", "--data", str(fit_dir), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "phenotypes.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["subject_000", "subject_001"]

    def test_mc_command(self, synth_dir, tmp_path):
        rc = main(
            [
                "mc", "--views", str(synth_dir / "subject_000" / "views.bin"),
                "--epochs", "5", "--out", str(tmp_path / "mc"),
            ]
        )
        assert rc == 0
        disp = json.loads((tmp_path / "mc" / "displacements.json").read_text())
        assert "la_2ch" in disp and len(disp["la_2ch"]) == 2

    def test_mc_trace_csv(self, synth_dir, tmp_path, monkeypatch):
        # without the relative stop the solve polishes on, rejecting some steps
        monkeypatch.setattr(motion, "REL_TOL", 0.0)
        views = synth_dir / "subject_000" / "views.bin"
        assert main(["mc", "--views", str(views), "--epochs", "60", "--out", str(tmp_path)]) == 0
        _, trace = motion.mc_optimize(cio.load_views(views), epochs=60)
        lines = (tmp_path / "mc_trace.csv").read_text().splitlines()
        assert lines[0] == "round,objective,accepted"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(trace)
        assert [int(r[0]) for r in rows] == list(range(len(trace)))
        assert [float(r[1]) for r in rows] == trace.tolist()
        # accepted: below every earlier value, as the solver keeps a step
        kept = [i == 0 or v < trace[:i].min() for i, v in enumerate(trace)]
        assert [r[2] for r in rows] == [str(int(k)) for k in kept]
        assert 0 < sum(kept) < len(trace)

    def test_retrieve_and_reid(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 4))
        cio.save_features_csv(tmp_path / "f.csv", values)
        cio.save_groups_csv(tmp_path / "g.csv", ["x"] * 20)
        rc = main(
            [
                "retrieve", "--features", str(tmp_path / "f.csv"),
                "--groups", str(tmp_path / "g.csv"), "--k", "3",
                "--queries", "10", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "retrieval.json").read_text())
        assert report["precision_percent"] == 100.0
        rc = main(
            [
                "reid", "--features-t1", str(tmp_path / "f.csv"),
                "--features-t2", str(tmp_path / "f.csv"), "--k", "1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "reid.json").read_text())
        assert report["recall_percent"] == 100.0


def _moved(seq, angles_deg=(10.0, -5.0, 20.0), shift=(7.0, -4.0, 3.0)):
    rotation = Rotation.from_euler("xyz", angles_deg, degrees=True).as_matrix()
    return MeshSequence(
        [fr.transformed(rotation=rotation, translation=np.array(shift)) for fr in seq.frames]
    )


def _corr_values(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3, 4))


class TestPoseConvention:
    """encode, complete and corr see meshes in the template's pose."""

    def _run_all(self, synth_dir, model_dir, data, out):
        template = str(synth_dir / "template")
        model = str(model_dir / "model.hssm")
        meshes = str(data / "subject_000" / "meshes")
        cio.save_features_csv(out / "attributes.csv", np.array([[61.0], [47.0], [55.0]]))
        commands = [
            ["ssm", "encode", "--meshes", meshes, "--out", str(out / "enc")],
            ["ssm", "complete", "--meshes", meshes, "--observed", "0,2",
             "--out", str(out / "complete")],
            ["corr", "--data", str(data), "--attributes", str(out / "attributes.csv"),
             "--attribute", "f0", "--out", str(out / "corr")],
        ]
        for argv in commands:
            assert main(argv + ["--template", template, "--model", model]) == 0
        return (
            cio.load_features_csv(out / "enc" / "descriptor.csv")[1][0],
            vectorize(cio.load_sequence(out / "complete" / "meshes")),
            _corr_values(out / "corr" / "correlation.csv"),
        )

    def test_rigidly_moved_subject_gives_same_outputs(self, synth_dir, model_dir, tmp_path):
        moved_data = tmp_path / "moved_data"
        for i in range(3):
            seq = cio.load_sequence(synth_dir / f"subject_{i:03d}" / "meshes")
            if i == 0:
                seq = _moved(seq)
            cio.save_sequence(moved_data / f"subject_{i:03d}" / "meshes", seq)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        plain = self._run_all(synth_dir, model_dir, synth_dir, tmp_path / "a")
        moved = self._run_all(synth_dir, model_dir, moved_data, tmp_path / "b")
        assert np.abs(plain[0] - moved[0]).max() < 1e-8
        assert np.abs(plain[1] - moved[1]).max() < 1e-8
        assert np.allclose(plain[2], moved[2], rtol=1e-8, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        angles=st.tuples(*[st.floats(-180.0, 180.0)] * 3),
        shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    )
    def test_to_model_space_invariant(self, angles, shift):
        template = toy_chamber_set()
        rng = np.random.default_rng(3)
        seq = toy_sequence(3, motion=lambda t: (2.0 * t, -t, 0.5 * t))
        # (T, n_s, 3) noise per structure, laid out as vectorize() lays out coordinates
        shapes = [(seq.n_frames, seq[0][s].n_vertices, 3) for s in STRUCTURES]
        noise = np.concatenate([rng.normal(0.0, 0.3, shape) for shape in shapes], axis=1)
        seq = devectorize(vectorize(seq) + noise.ravel(), seq.topology())
        expected = vectorize(_to_model_space(seq, template))
        got = vectorize(_to_model_space(_moved(seq, angles, shift), template))
        assert np.abs(got - expected).max() < 1e-8


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 0.5 s and 30 MB to import; no module needs it
    src = str(Path(cio.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import cardioshape.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestExitCodes:
    def test_unknown_flag_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cardioshape.cli", "synth", "--bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["mc", "--views", str(tmp_path / "nope.bin"), "--out", str(tmp_path)])
        assert rc == 2

    def test_corrupt_model_exit_2(self, tmp_path):
        (tmp_path / "m.hssm").write_bytes(b"garbage")
        (tmp_path / "t").mkdir()
        rc = main(
            [
                "ssm", "encode", "--template", str(tmp_path / "t"),
                "--model", str(tmp_path / "m.hssm"),
                "--meshes", str(tmp_path / "t"), "--out", str(tmp_path),
            ]
        )
        assert rc == 2

    def test_ssm_failed_load_leaves_no_out(self, synth_dir, model_dir, tmp_path, capsys):
        template = tmp_path / "template"
        template.mkdir()  # no manifest.json
        rc = main(
            [
                "ssm", "encode", "--template", str(template),
                "--model", str(model_dir / "model.hssm"),
                "--meshes", str(synth_dir / "subject_000" / "meshes"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corr_attribute_rows_must_match_subjects(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        attributes = tmp_path / "attributes.csv"
        cio.save_features_csv(attributes, np.arange(4.0)[:, None])  # 3 subjects
        rc = main(
            [
                "corr", "--data", str(synth_dir), "--model", str(model_dir / "model.hssm"),
                "--template", str(synth_dir / "template"), "--attributes", str(attributes),
                "--attribute", "f0", "--out", str(tmp_path / "corr"),
            ]
        )
        assert rc == 2
        assert str(attributes) in capsys.readouterr().err
        assert not (tmp_path / "corr" / "correlation.csv").exists()

    @pytest.mark.parametrize("attribute", ["f9", "-1", "age", "f4"])
    def test_corr_attribute_out_of_range_exit_2(
        self, synth_dir, model_dir, tmp_path, capsys, attribute
    ):
        attributes = tmp_path / "attributes.csv"
        cio.save_features_csv(attributes, np.random.default_rng(0).normal(size=(3, 4)))
        rc = main(
            [
                "corr", "--data", str(synth_dir), "--model", str(model_dir / "model.hssm"),
                "--template", str(synth_dir / "template"), "--attributes", str(attributes),
                "--attribute", attribute, "--out", str(tmp_path / "corr"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "--attribute" in err and str(attributes) in err and "4 columns" in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("retrieve", "--pcs", "-1"),
            ("retrieve", "--pcs", "0"),
            ("retrieve", "--pcs", "5"),
            ("retrieve", "--queries", "0"),
            ("retrieve", "--queries", "-5"),
            ("reid", "--pcs", "-1"),
            ("reid", "--pcs", "0"),
        ],
    )
    def test_descriptor_flag_out_of_range_exit_2(self, tmp_path, capsys, command, flag, value):
        features = str(tmp_path / "f.csv")
        cio.save_features_csv(features, np.random.default_rng(0).normal(size=(20, 4)))
        cio.save_groups_csv(tmp_path / "g.csv", ["x", "y"] * 10)
        inputs = {
            "retrieve": ["--features", features, "--groups", str(tmp_path / "g.csv")],
            "reid": ["--features-t1", features, "--features-t2", features],
        }[command]
        rc = main([command, *inputs, "--k", "1", flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, k, top",
        [("retrieve", "0", "5"), ("retrieve", "6", "5"), ("reid", "0", "6"), ("reid", "7", "6")],
    )
    def test_k_out_of_range_names_flag_and_file(self, tmp_path, capsys, command, k, top):
        features = str(tmp_path / "f.csv")
        cio.save_features_csv(features, np.random.default_rng(0).normal(size=(6, 4)))
        cio.save_groups_csv(tmp_path / "g.csv", ["x", "y"] * 3)
        inputs = {
            "retrieve": ["--features", features, "--groups", str(tmp_path / "g.csv")],
            "reid": ["--features-t1", features, "--features-t2", features],
        }[command]
        rc = main([command, *inputs, "--k", k, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"--k {k}" in err and features in err and f"1 <= k <= {top}" in err

    @pytest.mark.parametrize("rows2, cols2", [(5, 4), (6, 3)])
    def test_reid_shape_mismatch_names_both_files(self, tmp_path, capsys, rows2, cols2):
        rng = np.random.default_rng(0)
        t1, t2 = str(tmp_path / "t1.csv"), str(tmp_path / "t2.csv")
        cio.save_features_csv(t1, rng.normal(size=(6, 4)))
        cio.save_features_csv(t2, rng.normal(size=(rows2, cols2)))
        rc = main(
            [
                "reid", "--features-t1", t1, "--features-t2", t2, "--k", "1",
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{t1} is 6 x 4" in err and f"{t2} is {rows2} x {cols2}" in err

    def test_groups_row_count_names_file(self, tmp_path, capsys):
        cio.save_features_csv(tmp_path / "f.csv", np.random.default_rng(0).normal(size=(6, 4)))
        cio.save_groups_csv(tmp_path / "g.csv", ["x", "y", "x", "y", "x"])
        rc = main(
            [
                "retrieve", "--features", str(tmp_path / "f.csv"), "--groups",
                str(tmp_path / "g.csv"), "--k", "1", "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert str(tmp_path / "g.csv") in err and "5 rows for the 6 subjects" in err

    def test_non_finite_views_exit_2(self, synth_dir, tmp_path, capsys):
        views = cio.load_views(synth_dir / "subject_000" / "views.bin")
        views.la_2ch.image[0, 3, 4] = np.nan
        cio.save_views(tmp_path / "views.bin", views)
        rc = main(["mc", "--views", str(tmp_path / "views.bin"), "--out", str(tmp_path / "mc")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "views.bin") in err and "non-finite" in err
        assert not (tmp_path / "mc").exists()

    def test_mc_has_no_lr(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "mc", "--views", str(synth_dir / "subject_000" / "views.bin"),
                    "--lr", "0.1", "--out", str(tmp_path),
                ]
            )
        assert exc.value.code == 2

    def test_train_without_components_exit_2(self, synth_dir, tmp_path, capsys):
        # one subject: its centred shape is zero, so no component can be kept
        data = tmp_path / "data"
        shutil.copytree(synth_dir / "subject_000" / "meshes", data / "subject_000" / "meshes")
        rc = main(
            [
                "ssm", "train", "--data", str(data), "--template", str(synth_dir / "template"),
                "--components", "2", "--out", str(tmp_path / "model"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--data {data}" in err and "no component" in err
        assert not (tmp_path / "model" / "model.hssm").exists()

    def test_fit_lr_zero_exit_2(self, synth_dir, tmp_path, capsys):
        rc = main(
            [
                "fit", "--template", str(synth_dir / "template"),
                "--targets", str(synth_dir / "subject_000" / "targets.bin"),
                "--iterations", "2", "--lr", "0", "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "lr" in capsys.readouterr().err

    def test_fit_targets_missing_structure_names_file(self, synth_dir, tmp_path, capsys):
        template = cio.load_chamber_set(synth_dir / "template")
        path = tmp_path / "targets.bin"
        cio.save_target_clouds(path, TargetClouds([{"RV": template["RV"].vertices}]))
        rc = main(
            [
                "fit", "--template", str(synth_dir / "template"), "--targets", str(path),
                "--iterations", "2", "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--targets {path}" in err and "five structures" in err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize(
        "action, flags, flag",
        [
            ("train", ["--data"], "--data"),
            ("encode", ["--model", "--meshes"], "--model"),
            ("encode", ["--model", "--meshes"], "--meshes"),
            ("complete", ["--model", "--meshes"], "--meshes"),
            ("decode", ["--model", "--weights"], "--weights"),
            ("fit-contours", ["--model", "--contours"], "--contours"),
            ("fit-contours", ["--model", "--contours"], "--model"),
            ("modes", ["--model"], "--model"),
        ],
    )
    def test_ssm_action_without_a_needed_flag_exit_2(
        self, synth_dir, tmp_path, capsys, action, flags, flag
    ):
        given = [x for f in flags if f != flag for x in (f, str(tmp_path / "absent"))]
        with pytest.raises(SystemExit) as exc:
            main(
                ["ssm", action, "--template", str(synth_dir / "template"), *given,
                 "--out", str(tmp_path / "out")]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"ssm {action}" in err and f"required: {flag}" in err and "TypeError" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ssm", "encode", "--template", "t", "--model", "m", "--meshes", "s", "--components", "4"],
            ["ssm", "train", "--template", "t", "--data", "d", "--pc", "1"],
            ["eval", "--suite", "acceptance"],
            ["mc", "--views", "v", "--components", "4"],
        ],
        ids=["ssm-encode-components", "ssm-train-pc", "eval-suite", "mc-components"],
    )
    def test_flag_the_command_does_not_take_exit_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the usage shown is the command's own, not the root parser's
        command = " ".join(argv[: 2 if argv[0] == "ssm" else 1])
        assert err.startswith(f"usage: cardioshape {command} [-h]")
        assert f"unrecognized arguments: {argv[-2]}" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_fit_exit_1(self, synth_dir, tmp_path, monkeypatch, capsys):
        from cardioshape import optim

        monkeypatch.setattr(optim.Adam, "step", lambda self, p, g: p * np.nan)
        rc = main(
            [
                "fit", "--template", str(synth_dir / "template"),
                "--targets", str(synth_dir / "subject_000" / "targets.bin"),
                "--iterations", "2",
                "--dims-coarse", "4", "4", "4",
                "--dims-mid", "5", "5", "5",
                "--dims-fine", "6", "6", "6",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        assert "stage 1, iteration 1" in capsys.readouterr().err

    def test_decode_weight_count_mismatch_exit_2(self, synth_dir, model_dir, tmp_path, capsys):
        template = cio.load_chamber_set(synth_dir / "template")
        n_active = cio.load_model(model_dir / "model.hssm", template).n_active
        cio.save_features_csv(tmp_path / "w.csv", np.zeros((1, n_active + 1)))
        rc = main(
            [
                "ssm", "decode", "--template", str(synth_dir / "template"),
                "--model", str(model_dir / "model.hssm"),
                "--weights", str(tmp_path / "w.csv"), "--out", str(tmp_path / "dec"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "w.csv") in err and f"{n_active} weights" in err
        assert not (tmp_path / "dec" / "meshes").exists()

    def test_complete_frame_count_mismatch_exit_2(self, synth_dir, model_dir, tmp_path):
        rc = main(
            [
                "ssm", "complete", "--template", str(synth_dir / "template"),
                "--model", str(model_dir / "model.hssm"),
                "--meshes", str(synth_dir / "template"),  # 1 frame; the model has 3
                "--observed", "2", "--out", str(tmp_path),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("observed", ["3", "9", "-1", "0,x", ""])
    def test_complete_observed_out_of_range_exit_2(
        self, synth_dir, model_dir, tmp_path, capsys, observed
    ):
        rc = main(
            [
                "ssm", "complete", "--template", str(synth_dir / "template"),
                "--model", str(model_dir / "model.hssm"),
                "--meshes", str(synth_dir / "subject_000" / "meshes"),
                "--observed", observed, "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--observed" in err and "0..2" in err
        assert not (tmp_path / "meshes").exists()

    @pytest.mark.parametrize(
        "features, groups, bad, line",
        [
            ("subject_id,f0\n0,1.5\n1,abc\n", "subject_id,group\n0,a\n1,b\n", "features", 3),
            ("subject_id,f0\n0,1.5\n1,2.5,3.5\n", "subject_id,group\n0,a\n1,b\n", "features", 3),
            ("subject_id,f0\n0,1.5\n1,2.5\n", "subject_id,group\n0,a,x\n1,b\n",
             "groups", 2),
        ],
        ids=["not-a-number", "ragged-row", "three-fields"],
    )
    def test_retrieve_bad_csv_names_file_and_line(
        self, tmp_path, capsys, features, groups, bad, line
    ):
        (tmp_path / "features.csv").write_text(features)
        (tmp_path / "groups.csv").write_text(groups)
        rc = main(
            [
                "retrieve", "--features", str(tmp_path / "features.csv"),
                "--groups", str(tmp_path / "groups.csv"), "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert f"{tmp_path / (bad + '.csv')}, line {line}" in capsys.readouterr().err

    def test_config_file_defaults(self, tmp_path):
        cfg = {"subjects": 2, "scale": 0.02, "frames": 2, "sax": 3}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = main(
            [
                "synth", "--config", str(tmp_path / "cfg.json"),
                "--seed", "3", "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "subject_001" / "meshes").exists()
        assert not (tmp_path / "out" / "subject_002").exists()

    def test_explicit_flag_beats_config(self, tmp_path):
        # --subjects 10 is also the parser default, and still wins
        (tmp_path / "cfg.json").write_text(json.dumps({"subjects": 2, "scale": 0.02}))
        rc = main(
            [
                "synth", "--subjects", "10", "--frames", "1", "--config",
                str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "subject_009" / "meshes").exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"scale": 0.02, "bogus-key": 1}))
        rc = main(
            [
                "synth", "--subjects", "1", "--frames", "1", "--config",
                str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert str(tmp_path / "cfg.json") in err and "'bogus-key'" in err
        assert not (tmp_path / "out").exists()

    def test_config_key_of_another_ssm_action_names_the_action(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"components": 4}))
        rc = main(
            [
                "ssm", "encode", "--template", "t", "--model", "m", "--meshes", "s",
                "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "'components' is not a flag of cardioshape ssm encode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value", [("subjects", "abc"), ("scale", [0.1]), ("subjects", True), ("frames", None)]
    )
    def test_config_value_of_wrong_type_names_file_and_key(self, tmp_path, capsys, key, value):
        (tmp_path / "cfg.json").write_text(json.dumps({"frames": 1, key: value}))
        rc = main(["synth", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config {tmp_path / 'cfg.json'}: {key!r}" in err and "usage" not in err
        assert not (tmp_path / "out").exists()

    def test_config_null_stands_for_a_none_default(self, tmp_path):
        features = str(tmp_path / "f.csv")
        cio.save_features_csv(features, np.random.default_rng(0).normal(size=(6, 4)))
        (tmp_path / "cfg.json").write_text(json.dumps({"pcs": None}))
        rc = main(
            [
                "reid", "--features-t1", features, "--features-t2", features, "--k", "1",
                "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0

    def test_config_store_true_flag_takes_only_a_boolean(self, tmp_path, capsys):
        # the string "false" is truthy: taken as is, it would turn --views on
        (tmp_path / "cfg.json").write_text(json.dumps({"subjects": 1, "frames": 1, "views": "false"}))
        rc = main(["synth", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config {tmp_path / 'cfg.json'}: 'views' must be true or false" in err
        assert not (tmp_path / "out").exists()

    def test_config_fixed_count_flag_takes_only_that_many_items(self, tmp_path, capsys):
        # taken as is, two dims would fail deep in the fit, naming neither file nor key
        (tmp_path / "cfg.json").write_text(json.dumps({"dims-coarse": [6, 6]}))
        rc = main(
            [
                "fit", "--template", str(tmp_path / "template"), "--targets",
                str(tmp_path / "targets.bin"), "--config", str(tmp_path / "cfg.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config {tmp_path / 'cfg.json'}: 'dims-coarse' must be a list of 3 items" in err
        assert not (tmp_path / "out").exists()

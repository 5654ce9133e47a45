"""The four workloads: inputs made from a seed, one round of operations, and
the checks of their outputs.

A workload's ``setup`` builds its inputs in memory; ``run_round`` performs
one whole round of the same operations and returns a ``Round`` holding the
wall times of the operations the end-to-end metrics name; ``check``
verifies the outputs.
Every round of a run performs the same operations, so a failing operation
fails in every round.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from cardioshape import cli
from cardioshape import io as cio
from cardioshape.fitting import FitConfig, fit_sequence
from cardioshape.mesh import STRUCTURES, MeshSequence, devectorize, vectorize
from cardioshape.motion import eval_intersections, mc_optimize
from cardioshape.objectives import TargetClouds
from cardioshape.population import (
    FeatureMatrix,
    precision_at_k,
    recall_at_k,
    signed_variation,
    vertex_correlation,
)
from cardioshape.ssm import (
    ShapeModel,
    complete_sequence,
    decode,
    encode,
    fit_to_contours,
    ipca_partial_fit,
)
from cardioshape.synth import (
    FULL_SCALE_BUDGETS,
    SynthConfig,
    VolumeGeometry,
    default_view_specs,
    intensity_volume,
    make_texture,
    plane_section,
    slice_views,
    synth_population,
    voxelize_sequence,
)


def derive(seed, *keys):
    """An integer seed for one purpose, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def rng(seed, *keys):
    return np.random.Generator(np.random.Philox(derive(seed, *keys)))


class Round:
    """What one round did: operation counts and named wall times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = {}

    def timed(self, metric, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples.setdefault(metric, []).append(time.perf_counter() - t0)
        self.attempted += 1
        return result


# ---------------------------------------------------------------------------


class SubjectFit:
    """One subject at paper scale through ``fit_sequence``."""

    n_frames = 10
    iterations = 2

    def setup(self, seed):
        cfg = SynthConfig(
            seed=derive(seed, 1), budgets=FULL_SCALE_BUDGETS, n_frames=self.n_frames
        )
        pop = synth_population(cfg, 1)
        targets = TargetClouds.from_sequence(pop.sequences[0])
        return {"template": pop.template, "target_frames": targets.frames}

    def run_round(self, state, tracer, index):
        r = Round()
        cfg = FitConfig(iterations=self.iterations)
        # fresh clouds each round: their KD-trees are built inside the fit
        state["targets"] = TargetClouds(state["target_frames"])
        state["result"] = r.timed("fit_s", fit_sequence, state["template"], state["targets"], cfg)
        return r

    def check(self, state):
        template = {s: (state["template"][s].vertices, state["template"][s].faces) for s in STRUCTURES}
        seq, _, trace = state["result"]
        fitted = [{s: (fr[s].vertices, fr[s].faces) for s in STRUCTURES} for fr in seq.frames]
        targets = state["targets"]
        target_frames = [{s: targets.points(t, s) for s in STRUCTURES} for t in range(targets.n_frames)]
        losses = np.array([loss for _, _, loss in trace])
        return [checks.check_fit(template, fitted, target_frames, losses)]


# ---------------------------------------------------------------------------


class Motion:
    """Criterion-3 view sets (7 short-axis + 2 long-axis planes, 64 x 64,
    T = 10) corrected by ``mc_optimize`` at 200 epochs."""

    n_view_sets = 4
    epochs = 200

    def setup(self, seed):
        cfg = SynthConfig(scale=0.05, n_frames=10, seed=derive(seed, 1), voxel_size=2.0)
        pop = synth_population(cfg, 1)
        # One fixed frame, so every seed samples the same planes.  Criterion
        # 3's 96 x 96 x 128 mm default does not hold every subject (the
        # LV reaches x = -50.5 mm over 300 seeds); this one is 112 mm wide.
        geom = VolumeGeometry.for_bounds((-52.0, -44.0, -60.0), (52.0, 44.0, 60.0), cfg.voxel_size)
        labels = voxelize_sequence(pop.sequences[0], geom)
        texture = make_texture(geom.dims, rng(seed, 2))
        intens = [intensity_volume(labels[t], texture=texture) for t in range(cfg.n_frames)]
        specs = default_view_specs(geom, n_sax=7, pixel_spacing=1.5, size=64)
        view_sets = [
            slice_views(intens, labels, geom, specs, 2.0, rng(seed, 3, k))
            for k in range(self.n_view_sets)
        ]
        return {"view_sets": view_sets, "results": {}}

    def run_round(self, state, tracer, index):
        r = Round()
        k = index % self.n_view_sets
        views, injected = state["view_sets"][k]
        for plane in views.planes():
            plane.displacement = np.zeros(2)

        def correct():
            before = eval_intersections(views)
            recovered, _ = mc_optimize(views, lr=0.1, epochs=self.epochs)
            return recovered, before, eval_intersections(views)

        recovered, before, after = r.timed("mc_viewset_s", correct)
        axes = {p.plane_id: (p.axis_u, p.axis_v) for p in views.planes()}
        state["results"][k] = (axes, recovered, injected, before, after)
        return r

    def check(self, state):
        return [checks.check_motion(list(state["results"].values()))]


# ---------------------------------------------------------------------------


class ShapeModelWorkload:
    """Criterion 6/7-style cohort: mini-batch training, then contour fits,
    completions, encoding and population analytics.

    A round is short and holds every kind of operation once or a few times,
    so a run's median of each kind draws on samples spread over the run.
    """

    n_subjects = 90
    n_train = 70
    batch = 10
    components = 20
    contour_iters = 200
    observed_frames = (0, 5)
    trains_per_round = 2
    completions_per_round = 5

    def setup(self, seed):
        cfg = SynthConfig(scale=0.03, n_frames=10, seed=derive(seed, 1), n_modes=6)
        pop = synth_population(cfg, self.n_subjects)
        r = rng(seed, 2)
        n = 400
        return {
            "seed": seed,
            "pop": pop,
            "topology": pop.sequences[0].topology(),
            "vectors": np.stack([vectorize(s) for s in pop.sequences]),
            # criterion 9's null data: labels and fields unrelated to features
            "random_features": r.normal(size=(n, 8)),
            "random_groups": (np.arange(n) % 2).astype(int),
            "noise_fields": r.normal(size=(1000, 2000)),
            "noise_attribute": r.normal(size=1000),
            "contour": [],
            "completed": {},
        }

    def _train(self, state):
        model = ShapeModel(n_components=self.components, topology=state["topology"])
        rows = state["vectors"][: self.n_train]
        for start in range(0, len(rows), self.batch):
            ipca_partial_fit(model, rows[start : start + self.batch])
        return model

    def _contour_subject(self, model, seed_int):
        """Criterion 7's recipe: a subject decoded from known weights, cut by
        10 short-axis and 10 long-axis planes, at most ~20 points per cut."""
        topo = model.topology
        ev = model.explained_variance
        r = np.random.Generator(np.random.Philox(seed_int))
        w_true = np.zeros(model.n_active)
        for k in range(5):
            w_true[k] = r.choice([-1, 1]) * r.uniform(1.2, 2.0) * np.sqrt(ev[k])
        w_true[5:] = r.normal(0, 0.2, model.n_active - 5) * np.sqrt(ev[5:])
        seq = devectorize(decode(model, w_true), topo)
        planes = [
            (np.array([0.37, -0.61, z]), np.array([0.0, 0.0, 1.0]))
            for z in np.linspace(-46, 44, 10)
        ] + [
            (np.array([0.37, -0.61, 0.29]), np.array([np.sin(a), -np.cos(a), 0.0]))
            for a in np.linspace(0.13, np.pi - 0.22, 10)
        ]
        contours = []
        for t in range(topo.n_frames):
            frame = {}
            for s in STRUCTURES:
                pts = []
                for origin, normal in planes:
                    p = plane_section(seq.frames[t][s], origin, normal)
                    if len(p) > 20:
                        p = p[:: len(p) // 20 + 1]
                    if len(p):
                        pts.append(p)
                if pts:
                    frame[s] = np.concatenate(pts)
            contours.append(frame)
        return w_true, contours

    def _analytics(self, state, model):
        pop = state["pop"]
        topo = state["topology"]
        descriptors = FeatureMatrix(np.stack([encode(model, v) for v in state["vectors"]]))
        single = precision_at_k(
            descriptors, np.zeros(descriptors.n_subjects, dtype=int), 10, n_queries=500, seed=1
        )
        recall_self = recall_at_k(descriptors, FeatureMatrix(descriptors.raw.copy()), 1)
        random_two = precision_at_k(
            FeatureMatrix(state["random_features"]), state["random_groups"], 10,
            n_queries=5000, seed=2,
        )
        mean_seq = devectorize(model.mean, topo)
        held_out = range(self.n_train, self.n_subjects)
        fields = np.stack([signed_variation(pop.sequences[i], mean_seq) for i in held_out])
        age = pop.attributes["age"][self.n_train :]
        r, _, _ = vertex_correlation(fields, age)
        _, _, significant = vertex_correlation(state["noise_fields"], state["noise_attribute"])
        return {
            "single": single,
            "random_two": random_two,
            "recall_self": recall_self,
            "null_share": float(significant.mean()),
            "r": r,
            "fields": fields,
            "age": age,
        }

    def run_round(self, state, tracer, index):
        rnd = Round()
        for _ in range(self.trains_per_round):
            model = rnd.timed("ssm_train_s", self._train, state)
        w_true, contours = self._contour_subject(model, derive(state["seed"], 3, index))
        w_hat = rnd.timed(
            "contour_fit_s", fit_to_contours, model, contours, lr=0.05, iters=self.contour_iters
        )
        state["contour"].append((w_hat, w_true))
        observed = np.zeros(state["topology"].n_frames, dtype=bool)
        observed[list(self.observed_frames)] = True
        n_held = self.n_subjects - self.n_train
        for j in range(self.completions_per_round):
            i = self.n_train + (index * self.completions_per_round + j) % n_held
            seq = rnd.timed("complete_s", complete_sequence, model, state["pop"].sequences[i], observed)
            state["completed"][i] = vectorize(seq)
        analytics = rnd.timed("analytics_s", self._analytics, state, model)
        state["result"] = (model, observed, analytics)
        return rnd

    def check(self, state):
        model, observed, a = state["result"]
        vectors = state["vectors"]
        out = [checks.check_components(model.components, vectors[: self.n_train], 5)]
        out += [checks.check_contour_weights(w_hat, w_true) for w_hat, w_true in state["contour"]]
        per_frame = vectors.shape[1] // len(observed)
        rows = np.concatenate(
            [np.arange(t * per_frame, (t + 1) * per_frame) for t in np.flatnonzero(observed)]
        )
        scale = np.sqrt(np.maximum(model.explained_variance, 0.0))
        for i, vec in sorted(state["completed"].items()):
            w = checks.lstsq_completion(model.mean, model.components, scale, rows, vectors[i])
            reference = model.mean + model.components.T @ w
            out.append(checks.check_completion(vec, reference, model.mean, vectors[i]))
        out.append(
            checks.check_analytics(
                a["single"], a["random_two"], a["recall_self"], a["null_share"],
                a["r"], a["fields"], a["age"],
            )
        )
        return out


# ---------------------------------------------------------------------------


class CohortCli:
    """Criterion 10's command sequence through ``cli.main`` with files on disk."""

    n_subjects = 4
    n_frames = 4
    voxel_mm = 2.0
    # one rigid motion for a whole sequence: 10, -5 and 20 degrees, then a shift
    pose_angles_deg = (10.0, -5.0, 20.0)
    pose_shift_mm = (7.0, -4.0, 3.0)

    def __init__(self, work_dir, src_dir):
        self.work_dir = Path(work_dir)
        self.src_dir = Path(src_dir)

    def setup(self, seed):
        """A fresh work directory and one command-line start-up: a new
        interpreter importing ``cardioshape.cli``, which every command pays
        and the in-process pipeline does not repeat."""
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        self.work_dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(self.src_dir))
        subprocess.run([sys.executable, "-c", "import cardioshape.cli"], env=env, check=True)
        return {"seed": derive(seed, 1) % 100000}

    def _cli(self, rnd, state, tracer, name, argv):
        idx = tracer.begin(f"cli.{name}")
        try:
            rc = rnd.timed("command_s", cli.main, [str(a) for a in argv])
        finally:
            tracer.end(idx)
        state["rc"].append((name, rc))
        rnd.failed += rc != 0
        return rc

    @classmethod
    def _pose(cls):
        ax, ay, az = np.radians(cls.pose_angles_deg)
        rx = np.array([[1, 0, 0], [0, np.cos(ax), -np.sin(ax)], [0, np.sin(ax), np.cos(ax)]])
        ry = np.array([[np.cos(ay), 0, np.sin(ay)], [0, 1, 0], [-np.sin(ay), 0, np.cos(ay)]])
        rz = np.array([[np.cos(az), -np.sin(az), 0], [np.sin(az), np.cos(az), 0], [0, 0, 1]])
        return rz @ ry @ rx, np.array(cls.pose_shift_mm)

    def run_round(self, state, tracer, index):
        rnd = Round()
        state["rc"] = []
        root = self.work_dir / "round"
        if root.exists():
            shutil.rmtree(root)
        root.mkdir()
        seed = state["seed"]
        common = ["--seed", seed]
        synth = root / "synth"
        template = synth / "template"
        subjects = [f"subject_{i:03d}" for i in range(self.n_subjects)]

        def run(name, *argv):
            return self._cli(rnd, state, tracer, name, argv)

        run("synth", "synth", "--subjects", self.n_subjects, "--scale", 0.04,
            "--frames", self.n_frames, "--voxel-size", self.voxel_mm, "--sax", 5,
            "--views", *common, "--out", synth)
        run("mc", "mc", "--views", synth / subjects[0] / "views.bin", "--epochs", 120,
            *common, "--out", root / "mc")
        for s in subjects:
            run("fit", "fit", "--template", template, "--targets", synth / s / "targets.bin",
                "--iterations", 40, "--lr", 0.5, "--dims-coarse", 6, 6, 8,
                "--dims-mid", 8, 8, 10, "--dims-fine", 10, 10, 12,
                *common, "--out", root / "fit" / s)
        model = root / "ssm" / "model.hssm"
        run("ssm_train", "ssm", "train", "--data", root / "fit", "--template", template,
            "--components", 4, "--batch-size", 2, *common, "--out", root / "ssm")
        for s in subjects:
            run("ssm_encode", "ssm", "encode", "--template", template, "--model", model,
                "--meshes", root / "fit" / s / "meshes", *common, "--out", root / "desc" / s)
        run("pheno", "pheno", "--data", root / "fit", *common, "--out", root / "pheno_fit")
        run("pheno", "pheno", "--data", synth, *common, "--out", root / "pheno_truth")

        truth = json.loads((synth / "ground_truth.json").read_text())
        descriptors = np.stack(
            [cio.load_features_csv(root / "desc" / s / "descriptor.csv")[1][0] for s in subjects]
        )
        cio.save_features_csv(root / "features.csv", descriptors)
        cio.save_groups_csv(root / "groups.csv", [str(g) for g in truth["attributes"]["group"]])
        cio.save_features_csv(root / "attributes.csv", np.array(truth["attributes"]["age"])[:, None])
        run("retrieve", "retrieve", "--features", root / "features.csv", "--groups",
            root / "groups.csv", "--k", 1, "--queries", 50, *common, "--out", root / "retrieve")
        run("ssm_complete", "ssm", "complete", "--model", model, "--template", template,
            "--meshes", root / "fit" / subjects[1] / "meshes", "--observed", "0,2",
            *common, "--out", root / "complete")
        run("corr", "corr", "--data", root / "fit", "--model", model, "--template", template,
            "--attributes", root / "attributes.csv", "--attribute", "f0", *common,
            "--out", root / "corr")

        # Pose invariance: a rigidly moved copy of a fitted subject must
        # encode to the same descriptor as the subject itself.
        rotation, shift = self._pose()
        fitted = cio.load_sequence(root / "fit" / subjects[0] / "meshes")
        moved = MeshSequence([fr.transformed(rotation=rotation, translation=shift) for fr in fitted.frames])
        cio.save_sequence(root / "moved" / "meshes", moved)
        rc = run("ssm_encode", "ssm", "encode", "--template", template, "--model", model,
                 "--meshes", root / "moved" / "meshes", *common, "--out", root / "desc_moved")
        if rc == 0:
            same = checks.descriptors_equal(
                descriptors[0], cio.load_features_csv(root / "desc_moved" / "descriptor.csv")[1][0]
            )
            rnd.failed += not same
        rnd.samples["pipeline_s"] = [sum(rnd.samples["command_s"])]
        state["root"] = root
        state["truth"] = truth
        return rnd

    def check(self, state):
        root = state["root"]
        bad = [name for name, rc in state["rc"] if rc != 0]
        out = [(not bad, f"commands exiting non-zero: {bad or 'none'}")]
        if bad:
            return out
        subjects = [f"subject_{i:03d}" for i in range(self.n_subjects)]
        assd = [
            checks.subject_assd(
                checks.read_sequence_vertices(root / "fit" / s / "meshes", STRUCTURES),
                checks.read_sequence_vertices(root / "synth" / s / "meshes", STRUCTURES),
            )
            for s in subjects
        ]
        out.append(checks.check_assd(assd, self.voxel_mm))
        truth_table = checks.read_phenotypes(root / "pheno_truth" / "phenotypes.csv")
        scales = {s: state["truth"]["subjects"][str(i)]["motion_scale"] for i, s in enumerate(subjects)}
        out.append(checks.check_ground_truth_ef(truth_table, scales, self.n_frames))
        fitted_table = checks.read_phenotypes(root / "pheno_fit" / "phenotypes.csv")
        out.append(checks.check_fitted_ef(fitted_table, truth_table))
        return out

    def cleanup(self):
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)

"""The benchmark's own tests: every check rejects a planted wrong answer,
the tracer reduces spans as documented, and BENCHMARK.json matches the
metrics ``run.py`` prints.

    python3 -m pytest benchmarks/test_checks.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from cardioshape.fitting import FitConfig, fit_sequence  # noqa: E402
from cardioshape.mesh import STRUCTURES  # noqa: E402
from cardioshape.objectives import TargetClouds  # noqa: E402
from cardioshape.ssm import ShapeModel, ipca_partial_fit  # noqa: E402
from cardioshape.synth import (  # noqa: E402
    SynthConfig,
    VolumeGeometry,
    default_view_specs,
    synth_population,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# subject fit


@pytest.fixture(scope="module")
def small_fit():
    pop = synth_population(SynthConfig(scale=0.02, n_frames=2, seed=4), 1)
    targets = TargetClouds.from_sequence(pop.sequences[0])
    cfg = FitConfig(dims_coarse=(5, 5, 5), dims_mid=(6, 6, 6), dims_fine=(6, 6, 6),
                    iterations=4, lr=0.3)
    seq, _, trace = fit_sequence(pop.template, targets, cfg)
    template = {s: (pop.template[s].vertices, pop.template[s].faces) for s in STRUCTURES}
    fitted = [{s: (fr[s].vertices, fr[s].faces) for s in STRUCTURES} for fr in seq.frames]
    target_frames = [{s: targets.points(t, s) for s in STRUCTURES} for t in range(2)]
    losses = np.array([loss for _, _, loss in trace])
    return template, fitted, target_frames, losses


def test_fit_check_accepts_the_fit(small_fit):
    assert checks.check_fit(*small_fit)[0]


def test_fit_check_rejects_the_template_in_place_of_the_fit(small_fit):
    template, _, target_frames, losses = small_fit
    as_fit = [dict(template) for _ in target_frames]
    assert not checks.check_fit(template, as_fit, target_frames, losses)[0]


def test_fit_check_rejects_changed_connectivity_and_bad_losses(small_fit):
    template, fitted, target_frames, losses = small_fit
    broken = [dict(fr) for fr in fitted]
    verts, faces = broken[1]["RV"]
    broken[1]["RV"] = (verts, faces[:, ::-1])
    assert not checks.check_fit(template, broken, target_frames, losses)[0]
    assert not checks.check_fit(template, fitted, target_frames, np.append(losses, np.nan))[0]


# ---------------------------------------------------------------------------
# motion correction


def _view_axes():
    specs = default_view_specs(VolumeGeometry.default(2.0), n_sax=7, pixel_spacing=1.5, size=64)
    planes = list(specs[0]) + [specs[1], specs[2]]
    return {p.plane_id: (p.axis_u, p.axis_v) for p in planes}


def _view_result(seed, recovered_fn, before=(0.7, 0.97), after=(0.9, 0.999)):
    axes = _view_axes()
    r = _rng(seed)
    injected = {k: r.normal(0.0, 2.0, 2) for k in axes}
    shift = r.normal(0.0, 1.0, 3)  # the unobservable common translation
    recovered = {k: recovered_fn(k, axes[k], injected[k], shift, r) for k in axes}
    metrics = [{"dice": d, "pearson_r": c} for d, c in (before, after)]
    return axes, recovered, injected, metrics[0], metrics[1]


def _good(k, axes, injected, shift, r):
    return -injected + np.array([axes[0] @ shift, axes[1] @ shift]) + r.normal(0, 0.05, 2)


def test_motion_check_accepts_recovery_up_to_a_common_shift():
    ok, detail = checks.check_motion([_view_result(s, _good) for s in range(3)])
    assert ok, detail


def test_motion_check_rejects_zero_displacements():
    zero = lambda k, axes, injected, shift, r: np.zeros(2)  # noqa: E731
    assert not checks.check_motion([_view_result(s, zero) for s in range(3)])[0]


def test_motion_check_rejects_less_consistent_intersections():
    results = [_view_result(s, _good) for s in range(3)]
    # one view set's Dice may fall (a sparsely sampled label) ...
    assert checks.check_motion(results + [_view_result(9, _good, (0.79, 0.97), (0.77, 0.999))])[0]
    # ... but not its intensity correlation, nor Dice on average
    assert not checks.check_motion(results + [_view_result(9, _good, (0.7, 0.97), (0.9, 0.96))])[0]
    unchanged = [_view_result(s, _good, (0.8, 0.97), (0.8, 0.999)) for s in range(3)]
    assert not checks.check_motion(unchanged)[0]


# ---------------------------------------------------------------------------
# shape model


@pytest.fixture(scope="module")
def low_rank():
    r = _rng(5)
    basis = np.linalg.qr(r.normal(size=(60, 6)))[0]
    rows = (r.normal(size=(40, 6)) * np.linspace(4, 1, 6)) @ basis.T + r.normal(size=60)
    model = ShapeModel(n_components=8)
    for start in range(0, 40, 10):
        ipca_partial_fit(model, rows[start : start + 10])
    return model, rows


def test_component_check_accepts_ipca_and_rejects_other_directions(low_rank):
    model, rows = low_rank
    assert checks.check_components(model.components, rows, 4)[0]
    rotated = np.roll(model.components, 1, axis=0)
    assert not checks.check_components(rotated, rows, 4)[0]


def test_contour_check_rejects_a_perturbed_descriptor():
    w_true = np.array([3.0, -2.0, 1.5, -1.0, 0.8, 0.1])
    assert checks.check_contour_weights(w_true * 1.05, w_true)[0]
    perturbed = w_true.copy()
    perturbed[3] *= 1.3
    assert not checks.check_contour_weights(perturbed, w_true)[0]


def test_completion_check_rejects_a_perturbed_descriptor(low_rank):
    model, rows = low_rank
    truth = rows[7]
    observed_rows = np.arange(0, 30)
    scale = np.sqrt(model.explained_variance)
    w = checks.lstsq_completion(model.mean, model.components, scale, observed_rows, truth)
    reference = model.mean + model.components.T @ w
    assert checks.check_completion(reference, reference, model.mean, truth)[0]
    perturbed = model.mean + model.components.T @ (w + 0.5 * scale)
    assert not checks.check_completion(perturbed, reference, model.mean, truth)[0]


def test_analytics_check_rejects_a_wrong_correlation():
    r = _rng(6)
    fields = r.normal(size=(20, 30))
    attribute = r.normal(size=20)
    ref = np.array([np.corrcoef(fields[:, j], attribute)[0, 1] for j in range(30)])
    assert checks.check_analytics(100.0, 49.5, 100.0, 0.0, ref, fields, attribute)[0]
    assert not checks.check_analytics(100.0, 49.5, 100.0, 0.0, ref + 1e-6, fields, attribute)[0]
    assert not checks.check_analytics(100.0, 58.0, 100.0, 0.0, ref, fields, attribute)[0]
    assert not checks.check_analytics(100.0, 49.5, 99.0, 0.0, ref, fields, attribute)[0]


# ---------------------------------------------------------------------------
# command-line outputs


def test_ground_truth_ef_check_rejects_a_wrong_ef():
    scales = {"subject_000": 0.9, "subject_001": 1.3}
    table = {
        sid: {"LVEF": checks.analytic_ef(s, 1.0, 4), "RVEF": checks.analytic_ef(s, 0.8, 4)}
        for sid, s in scales.items()
    }
    assert checks.check_ground_truth_ef(table, scales, 4)[0]
    table["subject_001"]["RVEF"] += 1e-6
    assert not checks.check_ground_truth_ef(table, scales, 4)[0]


def test_analytic_ef_is_the_volume_ratio_of_the_contraction():
    # frame count 3 reaches the peak sin^2 = 1 at the middle frame
    f_min = 1.0 - 0.16 * 1.2 * 0.8
    assert checks.analytic_ef(1.2, 0.8, 3) == pytest.approx(100.0 * (1.0 - f_min**3), rel=1e-15)


def test_fitted_ef_check_rejects_a_wrong_ef():
    truth = {"a": {"LVEF": 30.0, "RVEF": 25.0}}
    assert checks.check_fitted_ef({"a": {"LVEF": 32.0, "RVEF": 20.0}}, truth)[0]
    assert not checks.check_fitted_ef({"a": {"LVEF": 36.0, "RVEF": 25.0}}, truth)[0]


def test_assd_and_readers_from_files(tmp_path):
    verts = _rng(7).normal(size=(50, 3))
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in verts]
    for t in range(2):
        for s in STRUCTURES:
            (tmp_path / f"frame_{t:03d}_{s}.obj").write_text("".join(lines) + "f 1 2 3\n")
    frames = checks.read_sequence_vertices(tmp_path, STRUCTURES)
    assert len(frames) == 2 and np.array_equal(frames[1]["RA"], verts)
    moved = [{s: v + np.array([0.0, 0.0, 3.0]) for s, v in fr.items()} for fr in frames]
    assert checks.subject_assd(frames, frames) == 0.0
    assert checks.check_assd([checks.subject_assd(frames, frames)], 2.0)[0]
    assert not checks.check_assd([checks.subject_assd(moved, frames)], 2.0)[0]
    (tmp_path / "phenotypes.csv").write_text(
        "subject_id,LVEF (%),RVEF (%)\nsubject_000,31.5,24.25\n"
    )
    assert checks.read_phenotypes(tmp_path / "phenotypes.csv") == {
        "subject_000": {"LVEF": 31.5, "RVEF": 24.25}
    }


def test_descriptors_equal_is_tight():
    d = np.array([13.8, 57.2, 35.2, -0.46])
    assert checks.descriptors_equal(d, d + 1e-9)
    assert not checks.descriptors_equal(d, d + 1e-3)


# ---------------------------------------------------------------------------
# tracer and benchmark definition


def test_tracer_self_time_counts_and_replacement():
    import types

    mod = types.ModuleType("fake")
    other = types.ModuleType("other")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    other.inner = inner  # as if imported with ``from fake import inner``
    tracer = tracing.Tracer()
    tracer.wrap_function([mod, other], mod, "inner", "fake.inner",
                         lambda a, k, r: tracer.count("fake.calls"))
    tracer.wrap_function([mod, other], mod, "outer", "fake.outer")
    assert other.inner is mod.inner
    tracer.enabled = True
    assert mod.outer(1) == 4 and other.inner(1) == 2
    inclusive, self_time, counts = tracer.totals()
    assert counts["fake.calls"] == 2
    assert self_time["fake.outer"] <= inclusive["fake.outer"]
    outer_span = next(s for s in tracer.spans if s[0] == "fake.outer")
    child = next(s for s in tracer.spans if s[3] == tracer.spans.index(outer_span))
    assert child[0] == "fake.inner"
    tracer.enabled = False
    mod.outer(1)
    assert tracer.totals()[2]["fake.calls"] == 2


def test_benchmark_json_lists_what_run_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "benchmarks/run.py"]
    assert doc["paths"] == ["benchmarks"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]


def test_run_refuses_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_*"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "motion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

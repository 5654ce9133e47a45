"""The acceptance suite: one callable check per criterion.

Each check builds its own seeded synthetic data, verifies the stated
tolerances against independent oracles, and reports pass/fail with details.
``tests/test_acceptance.py`` asserts these; the CLI ``eval`` runs them
standalone and writes a report.
"""

import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import subspace_angles
from scipy.spatial import distance_matrix

from . import io as cio
from . import ssm as cssm
from .ffd import ControlGrid, compose_warp, compose_warp_gradient, warp_gradient, warp_points
from .fitting import FitConfig, fit_sequence
from .mesh import STRUCTURES, ChamberSet, MeshSequence, TriMesh, devectorize, vectorize
from .motion import eval_intersections, mc_optimize
from .objectives import (
    TargetClouds,
    cycle_loss,
    curvature_loss,
    edge_loss,
    recon_loss,
    surface_distances,
)
from .phenotypes import mesh_volume, phenotype_table
from .population import FeatureMatrix, precision_at_k, recall_at_k, truncate_descriptor, vertex_correlation
from .synth import (
    SynthConfig,
    VolumeGeometry,
    default_view_specs,
    icosphere,
    intensity_volume,
    make_template,
    make_texture,
    plane_section,
    seeded_rng,
    slice_views,
    synth_population,
    voxelize_sequence,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float


def _result(number, name, passed, detail, t0):
    return CriterionResult(number, name, bool(passed), detail, time.time() - t0)


# ---------------------------------------------------------------------------


def criterion_1_ffd():
    """Identity warp exact, translation < 1e-12, gradients vs FD < 1e-5."""
    t0 = time.time()
    rng = seeded_rng(101)
    grid = ControlGrid((6, 6, 8), origin=(-50, -50, -60), spacing=(20, 20, 20))
    pts = rng.uniform(-45, 45, (300, 3))
    identity_err = float(np.abs(warp_points(grid, pts) - pts).max())

    grid.displacements[:] = [1.5, -2.25, 0.75]
    translation_err = float(
        np.abs(warp_points(grid, pts) - pts - [1.5, -2.25, 0.75]).max()
    )

    h = 1e-4
    worst = 0.0
    for trial in range(20):
        g = ControlGrid((5, 5, 5), origin=(-1, -1, -1), spacing=(0.5, 0.5, 0.5))
        g.displacements = rng.normal(0, 0.05, g.displacements.shape)
        p = rng.uniform(-0.4, 0.9, (25, 3))
        up = rng.normal(0, 1.0, (25, 3))
        if trial % 2 == 0:
            grad = warp_gradient(g, p, up)
            grads = [grad]
            grids = [g]
        else:
            g2 = ControlGrid((7, 7, 7), origin=(-1, -1, -1), spacing=(1 / 3,) * 3)
            g2.displacements = rng.normal(0, 0.03, g2.displacements.shape)
            grids = [g, g2]
            grads, _ = compose_warp_gradient(grids, p, up)
        gmax = max(np.abs(x).max() for x in grads)
        for gi, ref in enumerate(grids):
            for fi in rng.choice(ref.displacements.size, 8, replace=False):
                idx = np.unravel_index(fi, ref.displacements.shape)
                plus = [x.displacements.copy() for x in grids]
                minus = [x.displacements.copy() for x in grids]
                plus[gi][idx] += h
                minus[gi][idx] -= h

                def value(disps):
                    chain = [
                        ControlGrid(x.dims, x.origin, x.spacing, d)
                        for x, d in zip(grids, disps)
                    ]
                    return float(np.sum(compose_warp(chain, p) * up))

                fd = (value(plus) - value(minus)) / (2 * h)
                if abs(fd) > 1e-3 * gmax:
                    worst = max(worst, abs(grads[gi][idx] - fd) / abs(fd))
    passed = identity_err == 0.0 and translation_err < 1e-12 and worst < 1e-5
    return _result(
        1,
        "FFD correctness",
        passed,
        f"identity {identity_err:g}, translation {translation_err:.2e}, "
        f"gradient rel err {worst:.2e}",
        t0,
    )


def _pooled(seq):
    """A sequence as the fit losses take it: (T, V, 3) coordinates, topology."""
    return vectorize(seq).reshape(seq.n_frames, -1, 3), seq.topology()


def _oracle_symmetric(a, b):
    d = distance_matrix(a, b)
    return d.min(axis=1).mean() + d.min(axis=0).mean()


def criterion_2_loss_oracles():
    """Loss terms equal exhaustive oracles; curvature loss rigid-invariant."""
    t0 = time.time()
    rng = seeded_rng(202)
    cfg = SynthConfig(scale=0.02, n_frames=3, seed=7)
    pop = synth_population(cfg, 1)
    seq = pop.sequences[0]
    curv = pop.curvatures

    targets = TargetClouds(
        [
            {
                s: fr[s].vertices[: min(100, fr[s].n_vertices)]
                + rng.normal(0, 3.0, (min(100, fr[s].n_vertices), 3))
                for s in STRUCTURES
            }
            for fr in seq.frames
        ]
    )
    x, topo = _pooled(seq)
    value, _ = recon_loss(x, topo, targets)
    oracle = (
        sum(
            _oracle_symmetric(fr[s].vertices, targets.points(t, s))
            for t, fr in enumerate(seq.frames)
            for s in STRUCTURES
        )
        / seq.n_frames
    )
    recon_err = abs(value - oracle)

    a = rng.normal(0, 10, (180, 3))
    b = rng.normal(1, 9, (220, 3))
    sd = surface_distances(a, b)
    dm = distance_matrix(a, b)
    pooled = np.concatenate([dm.min(axis=1), dm.min(axis=0)])
    sd_err = max(
        abs(sd["assd"] - pooled.mean()),
        abs(sd["uni_assd_a_to_b"] - dm.min(axis=1).mean()),
        abs(sd["hd90"] - np.percentile(pooled, 90)),
    )

    value_e, _ = edge_loss(x, topo)
    oracle_e = 0.0
    for t, fr in enumerate(seq.frames):
        for s in STRUCTURES:
            edges = set()
            for f in fr[s].faces:
                for i in range(3):
                    e = (min(f[i], f[(i + 1) % 3]), max(f[i], f[(i + 1) % 3]))
                    edges.add(e)
            lengths = np.array(
                [
                    np.sqrt(((fr[s].vertices[i] - fr[s].vertices[j]) ** 2).sum())
                    for i, j in sorted(edges)
                ]
            )
            oracle_e += np.sqrt(((lengths - lengths.mean()) ** 2).mean())
    edge_err = abs(value_e - oracle_e / seq.n_frames)

    value_c, _ = cycle_loss(x, topo)
    oracle_c = sum(
        np.linalg.norm(
            seq.frames[-1][s].vertices - seq.frames[0][s].vertices, axis=1
        ).mean()
        for s in STRUCTURES
    )
    cycle_err = abs(value_c - oracle_c)

    curv_self, _ = curvature_loss(*_pooled(MeshSequence([pop.template] * 2)), curv)
    rot = np.array(
        [
            [0.36, -0.8, 0.48],
            [0.8, 0.46, 0.38],
            [-0.48, 0.38, 0.79],
        ]
    )
    q, _ = np.linalg.qr(rot)
    moved = pop.template.transformed(rotation=q, translation=np.array([5.0, -7.0, 3.0]))
    curv_rot, _ = curvature_loss(*_pooled(MeshSequence([moved])), curv)

    passed = (
        recon_err < 1e-12
        and sd_err < 1e-12
        and edge_err < 1e-12
        and cycle_err < 1e-12
        and curv_self == 0.0
        and abs(curv_rot) < 1e-9
    )
    return _result(
        2,
        "loss-term oracles",
        passed,
        f"recon {recon_err:.1e}, surface {sd_err:.1e}, edge {edge_err:.1e}, "
        f"cycle {cycle_err:.1e}, curv self {curv_self:g}, rotated {curv_rot:.1e}",
        t0,
    )


def criterion_3_motion(n_trials=50):
    """Inject-and-recover on seeded view sets at 64 x 64, T = 10."""
    t0 = time.time()
    cfg = SynthConfig(scale=0.05, n_frames=10, seed=11, voxel_size=2.0)
    pop = synth_population(cfg, 1)
    # the fixed 96 x 96 x 128 mm frame comfortably holds this seeded subject
    geom = VolumeGeometry.default(cfg.voxel_size)
    labels = voxelize_sequence(pop.sequences[0], geom)
    texture = make_texture(geom.dims, seeded_rng(999))
    intens = [
        intensity_volume(labels[t], texture=texture) for t in range(cfg.n_frames)
    ]
    specs = default_view_specs(geom, n_sax=7, pixel_spacing=1.5, size=64)
    errors = []
    dice_wins = 0
    for trial in range(n_trials):
        rng = seeded_rng(300 + trial)
        views, injected = slice_views(intens, labels, geom, specs, 2.0, rng)
        pre = eval_intersections(views)
        displacements, _ = mc_optimize(views, epochs=200)
        post = eval_intersections(views)
        errors.extend(
            float(np.linalg.norm(displacements[k] + injected[k])) for k in injected
        )
        dice_wins += post["dice"] > pre["dice"]
    median_err = float(np.median(errors))
    win_rate = dice_wins / n_trials
    passed = median_err < 0.5 and win_rate >= 0.95
    return _result(
        3,
        "motion-correction recovery",
        passed,
        f"median displacement error {median_err:.3f} mm, "
        f"dice improved in {dice_wins}/{n_trials} trials",
        t0,
    )


def criterion_4_fit():
    """Self-reconstruction at the default (~2,700-vertex) template, T = 10."""
    t0 = time.time()
    cfg = SynthConfig(scale=0.1, n_frames=10, seed=3)
    template, _ = make_template(cfg)
    p0 = template.all_vertices()
    lo = p0.min(axis=0) - 10
    hi = p0.max(axis=0) + 10
    rng = seeded_rng(404)

    coarse_true = ControlGrid.for_box(lo, hi, (6, 6, 8))
    coarse_true.displacements = rng.normal(0, 2.0, coarse_true.displacements.shape)
    base = warp_points(coarse_true, p0)
    fine_true = ControlGrid.for_box(lo, hi, (8, 8, 10))
    fine_disp = rng.normal(0, 1.5, fine_true.displacements.shape)
    n_frames = cfg.n_frames
    counts = np.cumsum([template[s].n_vertices for s in STRUCTURES])[:-1]
    frames = []
    for t in range(n_frames):
        fine_true.displacements = fine_disp * np.sin(np.pi * t / (n_frames - 1)) ** 2
        warped = warp_points(fine_true, base)
        frames.append(
            {
                s: np.ascontiguousarray(part)
                for s, part in zip(STRUCTURES, np.split(warped, counts))
            }
        )
    targets = TargetClouds(frames)

    fit_cfg = FitConfig(
        dims_coarse=(6, 6, 8),
        dims_mid=(8, 8, 10),
        dims_fine=(10, 10, 12),
        iterations=150,
        lr=0.5,
    )
    recon0, _ = recon_loss(*_pooled(MeshSequence([template] * n_frames)), targets)
    seq, grids, trace = fit_sequence(template, targets, fit_cfg)
    x, topo = _pooled(seq)
    recon1, _ = recon_loss(x, topo, targets)
    cyc, _ = cycle_loss(x, topo)
    connectivity_ok = all(
        np.array_equal(seq.frames[t][s].faces, template[s].faces)
        and seq.frames[t][s].n_vertices == template[s].n_vertices
        for t in range(n_frames)
        for s in STRUCTURES
    )
    worst_assd = max(
        surface_distances(seq.frames[t][s].vertices, targets.points(t, s))["assd"]
        for t in range(n_frames)
        for s in STRUCTURES
    )
    # synthetic-voxel unit = the generator's voxel size
    voxel = cfg.voxel_size
    passed = (
        recon1 < 0.1 * recon0
        and worst_assd < 0.5 * voxel
        and connectivity_ok
        and cyc < 0.1
    )
    return _result(
        4,
        "self-reconstruction fit",
        passed,
        f"recon {recon0:.2f} -> {recon1:.3f} ({100 * recon1 / recon0:.1f}%), "
        f"assd {worst_assd:.3f} mm (voxel {voxel}), cycle {cyc:.3f}, "
        f"connectivity {'kept' if connectivity_ok else 'BROKEN'}",
        t0,
    )


def criterion_5_ipca():
    """Streaming PCA matches the batch oracle on a rank-10 dataset."""
    t0 = time.time()
    rng = seeded_rng(505)
    basis = np.linalg.qr(rng.normal(size=(40, 10)))[0]
    scores = rng.normal(size=(500, 10)) * np.linspace(5, 0.5, 10)
    data = scores @ basis.T + rng.normal(size=40)

    model = cssm.ShapeModel(n_components=12)
    for start in range(0, 500, 128):
        cssm.ipca_partial_fit(model, data[start : start + 128])

    mean = data.mean(axis=0)
    _, s, vt = np.linalg.svd(data - mean, full_matrices=False)
    angles = subspace_angles(model.components[:10].T, vt[:10].T)
    recon_inc = (
        model.components[:10].T @ (model.components[:10] @ (data - model.mean).T)
    ).T + model.mean
    recon_batch = (vt[:10].T @ (vt[:10] @ (data - mean).T)).T + mean
    recon_err = float(np.abs(recon_inc - recon_batch).max())
    passed = float(angles.max()) < 1e-6 and recon_err < 1e-8
    return _result(
        5,
        "incremental PCA vs batch oracle",
        passed,
        f"max principal angle {angles.max():.2e} rad, recon diff {recon_err:.2e}",
        t0,
    )


def criterion_6_ssm_curves():
    """Compactness/generalization behaviour and completion trend."""
    t0 = time.time()
    cfg = SynthConfig(scale=0.03, n_frames=10, seed=21, n_modes=6)
    pop = synth_population(cfg, 120)
    topo = pop.sequences[0].topology()
    vectors = np.stack([vectorize(s) for s in pop.sequences])
    model = cssm.ShapeModel(n_components=40, topology=topo)
    for start in range(0, 70, 35):
        cssm.ipca_partial_fit(model, vectors[start : start + 35])

    comp = np.array([cssm.compactness(model, k) for k in range(1, model.n_active + 1)])
    comp_monotone = bool(np.all(np.diff(comp) >= -1e-12))
    comp_full = abs(comp[-1] - 1.0) < 1e-8

    test = vectors[70:90]
    ks = [k for k in (1, 2, 4, 8, 16) if k < model.n_active] + [model.n_active]
    per_vector = np.stack(
        [cssm.generalization_error(model, test, k)[2] for k in ks]
    )
    gen_monotone = bool(np.all(np.diff(per_vector, axis=0) <= 1e-12))

    wins = 0
    n_subj = 50
    for i in range(70, 70 + n_subj):
        errors = {}
        for n_obs in (1, 10):
            observed = np.zeros(10, dtype=bool)
            observed[np.linspace(0, 9, n_obs).astype(int)] = True
            completed = cssm.complete_sequence(model, pop.sequences[i], observed)
            diff = (vectorize(completed) - vectors[i]).reshape(-1, 3)
            errors[n_obs] = float(np.linalg.norm(diff, axis=1).mean())
        wins += errors[10] < errors[1]
    passed = comp_monotone and comp_full and gen_monotone and wins >= 0.9 * n_subj
    return _result(
        6,
        "shape-model behaviour curves",
        passed,
        f"compactness monotone={comp_monotone} full={comp[-1]:.10f}, "
        f"generalization monotone={gen_monotone}, "
        f"completion 10-frame wins {wins}/{n_subj}",
        t0,
    )


def _criterion_7_subject(model, subject_idx):
    """One recovery trial, on its own seed stream."""
    topo = model.topology
    ev = model.explained_variance
    rng = seeded_rng(np.random.SeedSequence([707, subject_idx]))
    sax = [
        (np.array([0.37, -0.61, z]), np.array([0.0, 0.0, 1.0]))
        for z in np.linspace(-46, 44, 10)
    ]
    la = [
        (np.array([0.37, -0.61, 0.29]), np.array([np.sin(a), -np.cos(a), 0.0]))
        for a in np.linspace(0.13, np.pi - 0.22, 10)
    ]
    planes = sax + la
    w_true = np.zeros(model.n_active)
    for k in range(5):
        w_true[k] = rng.choice([-1, 1]) * rng.uniform(1.2, 2.0) * np.sqrt(ev[k])
    w_true[5:] = rng.normal(0, 0.2, model.n_active - 5) * np.sqrt(ev[5:])
    seq = devectorize(cssm.decode(model, w_true), topo)
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
    w_hat = cssm.fit_to_contours(model, contours)
    rel = np.abs(w_hat[:5] - w_true[:5]) / np.abs(w_true[:5])
    return bool(np.all(rel < 0.10))


def criterion_7_contours(n_subjects=30):
    """Descriptor recovery from self-generated sparse contours.

    Trials are independent per subject (own seed stream), so results do
    not depend on their order.
    """
    t0 = time.time()
    cfg = SynthConfig(scale=0.04, n_frames=10, seed=21, n_modes=6)
    pop = synth_population(cfg, 70)
    topo = pop.sequences[0].topology()
    vectors = np.stack([vectorize(s) for s in pop.sequences])
    model = cssm.ShapeModel(n_components=20, topology=topo)
    cssm.ipca_partial_fit(model, vectors)

    outcomes = [_criterion_7_subject(model, i) for i in range(n_subjects)]
    ok = sum(outcomes)
    passed = ok >= 0.9 * n_subjects
    return _result(
        7,
        "contour-fitting recovery",
        passed,
        f"top-5 weights within 10% for {ok}/{n_subjects} subjects",
        t0,
    )


def _contracted(chambers, factor):
    out = {}
    for s in STRUCTURES:
        v = chambers[s].vertices
        center = v.mean(axis=0)
        out[s] = chambers[s].with_vertices(center + factor * (v - center))
    return ChamberSet(out)


def criterion_8_phenotypes():
    """Analytic volume/EF/mass oracles and rigid invariance."""
    t0 = time.time()
    # cube of side 10 mm = 1 mL
    side = 10.0
    cube_v = (
        np.array(
            [
                [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1],
            ],
            dtype=float,
        )
        * side
    )
    cube_f = np.array(
        [
            (1, 3, 5), (3, 7, 5), (3, 2, 6), (3, 6, 7), (4, 5, 6), (5, 7, 6),
            (0, 4, 6), (0, 6, 2), (0, 1, 5), (0, 5, 4), (0, 2, 3), (0, 3, 1),
        ]
    )
    cube = TriMesh(cube_v, cube_f, "LV-endo")
    cube_err = abs(mesh_volume(cube) - 1.0)

    sphere = icosphere(4)
    sphere10 = sphere.with_vertices(sphere.vertices * 10.0)
    analytic = 4.0 / 3.0 * np.pi * 1000.0 * 1e-3
    sphere_err = abs(mesh_volume(sphere10) - analytic) / analytic

    # LV mass of a 30/40 mm concentric shell
    cfg = SynthConfig(scale=0.05, n_frames=3, seed=5)
    template, _ = make_template(cfg)
    meshes = dict(template.meshes)
    inner = icosphere(4)
    meshes["LV-endo"] = TriMesh(inner.vertices * 30.0, inner.faces, "LV-endo")
    meshes["LV-epi"] = TriMesh(inner.vertices * 40.0, inner.faces, "LV-epi")
    shell = ChamberSet(meshes)
    static = MeshSequence([shell] * 3)
    table = phenotype_table(static)
    lvm_analytic = 1.05 * (4.0 / 3.0) * np.pi * (40.0**3 - 30.0**3) * 1e-3
    lvm_err = abs(table.LVM - lvm_analytic) / lvm_analytic
    static_ok = table.LVSV == 0.0 and table.LVEF == 0.0

    # prescribed 40% LV volume reduction
    target_ef = 40.0
    factor = (1.0 - target_ef / 100.0) ** (1.0 / 3.0)
    frames = []
    for t in range(5):
        phase = np.sin(np.pi * t / 4) ** 2
        f = 1.0 - (1.0 - factor) * phase
        frames.append(_contracted(template, f))
    table_ef = phenotype_table(MeshSequence(frames))
    ef_err = abs(table_ef.LVEF - target_ef)

    # rigid invariance of every phenotype
    rot = np.linalg.qr(seeded_rng(808).normal(size=(3, 3)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    moved = MeshSequence(
        [
            fr.transformed(rotation=rot, translation=np.array([12.0, -5.0, 9.0]))
            for fr in frames
        ]
    )
    table_moved = phenotype_table(moved)
    rel = max(
        abs(a - b) / max(abs(a), 1e-12)
        for a, b in zip(table_ef.as_row(), table_moved.as_row())
    )
    passed = (
        cube_err < 1e-12
        and sphere_err < 0.01
        and lvm_err < 0.02
        and static_ok
        and ef_err < 1.0
        and rel < 1e-9
    )
    return _result(
        8,
        "phenotype oracles",
        passed,
        f"cube {cube_err:.1e}, sphere {100 * sphere_err:.2f}%, "
        f"LVM {100 * lvm_err:.2f}%, EF err {ef_err:.3f}, rigid rel {rel:.1e}",
        t0,
    )


def criterion_9_population():
    """Retrieval, re-identification, Bonferroni null, truncation direction."""
    t0 = time.time()
    rng = seeded_rng(909)

    n = 400
    feats = FeatureMatrix(rng.normal(size=(n, 8)))
    single = precision_at_k(feats, np.zeros(n, dtype=int), 10, n_queries=500, seed=1)
    groups2 = (np.arange(n) % 2).astype(int)
    rng_feats = FeatureMatrix(rng.normal(size=(n, 8)))
    random_prec = precision_at_k(rng_feats, groups2, 10, n_queries=5000, seed=2)

    f1 = FeatureMatrix(rng.normal(size=(200, 6)))
    recall_self = recall_at_k(f1, FeatureMatrix(f1.raw.copy()), 1)

    fields = rng.normal(size=(1000, 2000))
    attribute = rng.normal(size=1000)
    _, _, significant = vertex_correlation(fields, attribute)
    null_rate = significant.mean()

    n_pair = 300
    signal = rng.normal(size=(n_pair, 4))
    t1 = np.column_stack([signal, rng.normal(size=(n_pair, 16))])
    t2 = np.column_stack(
        [signal + 0.01 * rng.normal(size=(n_pair, 4)), rng.normal(size=(n_pair, 16))]
    )
    fm1, fm2 = FeatureMatrix(t1), FeatureMatrix(t2)
    full_recall = recall_at_k(fm1, fm2, 5)
    trunc_recall = recall_at_k(
        truncate_descriptor(fm1, 4), truncate_descriptor(fm2, 4), 5
    )

    passed = (
        single == 100.0
        and abs(random_prec - 50.0) <= 2.0
        and recall_self == 100.0
        and null_rate <= 0.001
        and trunc_recall >= full_recall
    )
    return _result(
        9,
        "population analytics",
        passed,
        f"single-group {single:.1f}%, random 2-group {random_prec:.2f}%, "
        f"recall@1 self {recall_self:.1f}%, null significant {100 * null_rate:.3f}%, "
        f"truncated {trunc_recall:.1f}% vs full {full_recall:.1f}%",
        t0,
    )


def criterion_10_end_to_end(workdir):
    """Full CLI pipeline twice with one seed: artifacts must be byte-identical."""
    t0 = time.time()
    from .cli import main as cli_main  # lazy: cli imports this module for eval

    base = Path(workdir)
    base.mkdir(parents=True, exist_ok=True)
    digests = []
    for run in ("run_a", "run_b"):
        root = base / run
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        rc = 0
        rc |= cli_main(
            [
                "synth", "--subjects", "6", "--scale", "0.04", "--frames", "6",
                "--voxel-size", "2.0", "--sax", "5", "--views",
                "--seed", "7", "--out", str(root / "synth"),
            ]
        )
        rc |= cli_main(
            [
                "mc", "--views", str(root / "synth" / "subject_000" / "views.bin"),
                "--epochs", "120", "--seed", "7", "--out", str(root / "mc"),
            ]
        )
        for i in range(6):
            rc |= cli_main(
                [
                    "fit",
                    "--template", str(root / "synth" / "template"),
                    "--targets", str(root / "synth" / f"subject_{i:03d}" / "targets.bin"),
                    "--iterations", "60", "--lr", "0.5",
                    "--dims-coarse", "6", "6", "8",
                    "--dims-mid", "8", "8", "10",
                    "--dims-fine", "10", "10", "12",
                    "--seed", "7", "--out", str(root / "fit" / f"subject_{i:03d}"),
                ]
            )
        fit_data = root / "fit"
        rc |= cli_main(
            [
                "ssm", "train", "--data", str(fit_data),
                "--template", str(root / "synth" / "template"),
                "--components", "8", "--batch-size", "4",
                "--seed", "7", "--out", str(root / "ssm"),
            ]
        )
        rc |= cli_main(
            ["pheno", "--data", str(fit_data), "--seed", "7", "--out", str(root / "pheno")]
        )
        descriptors = []
        for i in range(6):
            rc |= cli_main(
                [
                    "ssm", "encode",
                    "--template", str(root / "synth" / "template"),
                    "--model", str(root / "ssm" / "model.hssm"),
                    "--meshes", str(fit_data / f"subject_{i:03d}" / "meshes"),
                    "--seed", "7", "--out", str(root / "desc" / f"subject_{i:03d}"),
                ]
            )
            descriptors.append(
                cio.load_features_csv(
                    root / "desc" / f"subject_{i:03d}" / "descriptor.csv"
                )[1][0]
            )
        cio.save_features_csv(root / "features.csv", np.stack(descriptors))
        cio.save_groups_csv(root / "groups.csv", ["a", "b", "a", "b", "a", "b"])
        rc |= cli_main(
            [
                "retrieve", "--features", str(root / "features.csv"),
                "--groups", str(root / "groups.csv"), "--k", "2",
                "--queries", "50", "--seed", "7", "--out", str(root / "retrieve"),
            ]
        )
        if rc != 0:
            return _result(10, "end-to-end determinism", False, f"CLI exit {rc}", t0)
        tree = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                tree[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        digests.append(tree)
    same_files = set(digests[0]) == set(digests[1])
    mismatched = [k for k in digests[0] if digests[0][k] != digests[1].get(k)]
    passed = same_files and not mismatched
    detail = (
        f"{len(digests[0])} artifacts byte-identical"
        if passed
        else f"mismatch in {mismatched[:5]}"
    )
    return _result(10, "end-to-end determinism", passed, detail, t0)


def run_all(only, workdir):
    """Results of the criteria in ``only`` (all if empty), criterion 10 under ``workdir``."""
    checks = {
        1: criterion_1_ffd,
        2: criterion_2_loss_oracles,
        3: criterion_3_motion,
        4: criterion_4_fit,
        5: criterion_5_ipca,
        6: criterion_6_ssm_curves,
        7: criterion_7_contours,
        8: criterion_8_phenotypes,
        9: criterion_9_population,
        10: lambda: criterion_10_end_to_end(workdir),
    }
    results = []
    for number in sorted(checks):
        if only and number not in only:
            continue
        results.append(checks[number]())
    return results
